package noc

// Rebuilds reports how many times the hop rows have been rebuilt:
// construction, Reset, and every Fail or Revive wave that changed a router.
func (n *Network) Rebuilds() uint64 { return n.reroutes }

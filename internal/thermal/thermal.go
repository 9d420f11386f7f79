// Package thermal models per-node die temperature for the Centurion fabric —
// the "local temperature sensing" monitor of the paper's AIM interface — as
// a discrete RC network: activity deposits heat, heat leaks to ambient, and
// it diffuses to the topology's lateral (die-adjacent) neighbours: the four
// mesh neighbours on the reference fabric, wrap-around neighbours on a
// folded torus, and plain grid neighbours on a concentrated mesh (cluster
// members share a router but still sit next to each other on the die).
//
// Together with the node-frequency knob (noc.OpNodeFrequency) it closes the
// paper's envisioned loop: "with the relevant knobs and monitors, such as
// ... clock frequency and temperature, to close the loop for emergent
// autonomous adaptation".
package thermal

import (
	"fmt"

	"centurion/internal/noc"
	"centurion/internal/sim"
)

// Params configure the thermal model. Temperatures are in °C; all rate
// constants are per model step.
type Params struct {
	// Ambient is the heatsink/ambient temperature nodes relax toward.
	Ambient float64
	// MaxSafe is the throttling threshold used by the DVFS governor.
	MaxSafe float64
	// Hysteresis is how far below MaxSafe a node must cool before the
	// governor restores full frequency.
	Hysteresis float64
	// HeatPerWork is the temperature contribution of one unit of node work
	// (a processed or generated packet).
	HeatPerWork float64
	// LeakHeat is static (idle) heating per step — leakage power.
	LeakHeat float64
	// Cooling is the fraction of the excess over ambient removed per step.
	Cooling float64
	// Diffusion is the per-neighbour lateral conduction coefficient.
	Diffusion float64
	// StepTicks is the model update interval.
	StepTicks sim.Tick
}

// DefaultParams give a stable, visibly dynamic model at the default time
// resolution: a fully busy node settles ~30°C above ambient.
func DefaultParams() Params {
	return Params{
		Ambient:     45,
		MaxSafe:     70,
		Hysteresis:  5,
		HeatPerWork: 3.0,
		LeakHeat:    0.02,
		Cooling:     0.05,
		Diffusion:   0.02,
		StepTicks:   sim.Ms(1),
	}
}

// Model is the fabric's thermal state.
type Model struct {
	topo noc.Topology
	par  Params
	temp []float64
	next []float64
	last []uint64
	// lat memoizes each node's lateral neighbours in port order (N, E, S, W;
	// noc.Invalid when absent) so the per-step conduction loop is indexed
	// loads instead of four interface calls per node.
	lat [][4]noc.NodeID
}

// New builds a model with every node at ambient temperature.
func New(topo noc.Topology, par Params) *Model {
	if par.StepTicks <= 0 {
		par.StepTicks = DefaultParams().StepTicks
	}
	m := &Model{
		topo: topo,
		par:  par,
		temp: make([]float64, topo.Nodes()),
		next: make([]float64, topo.Nodes()),
		last: make([]uint64, topo.Nodes()),
		lat:  make([][4]noc.NodeID, topo.Nodes()),
	}
	for i := range m.temp {
		m.temp[i] = par.Ambient
		for port := noc.North; port <= noc.West; port++ {
			if nb, ok := topo.Lateral(noc.NodeID(i), port); ok {
				m.lat[i][port] = nb
			} else {
				m.lat[i][port] = noc.Invalid
			}
		}
	}
	return m
}

// Params returns the model parameters.
func (m *Model) Params() Params { return m.par }

// Reset returns every node to ambient temperature and clears the work
// baselines, reusing the existing fields (the platform-reuse path).
func (m *Model) Reset() {
	for i := range m.temp {
		m.temp[i] = m.par.Ambient
		m.next[i] = 0
		m.last[i] = 0
	}
}

// Temperature returns a node's current temperature.
func (m *Model) Temperature(id noc.NodeID) float64 { return m.temp[id] }

// Hottest returns the hottest node and its temperature.
func (m *Model) Hottest() (noc.NodeID, float64) {
	best, bestT := noc.NodeID(0), m.temp[0]
	for i, t := range m.temp {
		if t > bestT {
			best, bestT = noc.NodeID(i), t
		}
	}
	return best, bestT
}

// Mean returns the fabric's mean temperature.
func (m *Model) Mean() float64 {
	sum := 0.0
	for _, t := range m.temp {
		sum += t
	}
	return sum / float64(len(m.temp))
}

// Step advances the model one interval. workCounts are the nodes' cumulative
// work counters (the model diffs them against the previous step).
func (m *Model) Step(workCounts []uint64) {
	if len(workCounts) != len(m.temp) {
		panic(fmt.Sprintf("thermal: %d work counters for %d nodes", len(workCounts), len(m.temp)))
	}
	p := m.par
	for i := range m.temp {
		work := float64(workCounts[i] - m.last[i])
		m.last[i] = workCounts[i]

		t := m.temp[i]
		// Lateral conduction with the topology's die-adjacent neighbours.
		lateral := 0.0
		for _, nb := range m.lat[i] {
			if nb >= 0 {
				lateral += p.Diffusion * (m.temp[nb] - t)
			}
		}
		m.next[i] = t +
			p.HeatPerWork*work +
			p.LeakHeat -
			p.Cooling*(t-p.Ambient) +
			lateral
	}
	m.temp, m.next = m.next, m.temp
}

// OverLimit returns the nodes currently above the MaxSafe threshold.
func (m *Model) OverLimit() []noc.NodeID {
	var out []noc.NodeID
	for i, t := range m.temp {
		if t > m.par.MaxSafe {
			out = append(out, noc.NodeID(i))
		}
	}
	return out
}

// CoolEnough reports whether a node has cooled below the governor's
// restore threshold.
func (m *Model) CoolEnough(id noc.NodeID) bool {
	return m.temp[id] < m.par.MaxSafe-m.par.Hysteresis
}

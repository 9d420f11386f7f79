package centurion

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"centurion/internal/aim"
	"centurion/internal/noc"
	"centurion/internal/node"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
	"centurion/internal/wire"
)

// Checkpoint files use the same framing discipline as the result store's
// CENSTOR1 log: a magic, a version, an explicit payload length and a CRC32
// over the payload, so a truncated or bit-flipped file is rejected with a
// clear error instead of restoring garbage state.
//
//	"CENCKPT1" | u16 version | u32 payloadLen | u32 crc32(payload) | payload
//
// The payload is a fixed-order little-endian field dump (package wire); the
// encoding is canonical — two checkpoints of identical state encode to
// identical bytes — which is what lets the equivalence tests compare runs by
// comparing encoded checkpoints.
const (
	ckptMagic     = "CENCKPT1"
	ckptVersion   = 1
	ckptHeaderLen = 8 + 2 + 4 + 4
)

var (
	// ErrCheckpointTruncated reports a checkpoint file shorter than its
	// header claims.
	ErrCheckpointTruncated = errors.New("centurion: truncated checkpoint file")
	// ErrCheckpointChecksum reports payload corruption.
	ErrCheckpointChecksum = errors.New("centurion: checkpoint checksum mismatch")
)

// EncodeCheckpoint serializes cp into the versioned, checksummed binary
// checkpoint format, in one allocation of exactly EncodedLen bytes.
func EncodeCheckpoint(cp *Checkpoint) []byte {
	return AppendCheckpoint(make([]byte, 0, cp.EncodedLen()), cp)
}

// AppendCheckpoint appends cp's encoding to b. Given EncodedLen bytes of
// spare capacity it writes in place, so a caller framing the checkpoint
// inside a larger message pays no copy.
func AppendCheckpoint(b []byte, cp *Checkpoint) []byte {
	start := len(b)
	b = append(b, ckptMagic...)
	b = wire.AppendU16(b, ckptVersion)
	b = wire.AppendU64(b, 0) // payload length and CRC, patched below
	b = appendCheckpointPayload(b, cp)
	payload := b[start+ckptHeaderLen:]
	binary.LittleEndian.PutUint32(b[start+10:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+14:], crc32.ChecksumIEEE(payload))
	return b
}

// EncodedLen is the exact length of cp's encoding.
func (cp *Checkpoint) EncodedLen() int {
	n := ckptHeaderLen + 2*8 + 4 + len(cp.topology) + 5*8 + 6*8
	n += cp.net.BinaryLen()
	n += 4 + 8*len(cp.dir.TaskOf) + 4 + len(cp.dir.Alive) + 8
	n += 4
	for i := range cp.pes {
		st := &cp.pes[i]
		n += peStateMinSize + 4*len(st.Queue) + 4*len(st.Outbox) + 32*len(st.Joins) + 16*len(st.Outstanding)
	}
	n += 4
	for i := range cp.engines {
		n += engineStateMinSize + 4*len(cp.engines[i].Counts) + 4*len(cp.engines[i].Thresholds)
	}
	n += 1 + 4 + 8*len(cp.heat.Temp) + 4 + 8*len(cp.heat.Last) + 8 + 4 + len(cp.throttled)
	n += cp.peActive.BinaryLen() + cp.engActive.BinaryLen()
	n += 4 + 8*len(cp.peWakeAt) + 4 + 8*len(cp.engWakeAt)
	return n + 4 + 20*len(cp.retries)
}

// DecodeCheckpoint parses data produced by EncodeCheckpoint. Truncated,
// misframed or corrupted inputs are rejected with a descriptive error, and
// so is a checkpoint whose bytes contradict each other, whatever platform it
// is meant for (see check): every arena-slot reference resolves to a live
// packet with one owner, ring handles carry their slot's generation, rings
// lie within their capacity, hop entries are ports and node IDs name nodes
// of the checkpoint's own fabric. Whether the checkpoint fits a given
// platform is Platform.Restore's to check.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < ckptHeaderLen {
		return nil, ErrCheckpointTruncated
	}
	if string(data[:8]) != ckptMagic {
		return nil, errors.New("centurion: not a checkpoint file (bad magic)")
	}
	if v := binary.LittleEndian.Uint16(data[8:10]); v != ckptVersion {
		return nil, fmt.Errorf("centurion: unsupported checkpoint version %d (want %d)", v, ckptVersion)
	}
	n := int(binary.LittleEndian.Uint32(data[10:14]))
	sum := binary.LittleEndian.Uint32(data[14:18])
	payload := data[ckptHeaderLen:]
	if len(payload) < n {
		return nil, ErrCheckpointTruncated
	}
	if len(payload) > n {
		return nil, fmt.Errorf("centurion: checkpoint has %d trailing bytes", len(payload)-n)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, ErrCheckpointChecksum
	}
	cp := &Checkpoint{}
	r := wire.NewReader(payload)
	if err := decodeCheckpointPayload(r, cp); err != nil {
		return nil, fmt.Errorf("centurion: malformed checkpoint payload: %w", err)
	}
	if r.Remaining() != 0 {
		return nil, errors.New("centurion: checkpoint payload has unread bytes")
	}
	if err := cp.check(); err != nil {
		return nil, err
	}
	return cp, nil
}

// check refuses a decoded checkpoint whose packet references or node IDs
// contradict its own network section (which DecodeBinary checked): every PE
// queue, in-progress and outbox slot is a live data packet and every
// pending retry a live config packet no other owner holds, and join origins
// and retry taps are nodes of the fabric.
func (cp *Checkpoint) check() error {
	nodes := cp.net.Nodes()
	for i := range cp.pes {
		st := &cp.pes[i]
		for _, idx := range st.Queue {
			if err := cp.net.Claim(idx, noc.Data); err != nil {
				return fmt.Errorf("centurion: PE %d queue: %w", i, err)
			}
		}
		if st.Current != -1 {
			if err := cp.net.Claim(st.Current, noc.Data); err != nil {
				return fmt.Errorf("centurion: PE %d current packet: %w", i, err)
			}
		}
		for _, idx := range st.Outbox {
			if err := cp.net.Claim(idx, noc.Data); err != nil {
				return fmt.Errorf("centurion: PE %d outbox: %w", i, err)
			}
		}
		for _, j := range st.Joins {
			if j.Origin < noc.Invalid || int(j.Origin) >= nodes {
				return fmt.Errorf("centurion: checkpoint PE %d joins an instance from node %d", i, j.Origin)
			}
		}
	}
	for _, rec := range cp.retries {
		if rec.tap < 0 || int(rec.tap) >= nodes {
			return fmt.Errorf("centurion: checkpoint retries a packet at node %d", rec.tap)
		}
		if err := cp.net.Claim(rec.slot, noc.Config); err != nil {
			return fmt.Errorf("centurion: controller retry: %w", err)
		}
	}
	return nil
}

// WriteCheckpointFile atomically writes cp to path.
func WriteCheckpointFile(path string, cp *Checkpoint) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, EncodeCheckpoint(cp), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadCheckpointFile reads and validates a checkpoint from path.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cp, err := DecodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cp, nil
}

func appendCheckpointPayload(b []byte, cp *Checkpoint) []byte {
	b = wire.AppendI64(b, int64(cp.width))
	b = wire.AppendI64(b, int64(cp.height))
	b = wire.AppendString(b, cp.topology)
	b = wire.AppendI64(b, int64(cp.now))
	b = wire.AppendU64(b, cp.seed)
	b = wire.AppendU64(b, cp.rng)
	b = wire.AppendU64(b, cp.nextPkt)
	b = wire.AppendU64(b, cp.nextInst)

	b = wire.AppendU64(b, cp.counters.InstancesStarted)
	b = wire.AppendU64(b, cp.counters.InstancesCompleted)
	b = wire.AppendU64(b, cp.counters.InstancesLost)
	b = wire.AppendU64(b, cp.counters.TaskSwitches)
	b = wire.AppendU64(b, cp.counters.PacketsDropped)
	b = wire.AppendU64(b, cp.counters.PacketsRescued)

	b = cp.net.AppendBinary(b)

	b = wire.AppendU32(b, uint32(len(cp.dir.TaskOf)))
	for _, t := range cp.dir.TaskOf {
		b = wire.AppendI64(b, int64(t))
	}
	b = wire.AppendU32(b, uint32(len(cp.dir.Alive)))
	for _, a := range cp.dir.Alive {
		b = wire.AppendBool(b, a)
	}
	b = wire.AppendU64(b, cp.dir.Version)

	b = wire.AppendU32(b, uint32(len(cp.pes)))
	for i := range cp.pes {
		b = appendPEState(b, &cp.pes[i])
	}
	b = wire.AppendU32(b, uint32(len(cp.engines)))
	for i := range cp.engines {
		b = appendEngineState(b, &cp.engines[i])
	}

	b = wire.AppendBool(b, cp.hasHeat)
	b = wire.AppendU32(b, uint32(len(cp.heat.Temp)))
	for _, t := range cp.heat.Temp {
		b = wire.AppendF64(b, t)
	}
	b = wire.AppendU32(b, uint32(len(cp.heat.Last)))
	for _, w := range cp.heat.Last {
		b = wire.AppendU64(b, w)
	}
	b = wire.AppendI64(b, int64(cp.nextHeat))
	b = wire.AppendU32(b, uint32(len(cp.throttled)))
	for _, t := range cp.throttled {
		b = wire.AppendBool(b, t)
	}

	b = cp.peActive.AppendBinary(b)
	b = cp.engActive.AppendBinary(b)
	b = appendTicks(b, cp.peWakeAt)
	b = appendTicks(b, cp.engWakeAt)

	b = wire.AppendU32(b, uint32(len(cp.retries)))
	for _, rec := range cp.retries {
		b = wire.AppendU32(b, uint32(rec.slot))
		b = wire.AppendI64(b, int64(rec.tap))
		b = wire.AppendI64(b, int64(rec.at))
	}
	return b
}

func decodeCheckpointPayload(r *wire.Reader, cp *Checkpoint) error {
	cp.width = int(r.I64())
	cp.height = int(r.I64())
	cp.topology = r.String()
	cp.now = sim.Tick(r.I64())
	cp.seed = r.U64()
	cp.rng = r.U64()
	cp.nextPkt = r.U64()
	cp.nextInst = r.U64()

	cp.counters.InstancesStarted = r.U64()
	cp.counters.InstancesCompleted = r.U64()
	cp.counters.InstancesLost = r.U64()
	cp.counters.TaskSwitches = r.U64()
	cp.counters.PacketsDropped = r.U64()
	cp.counters.PacketsRescued = r.U64()

	if err := cp.net.DecodeBinary(r); err != nil {
		return err
	}

	n := r.Count(8)
	cp.dir.TaskOf = make([]taskgraph.TaskID, n)
	for i := range cp.dir.TaskOf {
		cp.dir.TaskOf[i] = taskgraph.TaskID(r.I64())
	}
	n = r.Count(1)
	cp.dir.Alive = make([]bool, n)
	for i := range cp.dir.Alive {
		cp.dir.Alive[i] = r.Bool()
	}
	cp.dir.Version = r.U64()

	n = r.Count(peStateMinSize)
	cp.pes = make([]node.PEState, n)
	for i := range cp.pes {
		readPEState(r, &cp.pes[i])
	}
	n = r.Count(engineStateMinSize)
	cp.engines = make([]aim.EngineState, n)
	for i := range cp.engines {
		readEngineState(r, &cp.engines[i])
	}

	cp.hasHeat = r.Bool()
	n = r.Count(8)
	cp.heat.Temp = make([]float64, n)
	for i := range cp.heat.Temp {
		cp.heat.Temp[i] = r.F64()
	}
	n = r.Count(8)
	cp.heat.Last = make([]uint64, n)
	for i := range cp.heat.Last {
		cp.heat.Last[i] = r.U64()
	}
	cp.nextHeat = sim.Tick(r.I64())
	n = r.Count(1)
	cp.throttled = make([]bool, n)
	for i := range cp.throttled {
		cp.throttled[i] = r.Bool()
	}

	cp.peActive.DecodeBinary(r)
	cp.engActive.DecodeBinary(r)
	cp.peWakeAt = readTicks(r)
	cp.engWakeAt = readTicks(r)

	n = r.Count(16)
	cp.retries = make([]retryRec, n)
	for i := range cp.retries {
		cp.retries[i].slot = int32(r.U32())
		cp.retries[i].tap = noc.NodeID(r.I64())
		cp.retries[i].at = sim.Tick(r.I64())
	}
	return r.Err()
}

// peStateMinSize is the smallest possible encoded PEState (all slices
// empty), used to bound decode-side allocations against corrupt counts.
const peStateMinSize = 8 + 1 + 1 + 8 + 4 + 8 + 8 + 8 + 4 + 4 + 4 + 1 + 8 + 8 + 8*8

func appendPEState(b []byte, st *node.PEState) []byte {
	b = wire.AppendI64(b, int64(st.Task))
	b = wire.AppendBool(b, st.Alive)
	b = wire.AppendBool(b, st.ClockEn)
	b = wire.AppendI64(b, int64(st.FreqDiv))
	b = wire.AppendU32(b, uint32(len(st.Queue)))
	for _, s := range st.Queue {
		b = wire.AppendU32(b, uint32(s))
	}
	b = wire.AppendI64(b, int64(st.Current))
	b = wire.AppendI64(b, int64(st.BusyEnd))
	b = wire.AppendI64(b, int64(st.NextGen))
	b = wire.AppendU32(b, uint32(len(st.Outbox)))
	for _, s := range st.Outbox {
		b = wire.AppendU32(b, uint32(s))
	}
	b = wire.AppendU32(b, uint32(len(st.Joins)))
	for _, j := range st.Joins {
		b = wire.AppendU64(b, j.Inst)
		b = wire.AppendI64(b, int64(j.Seen))
		b = wire.AppendI64(b, int64(j.Origin))
		b = wire.AppendI64(b, int64(j.LastTouch))
	}
	b = wire.AppendU32(b, uint32(len(st.Outstanding)))
	for _, o := range st.Outstanding {
		b = wire.AppendU64(b, o.Inst)
		b = wire.AppendI64(b, int64(o.Born))
	}
	b = wire.AppendBool(b, st.AdmitRefused)
	b = wire.AppendI64(b, int64(st.NextJoin))
	b = wire.AppendU64(b, st.WorkCount)
	b = wire.AppendU64(b, st.Stats.Generated)
	b = wire.AppendU64(b, st.Stats.Processed)
	b = wire.AppendU64(b, st.Stats.Completions)
	b = wire.AppendU64(b, st.Stats.Switches)
	b = wire.AppendU64(b, st.Stats.Misrouted)
	b = wire.AppendU64(b, st.Stats.Dropped)
	b = wire.AppendU64(b, st.Stats.DebugSeen)
	b = wire.AppendU64(b, st.Stats.StallTicks)
	return b
}

func readPEState(r *wire.Reader, st *node.PEState) {
	st.Task = taskgraph.TaskID(r.I64())
	st.Alive = r.Bool()
	st.ClockEn = r.Bool()
	st.FreqDiv = int(r.I64())
	n := r.Count(4)
	st.Queue = make([]int32, n)
	for i := range st.Queue {
		st.Queue[i] = int32(r.U32())
	}
	st.Current = int32(r.I64())
	st.BusyEnd = sim.Tick(r.I64())
	st.NextGen = sim.Tick(r.I64())
	n = r.Count(4)
	st.Outbox = make([]int32, n)
	for i := range st.Outbox {
		st.Outbox[i] = int32(r.U32())
	}
	n = r.Count(32)
	st.Joins = make([]node.JoinEntry, n)
	for i := range st.Joins {
		st.Joins[i].Inst = r.U64()
		st.Joins[i].Seen = int(r.I64())
		st.Joins[i].Origin = noc.NodeID(r.I64())
		st.Joins[i].LastTouch = sim.Tick(r.I64())
	}
	n = r.Count(16)
	st.Outstanding = make([]node.OutstandingEntry, n)
	for i := range st.Outstanding {
		st.Outstanding[i].Inst = r.U64()
		st.Outstanding[i].Born = sim.Tick(r.I64())
	}
	st.AdmitRefused = r.Bool()
	st.NextJoin = sim.Tick(r.I64())
	st.WorkCount = r.U64()
	st.Stats.Generated = r.U64()
	st.Stats.Processed = r.U64()
	st.Stats.Completions = r.U64()
	st.Stats.Switches = r.U64()
	st.Stats.Misrouted = r.U64()
	st.Stats.Dropped = r.U64()
	st.Stats.DebugSeen = r.U64()
	st.Stats.StallTicks = r.U64()
}

// engineStateMinSize is the smallest possible encoded EngineState.
const engineStateMinSize = 1 + 8 + 6*8 + 1 + 4 + 4 + 8 + 8 + 8 + 1 + 1 + 1 + 8 + 8

func appendEngineState(b []byte, st *aim.EngineState) []byte {
	b = wire.AppendU8(b, st.Kind)
	b = wire.AppendI64(b, int64(st.Current))
	b = wire.AppendI64(b, int64(st.NIPar.Threshold))
	b = wire.AppendI64(b, int64(st.NIPar.InhibitWeight))
	b = wire.AppendI64(b, int64(st.NIPar.InternalWeight))
	b = wire.AppendI64(b, int64(st.NIPar.NeighborWeight))
	b = wire.AppendBool(b, st.NIPar.PinSources)
	b = wire.AppendI64(b, int64(st.NIPar.AdaptStep))
	b = wire.AppendI64(b, int64(st.NIPar.AdaptDecay))
	b = wire.AppendU32(b, uint32(len(st.Counts)))
	for _, c := range st.Counts {
		b = wire.AppendU32(b, uint32(c))
	}
	b = wire.AppendU32(b, uint32(len(st.Thresholds)))
	for _, t := range st.Thresholds {
		b = wire.AppendU32(b, uint32(t))
	}
	b = wire.AppendI64(b, int64(st.Level))
	b = wire.AppendI64(b, int64(st.LastDecay))
	b = wire.AppendI64(b, int64(st.FFWPar.Timeout))
	b = wire.AppendBool(b, st.FFWPar.ArmOnLapse)
	b = wire.AppendBool(b, st.FFWPar.PinSources)
	b = wire.AppendBool(b, st.Armed)
	b = wire.AppendI64(b, int64(st.ArmTime))
	b = wire.AppendI64(b, int64(st.LastWork))
	return b
}

func readEngineState(r *wire.Reader, st *aim.EngineState) {
	st.Kind = r.U8()
	st.Current = taskgraph.TaskID(r.I64())
	st.NIPar.Threshold = int(r.I64())
	st.NIPar.InhibitWeight = int(r.I64())
	st.NIPar.InternalWeight = int(r.I64())
	st.NIPar.NeighborWeight = int(r.I64())
	st.NIPar.PinSources = r.Bool()
	st.NIPar.AdaptStep = int(r.I64())
	st.NIPar.AdaptDecay = sim.Tick(r.I64())
	n := r.Count(4)
	st.Counts = make([]int32, n)
	for i := range st.Counts {
		st.Counts[i] = int32(r.U32())
	}
	n = r.Count(4)
	st.Thresholds = make([]int32, n)
	for i := range st.Thresholds {
		st.Thresholds[i] = int32(r.U32())
	}
	st.Level = int(r.I64())
	st.LastDecay = sim.Tick(r.I64())
	st.FFWPar.Timeout = sim.Tick(r.I64())
	st.FFWPar.ArmOnLapse = r.Bool()
	st.FFWPar.PinSources = r.Bool()
	st.Armed = r.Bool()
	st.ArmTime = sim.Tick(r.I64())
	st.LastWork = sim.Tick(r.I64())
}

func appendTicks(b []byte, ts []sim.Tick) []byte {
	b = wire.AppendU32(b, uint32(len(ts)))
	for _, t := range ts {
		b = wire.AppendI64(b, int64(t))
	}
	return b
}

func readTicks(r *wire.Reader) []sim.Tick {
	n := r.Count(8)
	out := make([]sim.Tick, n)
	for i := range out {
		out[i] = sim.Tick(r.I64())
	}
	return out
}

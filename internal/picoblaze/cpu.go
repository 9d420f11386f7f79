// Package picoblaze implements the embedded substrate hosting the paper's
// Artificial Intelligence Module: a PicoBlaze-3-style 8-bit microcontroller
// (16 registers, 64-byte scratchpad, 1K instruction store, Z/C flags, 31-deep
// call stack, port-mapped I/O), a two-pass assembler for its mnemonics, and
// an aim.Engine adapter that runs the Network Interaction threshold pathway
// as real embedded code.
//
// The experiment controller of the real platform uploads AIM programs at
// runtime; the adapter mirrors that workflow — engines are built from
// assembled program images, and the instruction-level implementation is
// tested for decision equivalence against the behavioural Go engine.
package picoblaze

import "fmt"

// Machine size constants (PicoBlaze-3).
const (
	NumRegisters   = 16
	ScratchpadSize = 64
	ProgramSize    = 1024
	StackDepth     = 31
)

// Op is an instruction opcode.
type Op uint8

// Opcodes. Register/constant addressing is selected by Instr.Imm.
const (
	OpInvalid Op = iota
	OpLoad
	OpAnd
	OpOr
	OpXor
	OpAdd
	OpAddCy
	OpSub
	OpSubCy
	OpCompare
	OpTest
	OpSL0
	OpSL1
	OpSLX
	OpSLA
	OpRL
	OpSR0
	OpSR1
	OpSRX
	OpSRA
	OpRR
	OpInput
	OpOutput
	OpStore
	OpFetch
	OpJump
	OpCall
	OpReturn
	OpEnableInt
	OpDisableInt
	OpReturnI
)

// opNames are the mnemonics, indexed by opcode (static data: the package
// allocates nothing at init).
var opNames = [...]string{
	OpLoad: "LOAD", OpAnd: "AND", OpOr: "OR", OpXor: "XOR",
	OpAdd: "ADD", OpAddCy: "ADDCY", OpSub: "SUB", OpSubCy: "SUBCY",
	OpCompare: "COMPARE", OpTest: "TEST",
	OpSL0: "SL0", OpSL1: "SL1", OpSLX: "SLX", OpSLA: "SLA", OpRL: "RL",
	OpSR0: "SR0", OpSR1: "SR1", OpSRX: "SRX", OpSRA: "SRA", OpRR: "RR",
	OpInput: "INPUT", OpOutput: "OUTPUT", OpStore: "STORE", OpFetch: "FETCH",
	OpJump: "JUMP", OpCall: "CALL", OpReturn: "RETURN",
	OpEnableInt: "ENABLE INTERRUPT", OpDisableInt: "DISABLE INTERRUPT", OpReturnI: "RETURNI",
}

// String names the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Cond is a branch condition.
type Cond uint8

// Branch conditions.
const (
	Always Cond = iota
	IfZ
	IfNZ
	IfC
	IfNC
)

// String names the condition.
func (c Cond) String() string {
	switch c {
	case IfZ:
		return "Z"
	case IfNZ:
		return "NZ"
	case IfC:
		return "C"
	case IfNC:
		return "NC"
	}
	return ""
}

// Instr is one decoded instruction.
type Instr struct {
	Op Op
	// X is the destination/source register index.
	X uint8
	// Y is the second register index when Imm is false.
	Y uint8
	// K is the constant operand when Imm is true (also the port/scratchpad
	// address for direct-address I/O).
	K uint8
	// Imm selects the constant addressing form.
	Imm bool
	// Addr is the branch target for JUMP/CALL.
	Addr uint16
	// Cond is the branch condition for JUMP/CALL/RETURN.
	Cond Cond
	// Enable is the RETURNI interrupt re-enable flag.
	Enable bool
}

// String disassembles the instruction.
func (i Instr) String() string {
	reg := func(r uint8) string { return fmt.Sprintf("s%X", r) }
	operand := func() string {
		if i.Imm {
			return fmt.Sprintf("%02X", i.K)
		}
		return reg(i.Y)
	}
	switch i.Op {
	case OpLoad, OpAnd, OpOr, OpXor, OpAdd, OpAddCy, OpSub, OpSubCy, OpCompare, OpTest:
		return fmt.Sprintf("%s %s, %s", i.Op, reg(i.X), operand())
	case OpSL0, OpSL1, OpSLX, OpSLA, OpRL, OpSR0, OpSR1, OpSRX, OpSRA, OpRR:
		return fmt.Sprintf("%s %s", i.Op, reg(i.X))
	case OpInput, OpOutput, OpStore, OpFetch:
		if i.Imm {
			return fmt.Sprintf("%s %s, %02X", i.Op, reg(i.X), i.K)
		}
		return fmt.Sprintf("%s %s, (%s)", i.Op, reg(i.X), reg(i.Y))
	case OpJump, OpCall:
		if i.Cond == Always {
			return fmt.Sprintf("%s %03X", i.Op, i.Addr)
		}
		return fmt.Sprintf("%s %s, %03X", i.Op, i.Cond, i.Addr)
	case OpReturn:
		if i.Cond == Always {
			return "RETURN"
		}
		return fmt.Sprintf("RETURN %s", i.Cond)
	case OpReturnI:
		if i.Enable {
			return "RETURNI ENABLE"
		}
		return "RETURNI DISABLE"
	}
	return i.Op.String()
}

// Bus is the CPU's port-mapped I/O interface — the monitor/knob fabric the
// AIM is wired to on the real router.
type Bus interface {
	// In reads input port p.
	In(p uint8) uint8
	// Out writes v to output port p.
	Out(p uint8, v uint8)
}

// CPU is one PicoBlaze-style core.
type CPU struct {
	Regs    [NumRegisters]uint8
	Scratch [ScratchpadSize]uint8
	PC      uint16
	Zero    bool
	Carry   bool

	stack  [StackDepth]uint16
	sp     int
	intEn  bool
	halted bool

	prog []Instr
	// readPort and writePort are the bus's port handlers; nil reads zero
	// and discards writes.
	readPort  func(p uint8) uint8
	writePort func(p, v uint8)

	// Steps counts executed instructions (for cost accounting).
	Steps uint64
}

// New builds a CPU running the given program image against the bus (nil:
// inputs read zero, outputs are discarded).
func New(prog []Instr, bus Bus) (*CPU, error) {
	c, err := newCPU(prog)
	if err == nil && bus != nil {
		c.readPort, c.writePort = bus.In, bus.Out
	}
	return c, err
}

// newCPU builds a CPU with no bus wired. The NI engine wires its own port
// methods in directly instead of converting itself to a Bus. Each such
// conversion links one more itab into every binary that links the
// experiment runner, and the runtime registers them all at start in a
// 512-entry table that grows (a 9 KB allocation, live for the process) at
// 384 entries; the benchmark binary sits exactly at that threshold.
func newCPU(prog []Instr) (*CPU, error) {
	if len(prog) == 0 {
		return nil, fmt.Errorf("picoblaze: empty program")
	}
	if len(prog) > ProgramSize {
		return nil, fmt.Errorf("picoblaze: program of %d words exceeds %d-word store", len(prog), ProgramSize)
	}
	return &CPU{prog: prog}, nil
}

// Reset returns the CPU to its power-on state (program and bus retained).
func (c *CPU) Reset() {
	*c = CPU{prog: c.prog, readPort: c.readPort, writePort: c.writePort}
}

// Halted reports whether the CPU stopped on an error (bad PC or stack
// overflow). A halted CPU ignores Step.
func (c *CPU) Halted() bool { return c.halted }

// Step executes one instruction. It returns false once halted.
func (c *CPU) Step() bool {
	if c.halted {
		return false
	}
	if int(c.PC) >= len(c.prog) {
		// Off the end of the program store: on the silicon the PC wraps;
		// for the AIM programs that is always a bug, so halt loudly.
		c.halted = true
		return false
	}
	in := c.prog[c.PC]
	c.PC++
	c.Steps++
	c.exec(in)
	return !c.halted
}

// Run executes up to n instructions, stopping early when halted.
// It returns the number of instructions executed.
func (c *CPU) Run(n int) int {
	done := 0
	for done < n && c.Step() {
		done++
	}
	if done < n && !c.halted {
		done++ // the failed Step that halted still consumed the slot
	}
	return done
}

func (c *CPU) operand(in Instr) uint8 {
	if in.Imm {
		return in.K
	}
	return c.Regs[in.Y&0x0F]
}

func (c *CPU) setZ(v uint8) { c.Zero = v == 0 }

func (c *CPU) exec(in Instr) {
	x := in.X & 0x0F
	switch in.Op {
	case OpLoad:
		c.Regs[x] = c.operand(in)
	case OpAnd:
		c.Regs[x] &= c.operand(in)
		c.setZ(c.Regs[x])
		c.Carry = false
	case OpOr:
		c.Regs[x] |= c.operand(in)
		c.setZ(c.Regs[x])
		c.Carry = false
	case OpXor:
		c.Regs[x] ^= c.operand(in)
		c.setZ(c.Regs[x])
		c.Carry = false
	case OpAdd:
		sum := uint16(c.Regs[x]) + uint16(c.operand(in))
		c.Carry = sum > 0xFF
		c.Regs[x] = uint8(sum)
		c.setZ(c.Regs[x])
	case OpAddCy:
		sum := uint16(c.Regs[x]) + uint16(c.operand(in))
		if c.Carry {
			sum++
		}
		c.Carry = sum > 0xFF
		c.Regs[x] = uint8(sum)
		c.setZ(c.Regs[x])
	case OpSub:
		v := c.operand(in)
		c.Carry = v > c.Regs[x]
		c.Regs[x] -= v
		c.setZ(c.Regs[x])
	case OpSubCy:
		v := uint16(c.operand(in))
		if c.Carry {
			v++
		}
		c.Carry = v > uint16(c.Regs[x])
		c.Regs[x] = uint8(uint16(c.Regs[x]) - v)
		c.setZ(c.Regs[x])
	case OpCompare:
		v := c.operand(in)
		c.Carry = v > c.Regs[x]
		c.Zero = c.Regs[x] == v
	case OpTest:
		r := c.Regs[x] & c.operand(in)
		c.setZ(r)
		c.Carry = parity(r)
	case OpSL0, OpSL1, OpSLX, OpSLA:
		var bit0 uint8
		switch in.Op {
		case OpSL1:
			bit0 = 1
		case OpSLX:
			bit0 = c.Regs[x] & 1
		case OpSLA:
			if c.Carry {
				bit0 = 1
			}
		}
		c.Carry = c.Regs[x]&0x80 != 0
		c.Regs[x] = c.Regs[x]<<1 | bit0
		c.setZ(c.Regs[x])
	case OpRL:
		top := c.Regs[x] & 0x80
		c.Regs[x] = c.Regs[x]<<1 | top>>7
		c.Carry = top != 0
		c.setZ(c.Regs[x])
	case OpSR0, OpSR1, OpSRX, OpSRA:
		var bit7 uint8
		switch in.Op {
		case OpSR1:
			bit7 = 0x80
		case OpSRX:
			bit7 = c.Regs[x] & 0x80
		case OpSRA:
			if c.Carry {
				bit7 = 0x80
			}
		}
		c.Carry = c.Regs[x]&1 != 0
		c.Regs[x] = c.Regs[x]>>1 | bit7
		c.setZ(c.Regs[x])
	case OpRR:
		low := c.Regs[x] & 1
		c.Regs[x] = c.Regs[x]>>1 | low<<7
		c.Carry = low != 0
		c.setZ(c.Regs[x])
	case OpInput:
		c.Regs[x] = 0
		if c.readPort != nil {
			c.Regs[x] = c.readPort(c.portAddr(in))
		}
	case OpOutput:
		if c.writePort != nil {
			c.writePort(c.portAddr(in), c.Regs[x])
		}
	case OpStore:
		c.Scratch[c.portAddr(in)%ScratchpadSize] = c.Regs[x]
	case OpFetch:
		c.Regs[x] = c.Scratch[c.portAddr(in)%ScratchpadSize]
	case OpJump:
		if c.condMet(in.Cond) {
			c.PC = in.Addr
		}
	case OpCall:
		if c.condMet(in.Cond) {
			if c.sp >= StackDepth {
				c.halted = true
				return
			}
			c.stack[c.sp] = c.PC
			c.sp++
			c.PC = in.Addr
		}
	case OpReturn:
		if c.condMet(in.Cond) {
			if c.sp == 0 {
				c.halted = true
				return
			}
			c.sp--
			c.PC = c.stack[c.sp]
		}
	case OpEnableInt:
		c.intEn = true
	case OpDisableInt:
		c.intEn = false
	case OpReturnI:
		if c.sp > 0 {
			c.sp--
			c.PC = c.stack[c.sp]
		}
		c.intEn = in.Enable
	default:
		c.halted = true
	}
}

func (c *CPU) portAddr(in Instr) uint8 {
	if in.Imm {
		return in.K
	}
	return c.Regs[in.Y&0x0F]
}

func (c *CPU) condMet(cond Cond) bool {
	switch cond {
	case Always:
		return true
	case IfZ:
		return c.Zero
	case IfNZ:
		return !c.Zero
	case IfC:
		return c.Carry
	case IfNC:
		return !c.Carry
	}
	return false
}

// parity returns true for odd parity (the PicoBlaze TEST carry semantics).
func parity(v uint8) bool {
	v ^= v >> 4
	v ^= v >> 2
	v ^= v >> 1
	return v&1 == 1
}

// Interrupt requests an interrupt: if enabled, the CPU pushes the current PC
// and vectors to the last program address, as on the real core. It returns
// whether the interrupt was taken.
func (c *CPU) Interrupt() bool {
	if !c.intEn || c.halted || c.sp >= StackDepth {
		return false
	}
	c.stack[c.sp] = c.PC
	c.sp++
	c.PC = uint16(len(c.prog) - 1)
	c.intEn = false
	return true
}

package picoblaze

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble translates PicoBlaze assembly (KCPSM3-style mnemonics) into a
// program image. Supported syntax:
//
//	; comment                        — to end of line
//	CONSTANT NAME, value             — named constant
//	label:                           — code label (own line or inline)
//	LOAD sX, sY|kk                   — likewise AND OR XOR ADD ADDCY SUB
//	                                   SUBCY COMPARE TEST
//	SL0/SL1/SLX/SLA/RL sX            — shifts/rotates, likewise SR0 SR1 SRX
//	                                   SRA RR
//	INPUT sX, pp | INPUT sX, (sY)    — likewise OUTPUT STORE FETCH
//	JUMP [Z|NZ|C|NC,] label          — likewise CALL
//	RETURN [Z|NZ|C|NC]
//	ENABLE INTERRUPT / DISABLE INTERRUPT
//	RETURNI ENABLE|DISABLE
//
// Numeric literals are hexadecimal by KCPSM convention ("3F"); the prefixes
// 0x (hex) and # (decimal) are also accepted.
func Assemble(src string) ([]Instr, error) {
	a := &assembler{
		labels: make(map[string]uint16),
		consts: make(map[string]uint8),
	}
	if err := a.firstPass(src); err != nil {
		return nil, err
	}
	if err := a.secondPass(src); err != nil {
		return nil, err
	}
	if len(a.prog) == 0 {
		return nil, fmt.Errorf("picoblaze asm: no instructions")
	}
	return a.prog, nil
}

// MustAssemble is Assemble for known-good embedded programs; it panics on
// error.
func MustAssemble(src string) []Instr {
	prog, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return prog
}

// Disassemble renders a program image back to one instruction per line.
func Disassemble(prog []Instr) string {
	var b strings.Builder
	for addr, in := range prog {
		fmt.Fprintf(&b, "%03X: %s\n", addr, in)
	}
	return b.String()
}

type assembler struct {
	labels map[string]uint16
	consts map[string]uint8
	prog   []Instr
}

// stmt is one cleaned source statement.
type stmt struct {
	line   int
	fields []string // mnemonic + comma-split operands
}

// clean splits the source into statements, collecting labels at pass time.
func (a *assembler) statements(src string, onLabel func(name string, addr uint16) error) ([]stmt, error) {
	var out []stmt
	addr := uint16(0)
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		// Peel off leading labels.
		for {
			colon := strings.IndexByte(line, ':')
			if colon < 0 {
				break
			}
			label := strings.TrimSpace(line[:colon])
			if label == "" || strings.ContainsAny(label, " \t,") {
				break
			}
			if onLabel != nil {
				if err := onLabel(strings.ToUpper(label), addr); err != nil {
					return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
				}
			}
			line = strings.TrimSpace(line[colon+1:])
		}
		if line == "" {
			continue
		}
		fields := splitOperands(line)
		if strings.EqualFold(fields[0], "CONSTANT") {
			out = append(out, stmt{line: lineNo + 1, fields: fields})
			continue // directives occupy no address
		}
		out = append(out, stmt{line: lineNo + 1, fields: fields})
		addr++
	}
	return out, nil
}

// splitOperands splits "OP a, b" into ["OP", "a", "b"], handling the
// two-word mnemonics ENABLE/DISABLE INTERRUPT.
func splitOperands(line string) []string {
	mnemonicEnd := strings.IndexAny(line, " \t")
	if mnemonicEnd < 0 {
		return []string{line}
	}
	op := line[:mnemonicEnd]
	rest := strings.TrimSpace(line[mnemonicEnd:])
	if strings.EqualFold(op, "ENABLE") || strings.EqualFold(op, "DISABLE") || strings.EqualFold(op, "RETURNI") {
		return []string{op + " " + strings.ToUpper(rest)}
	}
	fields := []string{op}
	for _, f := range strings.Split(rest, ",") {
		f = strings.TrimSpace(f)
		if f != "" {
			fields = append(fields, f)
		}
	}
	return fields
}

func (a *assembler) firstPass(src string) error {
	stmts, err := a.statements(src, func(name string, addr uint16) error {
		if _, dup := a.labels[name]; dup {
			return fmt.Errorf("duplicate label %q", name)
		}
		a.labels[name] = addr
		return nil
	})
	if err != nil {
		return err
	}
	for _, s := range stmts {
		if strings.EqualFold(s.fields[0], "CONSTANT") {
			if len(s.fields) != 3 {
				return fmt.Errorf("picoblaze asm line %d: CONSTANT needs name and value", s.line)
			}
			v, err := a.number(s.fields[2])
			if err != nil {
				return fmt.Errorf("picoblaze asm line %d: %w", s.line, err)
			}
			a.consts[strings.ToUpper(s.fields[1])] = v
		}
	}
	return nil
}

func (a *assembler) secondPass(src string) error {
	stmts, err := a.statements(src, nil)
	if err != nil {
		return err
	}
	for _, s := range stmts {
		if strings.EqualFold(s.fields[0], "CONSTANT") {
			continue
		}
		in, err := a.encode(s)
		if err != nil {
			return fmt.Errorf("picoblaze asm line %d: %w", s.line, err)
		}
		a.prog = append(a.prog, in)
		if len(a.prog) > ProgramSize {
			return fmt.Errorf("picoblaze asm: program exceeds %d words", ProgramSize)
		}
	}
	return nil
}

// opcode returns the opcode in [lo, hi] whose mnemonic is name.
func opcode(name string, lo, hi Op) (Op, bool) {
	for o := lo; o <= hi; o++ {
		if opNames[o] == name {
			return o, true
		}
	}
	return OpInvalid, false
}

func (a *assembler) encode(s stmt) (Instr, error) {
	op := strings.ToUpper(s.fields[0])
	switch {
	case op == "ENABLE INTERRUPT":
		return Instr{Op: OpEnableInt}, nil
	case op == "DISABLE INTERRUPT":
		return Instr{Op: OpDisableInt}, nil
	case strings.HasPrefix(op, "RETURNI"):
		switch strings.TrimSpace(strings.TrimPrefix(op, "RETURNI")) {
		case "ENABLE":
			return Instr{Op: OpReturnI, Enable: true}, nil
		case "DISABLE":
			return Instr{Op: OpReturnI}, nil
		}
		return Instr{}, fmt.Errorf("RETURNI needs ENABLE or DISABLE")
	}

	if alu, ok := opcode(op, OpLoad, OpTest); ok {
		if len(s.fields) != 3 {
			return Instr{}, fmt.Errorf("%s needs two operands", op)
		}
		x, err := a.register(s.fields[1])
		if err != nil {
			return Instr{}, err
		}
		in := Instr{Op: alu, X: x}
		if y, err := a.register(s.fields[2]); err == nil {
			in.Y = y
			return in, nil
		}
		k, err := a.number(s.fields[2])
		if err != nil {
			return Instr{}, err
		}
		in.K = k
		in.Imm = true
		return in, nil
	}

	if sh, ok := opcode(op, OpSL0, OpRR); ok {
		if len(s.fields) != 2 {
			return Instr{}, fmt.Errorf("%s needs one register", op)
		}
		x, err := a.register(s.fields[1])
		if err != nil {
			return Instr{}, err
		}
		return Instr{Op: sh, X: x}, nil
	}

	if io, ok := opcode(op, OpInput, OpFetch); ok {
		if len(s.fields) != 3 {
			return Instr{}, fmt.Errorf("%s needs register and address", op)
		}
		x, err := a.register(s.fields[1])
		if err != nil {
			return Instr{}, err
		}
		in := Instr{Op: io, X: x}
		arg := s.fields[2]
		if strings.HasPrefix(arg, "(") && strings.HasSuffix(arg, ")") {
			y, err := a.register(strings.TrimSpace(arg[1 : len(arg)-1]))
			if err != nil {
				return Instr{}, err
			}
			in.Y = y
			return in, nil
		}
		k, err := a.number(arg)
		if err != nil {
			return Instr{}, err
		}
		in.K = k
		in.Imm = true
		return in, nil
	}

	switch op {
	case "JUMP", "CALL":
		o := OpJump
		if op == "CALL" {
			o = OpCall
		}
		cond := Always
		target := ""
		switch len(s.fields) {
		case 2:
			target = s.fields[1]
		case 3:
			c, err := condFromString(s.fields[1])
			if err != nil {
				return Instr{}, err
			}
			cond = c
			target = s.fields[2]
		default:
			return Instr{}, fmt.Errorf("%s needs a target", op)
		}
		addr, err := a.target(target)
		if err != nil {
			return Instr{}, err
		}
		return Instr{Op: o, Cond: cond, Addr: addr}, nil
	case "RETURN":
		cond := Always
		if len(s.fields) == 2 {
			c, err := condFromString(s.fields[1])
			if err != nil {
				return Instr{}, err
			}
			cond = c
		}
		return Instr{Op: OpReturn, Cond: cond}, nil
	}
	return Instr{}, fmt.Errorf("unknown mnemonic %q", s.fields[0])
}

func (a *assembler) register(tok string) (uint8, error) {
	t := strings.ToUpper(strings.TrimSpace(tok))
	if len(t) == 2 && t[0] == 'S' {
		if v, err := strconv.ParseUint(t[1:], 16, 8); err == nil && v < NumRegisters {
			return uint8(v), nil
		}
	}
	return 0, fmt.Errorf("not a register: %q", tok)
}

func (a *assembler) number(tok string) (uint8, error) {
	t := strings.ToUpper(strings.TrimSpace(tok))
	if v, ok := a.consts[t]; ok {
		return v, nil
	}
	if strings.HasPrefix(t, "#") {
		v, err := strconv.ParseUint(t[1:], 10, 8)
		if err != nil {
			return 0, fmt.Errorf("bad decimal constant %q", tok)
		}
		return uint8(v), nil
	}
	t = strings.TrimPrefix(t, "0X")
	v, err := strconv.ParseUint(t, 16, 8)
	if err != nil {
		return 0, fmt.Errorf("bad constant %q", tok)
	}
	return uint8(v), nil
}

func (a *assembler) target(tok string) (uint16, error) {
	t := strings.ToUpper(strings.TrimSpace(tok))
	if addr, ok := a.labels[t]; ok {
		return addr, nil
	}
	v, err := strconv.ParseUint(strings.TrimPrefix(t, "0X"), 16, 16)
	if err != nil || v >= ProgramSize {
		return 0, fmt.Errorf("unknown label or bad address %q", tok)
	}
	return uint16(v), nil
}

func condFromString(tok string) (Cond, error) {
	switch strings.ToUpper(strings.TrimSpace(tok)) {
	case "Z":
		return IfZ, nil
	case "NZ":
		return IfNZ, nil
	case "C":
		return IfC, nil
	case "NC":
		return IfNC, nil
	}
	return Always, fmt.Errorf("bad condition %q", tok)
}

package bytecode

// Decode decodes the instruction starting at unit index pc of insns and
// returns it together with its width in units. Switch instructions have
// their payload tables resolved and inlined into the returned Inst, whose
// operand slices are freshly allocated and owned by the caller.
func Decode(insns []uint16, pc int) (Inst, int, error) {
	var in Inst
	w, err := decodeInto(insns, pc, &in, nil)
	if err != nil {
		return Inst{}, 0, err
	}
	return in, w, nil
}

// operandBufs holds reusable backing arrays for the operand slices of a
// decoded instruction (see Walker).
type operandBufs struct {
	args          []int
	keys, targets []int32
}

// sized returns s resliced to n elements, allocating a new array when s is
// nil or too small. Contents are not preserved.
func sized[T int | int32](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// decodeInto is the one instruction decoder: it overwrites *in with the
// instruction at pc and returns its width. Operand slices (Args, Keys,
// Targets) are carved from bufs, which keeps the grown arrays for the next
// call; a nil bufs allocates fresh ones.
func decodeInto(insns []uint16, pc int, in *Inst, bufs *operandBufs) (int, error) {
	if pc < 0 || pc >= len(insns) {
		return 0, &DecodeError{PC: pc, Reason: "pc out of bounds"}
	}
	unit := insns[pc]
	op := Opcode(unit & 0xff)
	hi := int32(unit >> 8)
	info := opcodeTable[op]
	if info.name == "" {
		return 0, &DecodeError{PC: pc, Reason: "unknown opcode " + op.String()}
	}
	w := info.format.Width()
	if pc+w > len(insns) {
		return 0, &DecodeError{PC: pc, Reason: "truncated instruction"}
	}
	if bufs == nil {
		bufs = &operandBufs{}
	}
	*in = Inst{Op: op}
	switch info.format {
	case Fmt10x:
		// Reject accidental decodes of payload data: payload idents share
		// the nop low byte.
		if op == OpNop && (unit == PackedSwitchPayloadIdent || unit == SparseSwitchPayloadIdent) {
			return 0, &DecodeError{PC: pc, Reason: "pc points into switch payload"}
		}
	case Fmt12x:
		in.A = hi & 0xf
		in.B = hi >> 4
	case Fmt11n:
		in.A = hi & 0xf
		in.Lit = int64(int8(hi>>4<<4) >> 4) // sign-extend 4-bit nibble
	case Fmt11x:
		in.A = hi
	case Fmt10t:
		in.Off = int32(int8(hi))
	case Fmt20t:
		in.Off = int32(int16(insns[pc+1]))
	case Fmt22x:
		in.A = hi
		in.B = int32(insns[pc+1])
	case Fmt21t:
		in.A = hi
		in.Off = int32(int16(insns[pc+1]))
	case Fmt21s:
		in.A = hi
		in.Lit = int64(int16(insns[pc+1]))
	case Fmt21h:
		in.A = hi
		in.Lit = int64(int16(insns[pc+1])) << 16
	case Fmt21c:
		in.A = hi
		in.Index = uint32(insns[pc+1])
	case Fmt23x:
		in.A = hi
		in.B = int32(insns[pc+1] & 0xff)
		in.C = int32(insns[pc+1] >> 8)
	case Fmt22b:
		in.A = hi
		in.B = int32(insns[pc+1] & 0xff)
		in.Lit = int64(int8(insns[pc+1] >> 8))
	case Fmt22t:
		in.A = hi & 0xf
		in.B = hi >> 4
		in.Off = int32(int16(insns[pc+1]))
	case Fmt22s:
		in.A = hi & 0xf
		in.B = hi >> 4
		in.Lit = int64(int16(insns[pc+1]))
	case Fmt22c:
		in.A = hi & 0xf
		in.B = hi >> 4
		in.Index = uint32(insns[pc+1])
	case Fmt30t:
		in.Off = int32(uint32(insns[pc+1]) | uint32(insns[pc+2])<<16)
	case Fmt31i:
		in.Lit = int64(int32(uint32(insns[pc+1]) | uint32(insns[pc+2])<<16))
		in.A = hi
	case Fmt31t:
		in.A = hi
		in.Off = int32(uint32(insns[pc+1]) | uint32(insns[pc+2])<<16)
		if err := decodeSwitchPayload(insns, pc, in, bufs); err != nil {
			return 0, err
		}
	case Fmt35c:
		count := hi >> 4
		g := int(hi & 0xf)
		in.Index = uint32(insns[pc+1])
		regs := insns[pc+2]
		if count > 5 {
			return 0, &DecodeError{PC: pc, Reason: "invoke arg count > 5"}
		}
		bufs.args = sized(bufs.args, 5)
		all := bufs.args
		all[0], all[1], all[2], all[3], all[4] =
			int(regs&0xf), int(regs>>4&0xf), int(regs>>8&0xf), int(regs>>12&0xf), g
		in.Args = all[:count]
		in.A = count
	case Fmt3rc:
		count := int(hi)
		in.Index = uint32(insns[pc+1])
		start := int(insns[pc+2])
		bufs.args = sized(bufs.args, count)
		in.Args = bufs.args
		for i := range in.Args {
			in.Args[i] = start + i
		}
		in.A = int32(count)
	default:
		return 0, &DecodeError{PC: pc, Reason: "unhandled format"}
	}
	return w, nil
}

func decodeSwitchPayload(insns []uint16, pc int, in *Inst, bufs *operandBufs) error {
	ppc := pc + int(in.Off)
	if ppc < 0 || ppc+2 > len(insns) {
		return &DecodeError{PC: pc, Reason: "switch payload offset out of bounds"}
	}
	switch in.Op {
	case OpPackedSwitch:
		if insns[ppc] != PackedSwitchPayloadIdent {
			return &DecodeError{PC: pc, Reason: "bad packed-switch payload ident"}
		}
		size := int(insns[ppc+1])
		if ppc+4+2*size > len(insns) {
			return &DecodeError{PC: pc, Reason: "truncated packed-switch payload"}
		}
		firstKey := int32(uint32(insns[ppc+2]) | uint32(insns[ppc+3])<<16)
		bufs.keys, bufs.targets = sized(bufs.keys, size), sized(bufs.targets, size)
		in.Keys, in.Targets = bufs.keys, bufs.targets
		for i := 0; i < size; i++ {
			in.Keys[i] = firstKey + int32(i)
			in.Targets[i] = int32(uint32(insns[ppc+4+2*i]) | uint32(insns[ppc+5+2*i])<<16)
		}
	case OpSparseSwitch:
		if insns[ppc] != SparseSwitchPayloadIdent {
			return &DecodeError{PC: pc, Reason: "bad sparse-switch payload ident"}
		}
		size := int(insns[ppc+1])
		if ppc+2+4*size > len(insns) {
			return &DecodeError{PC: pc, Reason: "truncated sparse-switch payload"}
		}
		bufs.keys, bufs.targets = sized(bufs.keys, size), sized(bufs.targets, size)
		in.Keys, in.Targets = bufs.keys, bufs.targets
		for i := 0; i < size; i++ {
			in.Keys[i] = int32(uint32(insns[ppc+2+2*i]) | uint32(insns[ppc+3+2*i])<<16)
		}
		base := ppc + 2 + 2*size
		for i := 0; i < size; i++ {
			in.Targets[i] = int32(uint32(insns[base+2*i]) | uint32(insns[base+1+2*i])<<16)
		}
	}
	return nil
}

// Walker decodes a method body front to back, skipping switch payload
// regions, without allocating once its operand buffers have grown to the
// body's largest invoke and switch. The zero value walks an empty body.
//
//	var w Walker
//	w.Reset(insns)
//	for w.Next() {
//		use(w.PC(), w.Inst())
//	}
//	if err := w.Err(); err != nil { ... }
type Walker struct {
	insns []uint16
	pc    int // start of the current instruction
	next  int // start of the unit after it
	width int
	in    Inst
	bufs  operandBufs
	err   error
}

// Reset starts a walk over insns, keeping the grown operand buffers.
func (w *Walker) Reset(insns []uint16) {
	w.insns, w.pc, w.next, w.width, w.err = insns, 0, 0, 0, nil
}

// Next advances to the next instruction and reports whether there is one.
// It returns false at the end of the body and at the first instruction
// that does not decode (see Err).
func (w *Walker) Next() bool {
	if w.err != nil {
		return false
	}
	for w.next < len(w.insns) {
		if pw, ok := PayloadAt(w.insns, w.next); ok {
			w.next += pw
			continue
		}
		width, err := decodeInto(w.insns, w.next, &w.in, &w.bufs)
		if err != nil {
			w.err = err
			return false
		}
		w.pc, w.width = w.next, width
		w.next += width
		return true
	}
	return false
}

// PC returns the dex_pc of the current instruction.
func (w *Walker) PC() int { return w.pc }

// Width returns the width in units of the current instruction.
func (w *Walker) Width() int { return w.width }

// Inst returns the current instruction. It and its operand slices are
// owned by the walker and valid only until the next call to Next; Clone to
// keep them.
func (w *Walker) Inst() *Inst { return &w.in }

// Err returns the decode error that ended the walk, or nil.
func (w *Walker) Err() error { return w.err }

package dex

import (
	"fmt"

	"dexlego/internal/bytecode"
)

// VerifyError reports a structural defect found by Verify.
type VerifyError struct {
	Where  string
	Reason string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("dex: verify %s: %s", e.Where, e.Reason)
}

// Verify performs the structural checks a loader relies on, beyond what
// Write validates: canonical table ordering, class-definition topology,
// and per-method bytecode sanity (decodability, register bounds, branch
// and switch targets landing on instruction starts, try ranges and handler
// addresses within the body). It returns every defect found.
func Verify(f *File) []error {
	var errs []error
	report := func(where, format string, args ...any) {
		errs = append(errs, &VerifyError{Where: where, Reason: fmt.Sprintf(format, args...)})
	}

	if err := f.validate(); err != nil {
		report("tables", "%v", err)
	}
	for i := 1; i < len(f.Strings); i++ {
		if f.Strings[i-1] >= f.Strings[i] {
			report("string_ids", "not sorted/unique at %d", i)
			break
		}
	}
	for i := 1; i < len(f.Types); i++ {
		if f.Types[i-1] >= f.Types[i] {
			report("type_ids", "not sorted/unique at %d", i)
			break
		}
	}

	// Superclasses defined in this file must precede their subclasses.
	pos := make(map[uint32]int, len(f.Classes))
	for i := range f.Classes {
		if prev, dup := pos[f.Classes[i].Class]; dup {
			report("class_defs", "class %s defined at %d and %d",
				f.TypeName(f.Classes[i].Class), prev, i)
		}
		pos[f.Classes[i].Class] = i
	}
	for i := range f.Classes {
		cd := &f.Classes[i]
		if cd.Superclass == NoIndex {
			continue
		}
		if j, ok := pos[cd.Superclass]; ok && j > i {
			report("class_defs", "class %s precedes its superclass %s",
				f.TypeName(cd.Class), f.TypeName(cd.Superclass))
		}
	}

	v := codeVerifier{f: f, report: report, limits: [...]int{
		bytecode.IndexString: len(f.Strings),
		bytecode.IndexType:   len(f.Types),
		bytecode.IndexField:  len(f.Fields),
		bytecode.IndexMethod: len(f.Methods),
	}}
	maxUnits := 0
	v.eachCode(func(em *EncodedMethod) { maxUnits = max(maxUnits, len(em.Code.Insns)) })
	v.starts = make([]uint64, (maxUnits+63)/64)
	v.eachCode(v.verify)
	return errs
}

// eachCode calls fn for every method with code, in class order.
func (v *codeVerifier) eachCode(fn func(em *EncodedMethod)) {
	for ci := range v.f.Classes {
		cd := &v.f.Classes[ci]
		for _, list := range [2][]EncodedMethod{cd.DirectMeths, cd.VirtualMeths} {
			for mi := range list {
				if em := &list[mi]; em.Code != nil {
					fn(em)
				}
			}
		}
	}
}

// codeVerifier checks method bodies. Its walker and instruction-start
// bitset (sized once for the largest body) are reused from one body to the
// next, so the number of allocations of a verify does not grow with the
// size of the code.
type codeVerifier struct {
	f      *File
	report func(where, format string, args ...any)
	limits [bytecode.IndexMethod + 1]int // pool size per index kind
	w      bytecode.Walker
	starts []uint64 // bit pc set when an instruction starts at pc
	em     *EncodedMethod
	where  string // em's key, computed on its first defect
}

func (v *codeVerifier) fail(format string, args ...any) {
	if v.where == "" {
		v.where = v.f.MethodAt(v.em.Method).Key()
	}
	v.report(v.where, format, args...)
}

// isStart reports whether an instruction starts at pc.
func (v *codeVerifier) isStart(pc int) bool {
	return pc >= 0 && pc < 64*len(v.starts) && v.starts[pc/64]&(1<<(pc%64)) != 0
}

func (v *codeVerifier) verify(em *EncodedMethod) {
	v.em, v.where = em, ""
	code := em.Code
	insns := code.Insns

	// First walk: instruction starts, and the last op that is not a nop
	// (trailing alignment nops before switch payloads are unreachable
	// padding; a body of nops reports nop).
	v.starts = v.starts[:(len(insns)+63)/64]
	clear(v.starts)
	n, last := 0, bytecode.OpNop
	for v.w.Reset(insns); v.w.Next(); n++ {
		pc := v.w.PC()
		v.starts[pc/64] |= 1 << (pc % 64)
		if op := v.w.Inst().Op; op != bytecode.OpNop {
			last = op
		}
	}
	if err := v.w.Err(); err != nil {
		v.fail("undecodable body: %v", err)
		return
	}
	if n == 0 {
		v.fail("empty instruction array")
		return
	}
	if int(code.InsSize) > int(code.RegistersSize) {
		v.fail("ins %d exceed registers %d", code.InsSize, code.RegistersSize)
	}
	if !last.IsTerminator() && !last.IsSwitch() && !last.IsBranch() {
		v.fail("control can fall off the end (last op %s)", last)
	}

	// Second walk: per-instruction checks.
	for v.w.Reset(insns); v.w.Next(); {
		pc, in := v.w.PC(), v.w.Inst()
		if maxReg := bytecode.MaxRegister(*in); maxReg >= int32(code.RegistersSize) {
			v.fail("pc %#x: register v%d exceeds registers_size %d",
				pc, maxReg, code.RegistersSize)
		}
		switch {
		case in.Op.IsGoto(), in.Op.IsBranch():
			v.checkTarget(pc, in.Op, in.Off)
		case in.Op.IsSwitch():
			for _, off := range in.Targets {
				v.checkTarget(pc, in.Op, off)
			}
		}
		if kind := in.Op.Index(); kind != bytecode.IndexNone && int(in.Index) >= v.limits[kind] {
			v.fail("pc %#x: %s index %d out of range", pc, in.Op, in.Index)
		}
	}
	for ti, tr := range code.Tries {
		if int(tr.Start)+int(tr.Count) > len(insns) {
			v.fail("try %d: range [%d,%d) exceeds body %d",
				ti, tr.Start, tr.Start+tr.Count, len(insns))
		}
		for _, h := range tr.Handlers {
			if !v.isStart(int(h.Addr)) {
				v.fail("try %d: handler %#x not an instruction start", ti, h.Addr)
			}
			if int(h.Type) >= len(v.f.Types) {
				v.fail("try %d: handler type %d out of range", ti, h.Type)
			}
		}
		if tr.CatchAll >= 0 && !v.isStart(int(tr.CatchAll)) {
			v.fail("try %d: catch-all %#x not an instruction start", ti, tr.CatchAll)
		}
	}
}

// checkTarget reports a branch from pc by off that does not land on an
// instruction start.
func (v *codeVerifier) checkTarget(pc int, op bytecode.Opcode, off int32) {
	if target := pc + int(off); !v.isStart(target) {
		v.fail("pc %#x: %s targets %#x, not an instruction start", pc, op, target)
	}
}

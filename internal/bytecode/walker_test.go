package bytecode

import "testing"

// TestWalkerZeroAlloc: once its operand buffers have grown, a walk over a
// body with both invoke formats and both switch kinds allocates nothing.
func TestWalkerZeroAlloc(t *testing.T) {
	var a Assembler
	a.Invoke(OpInvokeStatic, 1, 0, 1, 2)
	a.InvokeRange(OpInvokeStaticR, 1, 3, 6)
	a.PackedSwitch(0, 10, []string{"a", "b", "c"})
	a.SparseSwitch(0, []int32{-5, 7, 99, 1000}, []string{"a", "b", "c", "d"})
	a.Label("a").Nop()
	a.Label("b").Nop()
	a.Label("c").Nop()
	a.Label("d").ReturnVoid()
	insns, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	var w Walker
	walk := func() {
		n := 0
		for w.Reset(insns); w.Next(); n++ {
		}
		if w.Err() != nil || n != 8 {
			t.Fatalf("walked %d instructions, err %v; want 8, nil", n, w.Err())
		}
	}
	walk() // grow the operand buffers
	if allocs := testing.AllocsPerRun(100, walk); allocs != 0 {
		t.Errorf("steady-state walk allocates %.1f times, want 0", allocs)
	}
}

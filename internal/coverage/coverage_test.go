package coverage_test

import (
	"testing"

	"dexlego/internal/art"
	"dexlego/internal/bytecode"
	"dexlego/internal/coverage"
	"dexlego/internal/dex"
	"dexlego/internal/dexgen"
)

func buildCovApp(t *testing.T) (*dex.File, *art.Runtime) {
	t.Helper()
	p := dexgen.New()
	cls := p.Class("Lcov/C;", "")
	cls.Static("f", "I", []string{"I"}, func(a *dexgen.Asm) {
		a.Label("ts")
		a.IfZ(bytecode.OpIfLtz, a.P(0), "neg")
		a.Const(0, 1)
		a.Label("te")
		a.Return(0)
		a.Label("neg")
		a.Const(0, -1)
		a.Return(0)
		a.Label("h")
		a.MoveException(1)
		a.Const(0, 9)
		a.Return(0)
		a.Catch("ts", "te", "Ljava/lang/ArithmeticException;", "h")
	})
	cls.Static("unused", "V", nil, func(a *dexgen.Asm) {
		a.Nop()
		a.ReturnVoid()
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rt := art.NewRuntime(art.DefaultPhone())
	if _, err := rt.LoadDex(f); err != nil {
		t.Fatal(err)
	}
	return f, rt
}

func TestTrackerAccumulation(t *testing.T) {
	f, rt := buildCovApp(t)
	tracker, err := coverage.NewTracker([]*dex.File{f})
	if err != nil {
		t.Fatal(err)
	}
	rt.AddHooks(tracker.Hooks())

	rep := tracker.Report()
	if rep.Method.Total != 2 || rep.Branch.Total != 2 {
		t.Fatalf("totals = %+v", rep)
	}
	if len(tracker.UncoveredBranches()) != 2 {
		t.Errorf("fresh tracker UCBs = %d, want 2", len(tracker.UncoveredBranches()))
	}
	if len(tracker.UncoveredHandlers()) != 1 {
		t.Errorf("fresh tracker handlers = %d, want 1", len(tracker.UncoveredHandlers()))
	}

	if _, err := rt.Call("Lcov/C;", "f", "(I)I", nil, []art.Value{art.IntVal(5)}); err != nil {
		t.Fatal(err)
	}
	rep = tracker.Report()
	if rep.Method.Covered != 1 {
		t.Errorf("methods covered = %d", rep.Method.Covered)
	}
	if rep.Branch.Covered != 1 {
		t.Errorf("branch edges covered = %d, want 1 (only not-taken)", rep.Branch.Covered)
	}
	// The other edge covers after a negative input; accumulation must
	// persist across runtimes.
	rt2 := art.NewRuntime(art.DefaultPhone())
	rt2.AddHooks(tracker.Hooks())
	if _, err := rt2.LoadDex(f); err != nil {
		t.Fatal(err)
	}
	if _, err := rt2.Call("Lcov/C;", "f", "(I)I", nil, []art.Value{art.IntVal(-5)}); err != nil {
		t.Fatal(err)
	}
	rep = tracker.Report()
	if rep.Branch.Covered != 2 {
		t.Errorf("branch edges covered = %d, want 2", rep.Branch.Covered)
	}
	if got := len(tracker.UncoveredBranches()); got != 0 {
		t.Errorf("UCBs after both edges = %d", got)
	}
	// The handler never executed.
	if got := len(tracker.UncoveredHandlers()); got != 1 {
		t.Errorf("uncovered handlers = %d, want 1", got)
	}
	// unused() never ran.
	if rep.Method.Covered != 1 || rep.Class.Covered != 1 {
		t.Errorf("coverage over-counts: %+v", rep)
	}
}

func TestRatioFormatting(t *testing.T) {
	r := coverage.Ratio{Covered: 3, Total: 12}
	if r.Percent() != 25 {
		t.Errorf("percent = %f", r.Percent())
	}
	if r.String() != "3/12 (25%)" {
		t.Errorf("string = %q", r.String())
	}
	if (coverage.Ratio{}).Percent() != 0 {
		t.Error("zero-total percent must be 0")
	}
}

func TestShardMerge(t *testing.T) {
	f, _ := buildCovApp(t)
	tracker, err := coverage.NewTracker([]*dex.File{f})
	if err != nil {
		t.Fatal(err)
	}

	// Two shards observe disjoint edges; the parent tracker sees nothing
	// until the barrier merge.
	run := func(shard *coverage.Tracker, arg int64) {
		rt := art.NewRuntime(art.DefaultPhone())
		rt.AddHooks(shard.Hooks())
		if _, err := rt.LoadDex(f); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Call("Lcov/C;", "f", "(I)I", nil, []art.Value{art.IntVal(arg)}); err != nil {
			t.Fatal(err)
		}
	}
	s1, s2 := tracker.Shard(), tracker.Shard()
	run(s1, 5)
	run(s2, -5)

	if got := tracker.Report().Branch.Covered; got != 0 {
		t.Fatalf("parent saw shard coverage before merge: %d edges", got)
	}
	if s1.Report().Branch.Covered != 1 || s2.Report().Branch.Covered != 1 {
		t.Fatalf("shard reports wrong: %+v / %+v", s1.Report(), s2.Report())
	}
	// Shards share totals by reference, not copy.
	if s1.Report().Branch.Total != tracker.Report().Branch.Total {
		t.Error("shard totals diverge from parent")
	}

	tracker.Merge(s1)
	tracker.Merge(s2)
	tracker.Merge(nil) // no-op
	rep := tracker.Report()
	if rep.Branch.Covered != 2 || rep.Method.Covered != 1 || rep.Class.Covered != 1 {
		t.Errorf("merged coverage = %+v", rep)
	}
	if got := len(tracker.UncoveredBranches()); got != 0 {
		t.Errorf("UCBs after merge = %d", got)
	}

	// Merge is idempotent and order-insensitive: merging again or in the
	// other order into a fresh shard changes nothing.
	tracker2 := tracker.Shard()
	tracker2.Merge(s2)
	tracker2.Merge(s1)
	tracker2.Merge(s1)
	if tracker2.Report() != rep {
		t.Errorf("merge order changed report: %+v vs %+v", tracker2.Report(), rep)
	}
}

func TestMergeForeignTrackerPanics(t *testing.T) {
	f, _ := buildCovApp(t)
	a, err := coverage.NewTracker([]*dex.File{f})
	if err != nil {
		t.Fatal(err)
	}
	b, err := coverage.NewTracker([]*dex.File{f})
	if err != nil {
		t.Fatal(err)
	}
	a.Merge(nil)       // no-op
	a.Merge(a.Shard()) // same statics
	a.Shard().Merge(a) // a shard may absorb its parent too
	defer func() {
		if recover() == nil {
			t.Fatal("Merge of a tracker from another NewTracker did not panic")
		}
	}()
	a.Merge(b) // same app, different statics: never OR misaligned bitsets
}

// TestHandlerSiteOrder pins the total order of handler sites sharing one
// handler pc: a multi-catch, a second try range and a catch-all.
func TestHandlerSiteOrder(t *testing.T) {
	p := dexgen.New()
	p.Class("Lcov/H;", "").Static("g", "I", []string{"I"}, func(a *dexgen.Asm) {
		a.Label("t1")
		a.Const(0, 1)
		a.Label("t2")
		a.Const(0, 2)
		a.Label("end")
		a.Return(0)
		a.Label("h")
		a.MoveException(1)
		a.Const(0, 9)
		a.Return(0)
		a.Catch("t2", "end", "", "h")
		a.Catch("t2", "end", "Ljava/lang/NullPointerException;", "h")
		a.Catch("t1", "t2", "Ljava/lang/NullPointerException;", "h")
		a.Catch("t1", "t2", "Ljava/lang/ArithmeticException;", "h")
	})
	f, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	const key = "Lcov/H;->g(I)I"
	want := []coverage.HandlerSite{
		{Method: key, TryStart: 0, HandlerPC: 3, Type: "Ljava/lang/ArithmeticException;"},
		{Method: key, TryStart: 0, HandlerPC: 3, Type: "Ljava/lang/NullPointerException;"},
		{Method: key, TryStart: 1, HandlerPC: 3, Type: "Ljava/lang/NullPointerException;"},
		{Method: key, TryStart: 1, HandlerPC: 3, Type: "Ljava/lang/RuntimeException;"},
	}
	for i := 0; i < 20; i++ {
		tracker, err := coverage.NewTracker([]*dex.File{f})
		if err != nil {
			t.Fatal(err)
		}
		got := tracker.UncoveredHandlers()
		if len(got) != len(want) {
			t.Fatalf("handler sites = %+v, want %+v", got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("tracker %d: site %d = %+v, want %+v", i, j, got[j], want[j])
			}
		}
	}
}

// TestDuplicateMethodKeys: a method key defined by two DEX files counts the
// union of both bodies' pcs, once.
func TestDuplicateMethodKeys(t *testing.T) {
	build := func(body func(a *dexgen.Asm)) *dex.File {
		p := dexgen.New()
		p.Class("Ldup/C;", "").Static("f", "I", []string{"I"}, body)
		f, err := p.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	short := build(func(a *dexgen.Asm) {
		a.IfZ(bytecode.OpIfLtz, a.P(0), "neg")
		a.Return(a.P(0))
		a.Label("neg")
		a.Const(0, -1)
		a.Return(0)
	})
	long := build(func(a *dexgen.Asm) {
		a.Const(0, 1000000) // a wide const shifts every later pc
		a.IfZ(bytecode.OpIfEqz, a.P(0), "zero")
		for i := 0; i < 40; i++ {
			a.Binop(bytecode.OpAddInt, 0, 0, a.P(0))
		}
		a.Return(0)
		a.Label("zero")
		a.Return(a.P(0))
	})
	insns, lines, branches := map[int]bool{}, map[int]bool{}, map[int]bool{}
	for _, f := range []*dex.File{short, long} {
		prog := bytecode.Predecode(f.Classes[0].DirectMeths[0].Code.Insns)
		if err := prog.Err(); err != nil {
			t.Fatal(err)
		}
		placed := prog.Insts()
		for _, p := range placed {
			insns[int(p.PC)] = true
			lines[int(p.PC)/4] = true
			if p.Inst.Op.IsBranch() {
				branches[int(p.PC)] = true
			}
		}
	}
	if len(branches) != 2 {
		t.Fatalf("bodies share a branch pc; the union test needs two: %v", branches)
	}
	tracker, err := coverage.NewTracker([]*dex.File{short, long})
	if err != nil {
		t.Fatal(err)
	}
	rep := tracker.Report()
	want := coverage.Report{
		Class:       coverage.Ratio{Total: 1},
		Method:      coverage.Ratio{Total: 1},
		Line:        coverage.Ratio{Total: len(lines)},
		Branch:      coverage.Ratio{Total: 2 * len(branches)},
		Instruction: coverage.Ratio{Total: len(insns)},
	}
	if rep != want {
		t.Fatalf("totals = %+v, want the union %+v", rep, want)
	}
	if got := len(tracker.UncoveredBranches()); got != 4 {
		t.Errorf("UCBs = %d, want 4", got)
	}

	// Running the long body covers its pcs within the one shared slot.
	rt := art.NewRuntime(art.DefaultPhone())
	rt.AddHooks(tracker.Hooks())
	if _, err := rt.LoadDex(long); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Call("Ldup/C;", "f", "(I)I", nil, []art.Value{art.IntVal(3)}); err != nil {
		t.Fatal(err)
	}
	rep = tracker.Report()
	if rep.Method.Covered != 1 || rep.Class.Covered != 1 || rep.Branch.Covered != 1 || rep.Instruction.Covered != 43 {
		t.Errorf("after one run: %+v", rep)
	}
}

// TestCoverageHookZeroAlloc: the steady-state coverage hooks allocate
// nothing, including when control switches between methods.
func TestCoverageHookZeroAlloc(t *testing.T) {
	f, rt := buildCovApp(t)
	tracker, err := coverage.NewTracker([]*dex.File{f})
	if err != nil {
		t.Fatal(err)
	}
	cls, err := rt.FindClass("Lcov/C;")
	if err != nil {
		t.Fatal(err)
	}
	fm, unused := cls.FindMethod("f", "(I)I"), cls.FindMethod("unused", "()V")
	if fm == nil || unused == nil {
		t.Fatal("methods not found")
	}
	h := tracker.Hooks()
	in := bytecode.Inst{Op: bytecode.OpIfLtz}
	step := func() {
		h.Instruction(fm, 0, fm.Insns, nil)
		h.Branch(fm, 0, in, false)
		h.Branch(fm, 0, in, true)
		h.Instruction(fm, 2, fm.Insns, nil)
		h.Instruction(unused, 0, unused.Insns, nil)
	}
	step() // resolve and cache each method's key
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("coverage hooks allocate %.1f times per step, want 0", allocs)
	}
	if rep := tracker.Report(); rep.Method.Covered != 2 || rep.Branch.Covered != 2 {
		t.Errorf("hooks did not record: %+v", rep)
	}
}

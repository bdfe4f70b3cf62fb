package collector_test

import (
	"testing"

	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/bytecode"
	"dexlego/internal/collector"
	"dexlego/internal/dexgen"
	"dexlego/internal/droidbench"
)

// hookEvent is one recorded Instruction hook invocation.
type hookEvent struct {
	pc    int
	insns []uint16
	in    bytecode.Inst
}

// recordedExecution is one execution of a method, captured from the
// runtime's hooks so a test can replay it against a collector directly.
type recordedExecution struct {
	m      *art.Method
	events []hookEvent
}

// replay feeds the execution to col's hooks exactly as the runtime did.
func (r *recordedExecution) replay(col *collector.Collector) {
	h := col.Hooks()
	h.MethodEntered(r.m)
	for i := range r.events {
		h.Instruction(r.m, r.events[i].pc, r.events[i].insns, &r.events[i].in)
	}
	h.MethodExited(r.m)
}

const dupKey = "Lz/Z;->work(I)I"

// dupProgram's work method resolves a string, a field and a method operand
// and loops, so one execution touches every interned-symbol kind and
// deduplicates within the tree.
func dupProgram() *dexgen.Program {
	p := dexgen.New()
	p.Class("Lz/Z;", "").StaticInt("count", 0).
		Static("tick", "V", nil, func(a *dexgen.Asm) {
			a.ReturnVoid()
		}).
		Static("work", "I", []string{"I"}, func(a *dexgen.Asm) {
			a.ConstString(0, "tag")
			a.SGetInt(1, "Lz/Z;", "count")
			a.Const(2, 0)
			a.Label("loop")
			a.If(bytecode.OpIfGe, 2, a.P(0), "done")
			a.Binop(bytecode.OpAddInt, 1, 1, 2)
			a.AddLit(2, 2, 1)
			a.Goto("loop")
			a.Label("done")
			a.SPutInt(1, "Lz/Z;", "count")
			a.InvokeStatic("Lz/Z;", "tick", "()V")
			a.Return(1)
		})
	return p
}

// collectDup runs work once under col and records that execution.
func collectDup(t *testing.T, col *collector.Collector) *recordedExecution {
	t.Helper()
	data, err := dupProgram().Bytes()
	if err != nil {
		t.Fatal(err)
	}
	pkg := apk.New("dup", "1", "")
	pkg.SetDex(data)
	rt := art.NewRuntime(art.DefaultPhone())
	rec := &recordedExecution{}
	rt.AddHooks(&art.Hooks{
		Instruction: func(m *art.Method, pc int, insns []uint16, in *bytecode.Inst) {
			if m.Key() != dupKey {
				return
			}
			rec.m = m
			cp := *in
			cp.Args = append([]int(nil), in.Args...)
			rec.events = append(rec.events, hookEvent{pc: pc, insns: insns, in: cp})
		},
	})
	rt.AddHooks(col.Hooks())
	if err := rt.LoadAPK(pkg); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Call("Lz/Z;", "work", "(I)I", nil, []art.Value{art.IntVal(4)}); err != nil {
		t.Fatal(err)
	}
	if rec.m == nil {
		t.Fatal("work was never executed")
	}
	return rec
}

// TestCollectorDuplicateExecutionZeroAlloc: once warm, re-executing a
// method whose tree the collector already holds — or whose tree its base
// holds — allocates nothing: the frame and nodes are recycled, the record
// comes from the per-method cache, symbols are interned, and the
// fingerprint is looked up from scratch space.
func TestCollectorDuplicateExecutionZeroAlloc(t *testing.T) {
	t.Run("own", func(t *testing.T) {
		col := collector.New()
		exec := collectDup(t, col)
		exec.replay(col)
		if got := len(col.Result().Methods[dupKey].Trees); got != 1 {
			t.Fatalf("replayed execution yields %d trees, want 1 (a duplicate)", got)
		}
		if allocs := testing.AllocsPerRun(50, func() { exec.replay(col) }); allocs != 0 {
			t.Errorf("duplicate execution allocates %.1f times, want 0", allocs)
		}
	})
	t.Run("base", func(t *testing.T) {
		base := collector.New()
		exec := collectDup(t, base)
		shard := collector.New()
		shard.SetBase(base.Result())
		exec.replay(shard)
		if got := shard.BaseHits(); got != 1 {
			t.Fatalf("base hits = %d, want 1", got)
		}
		if rec := shard.Result().Methods[dupKey]; rec == nil || len(rec.Trees) != 0 {
			t.Fatalf("shard kept a tree its base already holds: %+v", rec)
		}
		if allocs := testing.AllocsPerRun(50, func() { exec.replay(shard) }); allocs != 0 {
			t.Errorf("execution duplicating a base tree allocates %.1f times, want 0", allocs)
		}
		if got := shard.BaseHits(); got != 1 {
			t.Errorf("repeats of one base tree counted %d times, want once", got)
		}
	})
}

// TestSourceDedupKeepsMergeStats: a shard deduplicating against its base
// at method exit merges into the same result, with the same offered and
// kept counts once its base hits are added back, as a shard that
// collected every tree and left the dedup to Merge.
func TestSourceDedupKeepsMergeStats(t *testing.T) {
	for _, name := range []string{"SelfModifying1", "SelfModifying2"} {
		t.Run(name, func(t *testing.T) {
			s := droidbench.ByName(name)
			pkg, err := s.Build()
			if err != nil {
				t.Fatal(err)
			}
			baseline := func() *collector.Result {
				col := collector.New()
				collectRun(t, s, pkg, col, 0)
				return col.Result()
			}
			plainBase, dedupBase := baseline(), baseline()
			plain, dedup := collector.New(), collector.New()
			dedup.SetBase(dedupBase)
			for run := 0; run < 4; run++ {
				collectRun(t, s, pkg, plain, run)
				collectRun(t, s, pkg, dedup, run)
			}
			if dedup.BaseHits() == 0 {
				t.Fatal("no tree was dropped at the source; the test exercises nothing")
			}
			want := plainBase.Merge(plain.Result())
			got := dedupBase.Merge(dedup.Result())
			got.TreesOffered += dedup.BaseHits()
			if got != want {
				t.Errorf("merge stats with source dedup %+v, without %+v", got, want)
			}
			if canonicalJSON(t, dedupBase) != canonicalJSON(t, plainBase) {
				t.Error("source dedup changed the merged result")
			}
		})
	}
}

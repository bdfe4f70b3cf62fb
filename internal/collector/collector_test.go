package collector_test

import (
	"testing"

	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/bytecode"
	"dexlego/internal/collector"
	"dexlego/internal/dexgen"
)

// buildAndCollect loads the program, runs drive, and returns the result.
func buildAndCollect(t *testing.T, p *dexgen.Program, natives map[string]art.NativeFunc, drive func(rt *art.Runtime)) *collector.Result {
	t.Helper()
	data, err := p.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	pkg := apk.New("col", "1", "")
	pkg.SetDex(data)
	rt := art.NewRuntime(art.DefaultPhone())
	for k, fn := range natives {
		rt.RegisterNative(k, fn)
	}
	col := collector.New()
	rt.AddHooks(col.Hooks())
	if err := rt.LoadAPK(pkg); err != nil {
		t.Fatal(err)
	}
	drive(rt)
	return col.Result()
}

func TestLoopDeduplication(t *testing.T) {
	p := dexgen.New()
	p.Class("Lc/L;", "").Static("sum", "I", []string{"I"}, func(a *dexgen.Asm) {
		a.Const(0, 0)
		a.Const(1, 0)
		a.Label("loop")
		a.If(bytecode.OpIfGe, 1, a.P(0), "done")
		a.Binop(bytecode.OpAddInt, 0, 0, 1)
		a.AddLit(1, 1, 1)
		a.Goto("loop")
		a.Label("done")
		a.Return(0)
	})
	res := buildAndCollect(t, p, nil, func(rt *art.Runtime) {
		// 1000 loop iterations execute ~4000 instructions; the tree must
		// stay at the static body size (the paper's code-scale argument).
		if _, err := rt.Call("Lc/L;", "sum", "(I)I", nil, []art.Value{art.IntVal(1000)}); err != nil {
			t.Fatal(err)
		}
	})
	rec := res.Methods["Lc/L;->sum(I)I"]
	if rec == nil || len(rec.Trees) != 1 {
		t.Fatalf("rec = %+v", rec)
	}
	tree := rec.Trees[0]
	if got := tree.Size(); got != 7 {
		t.Errorf("tree size = %d, want 7 (one IL entry per static instruction)", got)
	}
	if len(tree.Children) != 0 {
		t.Errorf("loop created %d divergence children", len(tree.Children))
	}
	if tree.Depth() != 1 {
		t.Errorf("depth = %d", tree.Depth())
	}
	// IL order is first-execution order, and the IIM inverts it.
	for i, e := range tree.IL {
		if idx, ok := tree.Index(e.DexPC); !ok || idx != i {
			t.Errorf("Index(%d) = %d, %t; want %d", e.DexPC, idx, ok, i)
		}
	}
}

// TestNestedSelfModification drives two LAYERS of self-modifying code: the
// tamper rewrites an instruction, and while the divergent state runs, a
// second tamper rewrites another instruction inside it — the "multiple
// layers" case of the paper's Fig. 3 (node 2's children 4 and 5).
func TestNestedSelfModification(t *testing.T) {
	p := dexgen.New()
	cls := p.Class("Ln/M;", "")
	cls.Native("mutate", "V", "I")
	// g(): two mutation points A (pc of const v0) and B (const v1); driver
	// calls g() three times with the native rewriting constants so that the
	// second call diverges at A and, within that layer, the third call
	// diverges at B.
	cls.Static("g", "I", nil, func(a *dexgen.Asm) {
		a.Label("A")
		a.Const(0, 1)
		a.Label("B")
		a.Const(1, 1)
		a.Binop(bytecode.OpAddInt, 2, 0, 1)
		a.Return(2)
	})
	mutateAt := func(env *art.Env, which int64, newLit int64) error {
		return env.TamperMethod("Ln/M;", "g", func(insns []uint16) []uint16 {
			// const/4 v0 is at pc 0; const/4 v1 at pc 1.
			pc := int(which)
			in, _, err := bytecode.Decode(insns, pc)
			if err != nil || in.Op != bytecode.OpConst4 {
				t.Fatalf("mutation point %d is %v (%v)", pc, in.Op, err)
			}
			in.Lit = newLit
			units, err := bytecode.Encode(in)
			if err != nil {
				t.Fatal(err)
			}
			copy(insns[pc:], units)
			return nil
		})
	}
	natives := map[string]art.NativeFunc{
		"Ln/M;->mutate(I)V": func(env *art.Env, recv *art.Object, args []art.Value) (art.Value, error) {
			switch args[0].Int {
			case 0:
				return art.Value{}, mutateAt(env, 0, 3) // layer 1 at pc 0
			case 1:
				return art.Value{}, mutateAt(env, 1, 5) // layer 2 at pc 1
			}
			return art.Value{}, nil
		},
	}
	res := buildAndCollect(t, p, natives, func(rt *art.Runtime) {
		call := func(want int64) {
			r, err := rt.Call("Ln/M;", "g", "()I", nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.Int != want {
				t.Fatalf("g() = %d, want %d", r.Int, want)
			}
		}
		mutate := func(which int64) {
			if _, err := rt.Call("Ln/M;", "mutate", "(I)V", nil,
				[]art.Value{art.IntVal(which)}); err != nil {
				t.Fatal(err)
			}
		}
		call(2)   // baseline: 1+1
		mutate(0) // layer 1: v0 becomes 3
		call(4)   // 3+1
		mutate(1) // layer 2: v1 becomes 5 while layer 1 active
		call(8)   // 3+5
	})
	rec := res.Methods["Ln/M;->g()I"]
	if rec == nil {
		t.Fatal("record missing")
	}
	// Three executions: baseline (tree 1), layer1 (tree 2 = divergence at
	// pc 0 within the execution? No: each execution is a fresh tree; the
	// modified code is simply different content), so we get three unique
	// trees whose contents differ at the mutation points.
	if len(rec.Trees) != 3 {
		t.Fatalf("unique trees = %d, want 3", len(rec.Trees))
	}
}

// TestIntraExecutionDivergenceLayers rewrites the method WHILE it executes
// (through a looped native call). Each loop pass that observes different
// bytecode at the recorded dex_pc forks a divergence child; once the layer
// converges back to the parent, a later mismatch forks a sibling — the
// shape Algorithm 1 produces for repeated same-site modification.
func TestIntraExecutionDivergenceLayers(t *testing.T) {
	p := dexgen.New()
	cls := p.Class("Lx/M;", "")
	cls.Native("step", "V", "I")
	// Loop three times; each iteration executes the mutation site then lets
	// the native rewrite it for the next pass: iteration 2 diverges from
	// iteration 1's recording, iteration 3 diverges from iteration 2's.
	cls.Static("h", "I", nil, func(a *dexgen.Asm) {
		a.Const(3, 0) // i
		a.Const(2, 0) // acc
		a.Label("loop")
		a.Const(4, 3)
		a.If(bytecode.OpIfGe, 3, 4, "end")
		a.Label("site")
		a.BinopLit8(bytecode.OpAddIntLit8, 2, 2, 1) // mutated between passes
		a.InvokeStatic("Lx/M;", "step", "(I)V", 3)
		a.AddLit(3, 3, 1)
		a.Goto("loop")
		a.Label("end")
		a.Return(2)
	})
	natives := map[string]art.NativeFunc{
		"Lx/M;->step(I)V": func(env *art.Env, recv *art.Object, args []art.Value) (art.Value, error) {
			iter := args[0].Int
			return art.Value{}, env.TamperMethod("Lx/M;", "h", func(insns []uint16) []uint16 {
				for pc := 0; pc < len(insns); {
					in, w, err := bytecode.Decode(insns, pc)
					if err != nil {
						return nil
					}
					if in.Op == bytecode.OpAddIntLit8 && in.A == 2 && in.B == 2 {
						in.Lit = iter + 2 // 1 -> 2 -> 3 across iterations
						units, err := bytecode.Encode(in)
						if err != nil {
							return nil
						}
						copy(insns[pc:], units)
						return nil
					}
					pc += w
				}
				return nil
			})
		},
	}
	res := buildAndCollect(t, p, natives, func(rt *art.Runtime) {
		r, err := rt.Call("Lx/M;", "h", "()I", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Int != 1+2+3 {
			t.Fatalf("h() = %d, want 6", r.Int)
		}
	})
	rec := res.Methods["Lx/M;->h()I"]
	if rec == nil || len(rec.Trees) != 1 {
		t.Fatalf("trees = %+v", rec)
	}
	tree := rec.Trees[0]
	if tree.Depth() != 2 {
		t.Errorf("divergence depth = %d, want 2", tree.Depth())
	}
	if len(tree.Children) != 2 {
		t.Fatalf("tree children = %d, want 2 (one per modified pass)", len(tree.Children))
	}
	for i, child := range tree.Children {
		if child.SmStart != tree.Children[0].SmStart {
			t.Errorf("children diverge at different pcs")
		}
		if child.SmEnd < 0 {
			t.Errorf("child %d never converged", i)
		}
		if len(child.IL) != 1 {
			t.Errorf("child %d IL = %d entries, want 1 (the rewritten site)", i, len(child.IL))
		}
	}
}

func TestClassMetadataCollection(t *testing.T) {
	p := dexgen.New()
	iface := p.Class("Lc/I;", "")
	iface.AbstractM("doIt", "V", nil)
	cls := p.Class("Lc/C;", "", "Lc/I;")
	cls.Source("C.java")
	cls.StaticString("NAME", "benchmark")
	cls.StaticInt("SIZE", 7)
	cls.Field("count", "I")
	cls.Ctor("Ljava/lang/Object;", nil)
	cls.Virtual("doIt", "V", nil, func(a *dexgen.Asm) { a.ReturnVoid() })
	res := buildAndCollect(t, p, nil, func(rt *art.Runtime) {
		c, err := rt.FindClass("Lc/C;")
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.EnsureInitialized(c); err != nil {
			t.Fatal(err)
		}
	})
	rec := res.Class("Lc/C;")
	if rec == nil {
		t.Fatal("class record missing")
	}
	if rec.SourceFile != "C.java" {
		t.Errorf("source = %q", rec.SourceFile)
	}
	if len(rec.Interfaces) != 1 || rec.Interfaces[0] != "Lc/I;" {
		t.Errorf("interfaces = %v", rec.Interfaces)
	}
	var sawName, sawSize bool
	for _, f := range rec.StaticFields {
		switch f.Name {
		case "NAME":
			sawName = f.Value != nil && f.Value.Kind == "string" && f.Value.Str == "benchmark"
		case "SIZE":
			sawSize = f.Value != nil && f.Value.Int == 7
		}
	}
	if !sawName || !sawSize {
		t.Errorf("static values not collected: %+v", rec.StaticFields)
	}
	if len(rec.InstanceFields) != 1 || rec.InstanceFields[0].Name != "count" {
		t.Errorf("instance fields = %+v", rec.InstanceFields)
	}
	var shellNames []string
	for _, sh := range rec.Methods {
		shellNames = append(shellNames, sh.Name)
	}
	if len(shellNames) != 2 {
		t.Errorf("method shells = %v", shellNames)
	}
	// The interface referenced by the class must be recorded too, or the
	// revealed DEX could not re-link.
	if res.Class("Lc/I;") == nil {
		t.Error("interface metadata not recorded")
	}
}

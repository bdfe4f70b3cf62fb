package collector_test

import (
	"testing"

	"dexlego/internal/collector"
	"dexlego/internal/droidbench"
)

// checkIndex asserts that a tree's IIM agrees with its IL in every node,
// and that parent links are in place.
func checkIndex(t *testing.T, key string, n, parent *collector.TreeNode) {
	t.Helper()
	if n.Parent != parent {
		t.Errorf("%s: node at smStart %d has the wrong parent", key, n.SmStart)
	}
	for i, e := range n.IL {
		if idx, ok := n.Index(e.DexPC); !ok || idx != i {
			t.Errorf("%s: Index(%d) = %d, %t; want %d", key, e.DexPC, idx, ok, i)
		}
	}
	for _, c := range n.Children {
		checkIndex(t, key, c, n)
	}
}

// selfModResult collects several runs of a self-modifying sample, so the
// result holds multi-tree methods and divergence children.
func selfModResult(t *testing.T) *collector.Result {
	t.Helper()
	s := droidbench.ByName("SelfModifying2")
	pkg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	col := collector.New()
	for run := 0; run < 3; run++ {
		collectRun(t, s, pkg, col, run)
	}
	return col.Result()
}

// compareTrees asserts that got carries the same trees as want, by
// fingerprint and in order, with a consistent IIM.
func compareTrees(t *testing.T, key string, want, got *collector.MethodRecord) {
	t.Helper()
	if len(got.Trees) != len(want.Trees) {
		t.Fatalf("%s: %d trees after round trip, want %d", key, len(got.Trees), len(want.Trees))
	}
	for i := range want.Trees {
		if got.Trees[i].Fingerprint() != want.Trees[i].Fingerprint() {
			t.Errorf("%s: tree %d fingerprint changed in the round trip", key, i)
		}
		checkIndex(t, key, got.Trees[i], nil)
	}
}

// TestCollectionFilesRoundTrip writes the five collection files and reads
// them back: every tree keeps its fingerprint, and the rebuilt IIM agrees
// with the IL, although the files no longer carry it.
func TestCollectionFilesRoundTrip(t *testing.T) {
	res := selfModResult(t)
	forked := false
	for _, rec := range res.Methods {
		for _, tr := range rec.Trees {
			forked = forked || len(tr.Children) > 0
		}
	}
	if !forked {
		t.Fatal("sample collected no divergence children; the round trip would not cover them")
	}
	dir := t.TempDir()
	if err := res.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	back, err := collector.ReadFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	for key, rec := range res.Methods {
		got := back.Methods[key]
		if got == nil {
			t.Fatalf("%s missing after ReadFiles", key)
		}
		compareTrees(t, key, rec, got)
	}
}

// TestMethodRecordRoundTrip is the method-cache leg of the same check.
func TestMethodRecordRoundTrip(t *testing.T) {
	for key, rec := range selfModResult(t).Methods {
		data, err := collector.EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := collector.DecodeRecord(data)
		if err != nil {
			t.Fatal(err)
		}
		compareTrees(t, key, rec, got)
	}
}

// legacyRecord is a method-cache record as encoded while trees still
// serialized their IIM ("iim"); the method loops over its last five
// instructions, so the IIM is not in IL order.
const legacyRecord = `{"class":"Lc/L;","name":"sum","signature":"(I)I","accessFlags":9,"virtual":false,"registersSize":9,"insSize":1,"trees":[{"il":[{"pc":0,"inst":{"Op":26,"A":2,"B":0,"C":0,"Index":4,"Lit":0,"Off":0,"Args":null,"Keys":null,"Targets":null},"sym":{"kind":1,"str":"n","field":{"Class":"","Name":"","Type":""},"method":{"Class":"","Name":"","Signature":""}}},{"pc":2,"inst":{"Op":18,"A":0,"B":0,"C":0,"Index":0,"Lit":0,"Off":0,"Args":null,"Keys":null,"Targets":null}},{"pc":3,"inst":{"Op":18,"A":1,"B":0,"C":0,"Index":0,"Lit":0,"Off":0,"Args":null,"Keys":null,"Targets":null}},{"pc":4,"inst":{"Op":53,"A":1,"B":8,"C":0,"Index":0,"Lit":0,"Off":8,"Args":null,"Keys":null,"Targets":null}},{"pc":6,"inst":{"Op":144,"A":0,"B":0,"C":1,"Index":0,"Lit":0,"Off":0,"Args":null,"Keys":null,"Targets":null}},{"pc":8,"inst":{"Op":216,"A":1,"B":1,"C":0,"Index":0,"Lit":1,"Off":0,"Args":null,"Keys":null,"Targets":null}},{"pc":10,"inst":{"Op":41,"A":0,"B":0,"C":0,"Index":0,"Lit":0,"Off":-6,"Args":null,"Keys":null,"Targets":null}},{"pc":12,"inst":{"Op":15,"A":0,"B":0,"C":0,"Index":0,"Lit":0,"Off":0,"Args":null,"Keys":null,"Targets":null}}],"iim":{"0":0,"10":6,"12":7,"2":1,"3":2,"4":3,"6":4,"8":5},"smStart":-1,"smEnd":-1}]}`

// TestDecodeRecordReadsLegacyIIM decodes a record that still carries "iim":
// the object is ignored, the index is rebuilt from the IL, and re-encoding
// and decoding the record yields the same tree.
func TestDecodeRecordReadsLegacyIIM(t *testing.T) {
	old, err := collector.DecodeRecord([]byte(legacyRecord))
	if err != nil {
		t.Fatal(err)
	}
	if len(old.Trees) != 1 || len(old.Trees[0].IL) != 8 {
		t.Fatalf("legacy record decoded to %d trees", len(old.Trees))
	}
	checkIndex(t, old.Key(), old.Trees[0], nil)
	for pc, want := range map[int]int{0: 0, 2: 1, 3: 2, 4: 3, 6: 4, 8: 5, 10: 6, 12: 7} {
		if idx, ok := old.Trees[0].Index(pc); !ok || idx != want {
			t.Errorf("Index(%d) = %d, %t; want %d as the legacy iim says", pc, idx, ok, want)
		}
	}
	for _, pc := range []int{-1, 1, 5, 13, 100} {
		if _, ok := old.Trees[0].Index(pc); ok {
			t.Errorf("Index(%d) found an entry no instruction was collected at", pc)
		}
	}
	data, err := collector.EncodeRecord(old)
	if err != nil {
		t.Fatal(err)
	}
	again, err := collector.DecodeRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	compareTrees(t, old.Key(), old, again)
}

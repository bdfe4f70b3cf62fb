// Package coverage implements the JaCoCo stand-in: an instrumentation-based
// coverage tracker reporting the five granularities of the paper's
// Table VII — class, method, line, branch and instruction coverage. Line
// information is synthesized deterministically from instruction positions
// (our DEX files carry no debug info).
//
// State is dense: each method owns a word-aligned slot, indexed by dex_pc, in
// flat bitsets. The layout and totals are shared read-only by a tracker and
// its shards; covered state is three bitsets (instructions, taken and
// fall-through edges) that Merge ORs and Report derives every ratio from.
package coverage

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"dexlego/internal/art"
	"dexlego/internal/bytecode"
	"dexlego/internal/dex"
)

// Ratio is covered/total for one granularity.
type Ratio struct {
	Covered int
	Total   int
}

// Percent returns the percentage (0 when the total is zero).
func (r Ratio) Percent() float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * float64(r.Covered) / float64(r.Total)
}

func (r Ratio) String() string {
	return fmt.Sprintf("%d/%d (%.0f%%)", r.Covered, r.Total, r.Percent())
}

// Report is a coverage snapshot across all granularities.
type Report struct {
	Class       Ratio
	Method      Ratio
	Line        Ratio
	Branch      Ratio
	Instruction Ratio
}

// HandlerSite identifies one try/catch edge: throwing anywhere inside the
// try range transfers control to HandlerPC.
type HandlerSite struct {
	Method    string
	TryStart  int
	HandlerPC int
	Type      string // exception descriptor; catch-all sites use RuntimeException
}

// UCB identifies one uncovered conditional-branch edge.
type UCB struct {
	Method string
	PC     int
	Taken  bool
}

// bitset is a flat bitset; a method's slot starts on a word boundary.
type bitset []uint64

func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }

// count returns the set bits and the synthetic lines holding one: four
// code units form a line, and word-aligned slots keep lines per method.
func (b bitset) count() (set, lines int) {
	for _, w := range b {
		set += bits.OnesCount64(w)
		w |= w >> 1
		w |= w >> 2
		lines += bits.OnesCount64(w & 0x1111111111111111)
	}
	return set, lines
}

// statics is the read-only layout a tracker and its shards share: method i
// owns words off[i]:off[i+1] of every bitset. A key defined by several DEX
// files gets one slot, as wide as its longest body, holding all their pcs.
type statics struct {
	keys     []string      // sorted method keys
	off      []int         // len(keys)+1 word offsets
	class    []int         // method → class index
	classes  int           // distinct class descriptors
	insns    bitset        // instruction starts
	branches bitset        // conditional-branch pcs
	handlers []HandlerSite // sorted by (Method, HandlerPC, TryStart, Type), deduplicated

	totalInsns, totalLines, totalBranches int
}

// span returns the first bit and the width of key's slot (0 outside totals).
func (s *statics) span(key string) (base, width int) {
	if i, ok := slices.BinarySearch(s.keys, key); ok {
		return 64 * s.off[i], 64 * (s.off[i+1] - s.off[i])
	}
	return 0, 0
}

// Tracker accumulates coverage across any number of runs (its hooks can be
// attached to several runtimes in turn).
type Tracker struct {
	s     *statics
	insns bitset // executed instruction starts
	taken bitset // branch pcs whose taken edge was observed
	fall  bitset // branch pcs whose fall-through edge was observed
	hooks *art.Hooks
}

// NewTracker computes static totals from the application's DEX files.
func NewTracker(files []*dex.File) (*Tracker, error) {
	type method struct {
		class string
		units int        // code units of the longest body
		codes [][]uint16 // every body defined under the key
	}
	methods := make(map[string]*method)
	classIdx := make(map[string]int)
	s := &statics{}
	for _, f := range files {
		for ci := range f.Classes {
			cd := &f.Classes[ci]
			desc := f.TypeName(cd.Class)
			if _, ok := classIdx[desc]; !ok {
				classIdx[desc] = len(classIdx)
			}
			for _, em := range slices.Concat(cd.DirectMeths, cd.VirtualMeths) {
				key := f.MethodAt(em.Method).Key()
				m := methods[key]
				if m == nil {
					m = &method{}
					methods[key] = m
					s.keys = append(s.keys, key)
				}
				m.class = desc
				if em.Code == nil {
					continue
				}
				m.units = max(m.units, len(em.Code.Insns))
				m.codes = append(m.codes, em.Code.Insns)
				for _, tr := range em.Code.Tries {
					for _, h := range tr.Handlers {
						s.handlers = append(s.handlers, HandlerSite{key, int(tr.Start), int(h.Addr), f.TypeName(h.Type)})
					}
					if tr.CatchAll >= 0 {
						s.handlers = append(s.handlers, HandlerSite{key, int(tr.Start), int(tr.CatchAll), "Ljava/lang/RuntimeException;"})
					}
				}
			}
		}
	}
	slices.Sort(s.keys)
	s.classes = len(classIdx)
	s.off = make([]int, len(s.keys)+1)
	s.class = make([]int, len(s.keys))
	var w bytecode.Walker
	for i, key := range s.keys {
		m := methods[key]
		words := (m.units + 63) / 64
		s.off[i+1] = s.off[i] + words
		s.class[i] = classIdx[m.class]
		s.insns = append(s.insns, make(bitset, words)...)
		s.branches = append(s.branches, make(bitset, words)...)
		base := 64 * s.off[i]
		for _, code := range m.codes {
			for w.Reset(code); w.Next(); {
				s.insns.set(base + w.PC())
				if w.Inst().Op.IsBranch() {
					s.branches.set(base + w.PC())
				}
			}
			if err := w.Err(); err != nil {
				return nil, fmt.Errorf("coverage: %s: %w", key, err)
			}
		}
	}
	s.totalInsns, s.totalLines = s.insns.count()
	s.totalBranches, _ = s.branches.count()
	// A total order: sites sharing a handler pc (multi-catch, typed plus
	// catch-all, several try ranges) must not come out in a random order.
	slices.SortFunc(s.handlers, func(a, b HandlerSite) int {
		return cmp.Or(strings.Compare(a.Method, b.Method), cmp.Compare(a.HandlerPC, b.HandlerPC),
			cmp.Compare(a.TryStart, b.TryStart), strings.Compare(a.Type, b.Type))
	})
	s.handlers = slices.Compact(s.handlers)
	return newTracker(s), nil
}

// newTracker allocates empty covered bitsets over s and the hooks that set them.
func newTracker(s *statics) *Tracker {
	n := len(s.insns)
	t := &Tracker{s: s, insns: make(bitset, n), taken: make(bitset, n), fall: make(bitset, n)}
	// A one-entry cache resolves the key only when control moves to another
	// method; no memo beyond that, as a tracker outlives its runtimes.
	var last *art.Method
	base, width := 0, 0
	bitOf := func(m *art.Method, pc int) int {
		if m != last {
			last = m
			base, width = s.span(m.Key())
		}
		if uint(pc) >= uint(width) {
			return -1 // dynamically loaded or modified code outside the totals
		}
		return base + pc
	}
	t.hooks = &art.Hooks{
		Instruction: func(m *art.Method, pc int, insns []uint16, in *bytecode.Inst) {
			if b := bitOf(m, pc); b >= 0 && s.insns.has(b) {
				t.insns.set(b)
			}
		},
		Branch: func(m *art.Method, pc int, in bytecode.Inst, taken bool) (bool, bool) {
			if b := bitOf(m, pc); b >= 0 && s.branches.has(b) {
				edges := t.fall
				if taken {
					edges = t.taken
				}
				edges.set(b)
			}
			return false, false
		},
	}
	return t
}

// Shard returns a tracker that shares t's statics but owns fresh covered
// bitsets and hooks, so one forced run can record coverage on its own
// goroutine without synchronizing with other runs. Fold it back with Merge.
func (t *Tracker) Shard() *Tracker { return newTracker(t.s) }

// Merge ORs other's covered bitsets into t: commutative, associative and
// idempotent, so the result is independent of shard order and count. other
// must share t's statics; a tracker from another NewTracker panics.
func (t *Tracker) Merge(other *Tracker) {
	if other == nil {
		return
	}
	if other.s != t.s {
		panic("coverage: Merge of a tracker built by a different NewTracker; merge only Shards of the same tracker")
	}
	for i := range t.insns {
		t.insns[i] |= other.insns[i]
		t.taken[i] |= other.taken[i]
		t.fall[i] |= other.fall[i]
	}
}

// Hooks returns the instrumentation to attach to a runtime.
func (t *Tracker) Hooks() *art.Hooks { return t.hooks }

// Report returns the current coverage snapshot. A method is covered when any
// of its instructions executed, a class when any of its methods is covered.
func (t *Tracker) Report() Report {
	s := t.s
	methods, seen := 0, make(bitset, (s.classes+63)/64)
	for i := range s.keys {
		if n, _ := t.insns[s.off[i]:s.off[i+1]].count(); n > 0 {
			methods++
			seen.set(s.class[i])
		}
	}
	classes, _ := seen.count()
	insns, lines := t.insns.count()
	taken, _ := t.taken.count()
	fall, _ := t.fall.count()
	return Report{
		Class:       Ratio{classes, s.classes},
		Method:      Ratio{methods, len(s.keys)},
		Line:        Ratio{lines, s.totalLines},
		Branch:      Ratio{taken + fall, 2 * s.totalBranches},
		Instruction: Ratio{insns, s.totalInsns},
	}
}

// UncoveredBranches returns the conditional-branch edges that have not been
// observed: the paper's UCB set, ordered by method key, then dex_pc, with
// the fall-through edge before the taken one.
func (t *Tracker) UncoveredBranches() []UCB {
	s := t.s
	var out []UCB
	for i, key := range s.keys {
		for w := s.off[i]; w < s.off[i+1]; w++ {
			for br := s.branches[w]; br != 0; br &= br - 1 {
				b := 64*w + bits.TrailingZeros64(br)
				if !t.fall.has(b) {
					out = append(out, UCB{key, b - 64*s.off[i], false})
				}
				if !t.taken.has(b) {
					out = append(out, UCB{key, b - 64*s.off[i], true})
				}
			}
		}
	}
	return out
}

// UncoveredHandlers returns the try/catch edges whose handler entry never
// executed, ordered by (Method, HandlerPC, TryStart, Type). Force execution
// injects the matching exception inside their try ranges.
func (t *Tracker) UncoveredHandlers() []HandlerSite {
	var out []HandlerSite
	for _, site := range t.s.handlers {
		base, width := t.s.span(site.Method)
		if uint(site.HandlerPC) >= uint(width) || !t.insns.has(base+site.HandlerPC) {
			out = append(out, site)
		}
	}
	return out
}

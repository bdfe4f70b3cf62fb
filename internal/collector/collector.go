// Package collector implements DexLego's just-in-time collection: the
// instruction-level tracing of Algorithm 1 with the paper's collection-tree
// model (Fig. 3), plus DEX metadata collection at class initialization.
//
// A Collector attaches to the runtime through art.Hooks. Per execution of a
// method it maintains a tree of TreeNodes; re-executing the same instruction
// at the same dex_pc is deduplicated through the node's Instruction Index
// Map, a *different* instruction at a recorded dex_pc forks a child node (a
// layer of self-modifying code), and re-encountering a parent instruction
// converges back. Constant-pool operands are resolved to symbolic form at
// collection time so the offline reassembler is independent of the original
// DEX's index space.
package collector

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"

	"dexlego/internal/art"
	"dexlego/internal/bytecode"
	"dexlego/internal/dex"
	"dexlego/internal/obs"
)

// Symbol is a constant-pool operand resolved at collection time.
type Symbol struct {
	Kind   bytecode.IndexKind `json:"kind"`
	Str    string             `json:"str,omitempty"`
	Type   string             `json:"type,omitempty"`
	Field  dex.FieldRef       `json:"field,omitempty"`
	Method dex.MethodRef      `json:"method,omitempty"`
}

// Entry is one collected instruction: its dex_pc, the decoded instruction,
// and its resolved constant-pool operand (if any).
type Entry struct {
	DexPC int           `json:"pc"`
	Inst  bytecode.Inst `json:"inst"`
	Sym   *Symbol       `json:"sym,omitempty"`
}

// TreeNode is a node of the collection tree (Fig. 3): the Instruction List
// (IL) in first-execution order, the Instruction Index Map (IIM) from
// dex_pc to IL index, the divergence bounds, and child links.
//
// The IIM is the dense pcIdx array: dex_pcs are small code-unit offsets,
// so an array lookup replaces a map hash, both on the per-instruction
// collection path and in the reassembler. Published trees keep the array
// they were collected with; it is not serialized, because the IL
// determines it, and decoders rebuild it. Index and Append are the only
// accessors, so the index stays in step with the IL.
type TreeNode struct {
	IL       []Entry     `json:"il"`
	SmStart  int         `json:"smStart"` // divergence dex_pc; -1 for the root
	SmEnd    int         `json:"smEnd"`   // convergence dex_pc; -1 if none
	Children []*TreeNode `json:"children,omitempty"`
	Parent   *TreeNode   `json:"-"`

	// pcIdx[pc] is the IL index of the entry collected at dex_pc pc, or -1.
	pcIdx []int32
	// fp caches the canonical fingerprint of a published tree: set once
	// when the collector publishes the tree or a decoder reads it, and
	// cleared by Append. Empty means "compute on demand".
	fp string
}

func newNode(parent *TreeNode, smStart int) *TreeNode {
	return &TreeNode{
		SmStart: smStart,
		SmEnd:   -1,
		Parent:  parent,
	}
}

// Index looks up the IIM: the IL index of the entry at dex_pc pc, if one
// was collected in this node.
func (n *TreeNode) Index(pc int) (int, bool) {
	if pc < 0 || pc >= len(n.pcIdx) || n.pcIdx[pc] < 0 {
		return 0, false
	}
	return int(n.pcIdx[pc]), true
}

// Append records an instruction in the node (Algorithm 1 lines 29-31),
// keeping the IIM in step. Within a node each dex_pc appears at most once:
// callers check Index first, and a re-executed pc either deduplicates or
// forks a child.
func (n *TreeNode) Append(e Entry) {
	if e.DexPC >= len(n.pcIdx) {
		size := e.DexPC + 1
		if size > cap(n.pcIdx) {
			// Double, so a node filled front to back reallocates O(log n) times.
			size = max(size, 2*cap(n.pcIdx))
		}
		n.growIndex(size)
	}
	n.pcIdx[e.DexPC] = int32(len(n.IL))
	n.IL = append(n.IL, e)
	n.fp = ""
}

// growIndex extends pcIdx to size slots, filling new ones with -1.
// Recycled nodes keep their backing array.
func (n *TreeNode) growIndex(size int) {
	old := len(n.pcIdx)
	if cap(n.pcIdx) >= size {
		n.pcIdx = n.pcIdx[:size]
	} else {
		grown := make([]int32, size)
		copy(grown, n.pcIdx)
		n.pcIdx = grown
	}
	for i := old; i < size; i++ {
		n.pcIdx[i] = -1
	}
}

// reindex rebuilds the IIM of a decoded subtree from its IL and restores
// the parent links JSON does not carry.
func reindex(n, parent *TreeNode) error {
	n.Parent = parent
	size := 0
	for i := range n.IL {
		pc := n.IL[i].DexPC
		if pc < 0 {
			return fmt.Errorf("collector: decoded tree entry at negative dex_pc %d", pc)
		}
		size = max(size, pc+1)
	}
	n.pcIdx = n.pcIdx[:0]
	n.growIndex(size)
	for i := range n.IL {
		n.pcIdx[n.IL[i].DexPC] = int32(i)
	}
	for _, c := range n.Children {
		if err := reindex(c, n); err != nil {
			return err
		}
	}
	return nil
}

// Size returns the total number of instructions in the subtree.
func (n *TreeNode) Size() int {
	total := len(n.IL)
	for _, c := range n.Children {
		total += c.Size()
	}
	return total
}

// Depth returns the number of self-modification layers below this node.
func (n *TreeNode) Depth() int {
	max := 0
	for _, c := range n.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// fingerprint canonically identifies a tree's contents for deduplication.
// The encoding is an unambiguous length-prefixed binary form: it exists only
// as a map key, so it is built by appending into a reusable buffer instead
// of formatting — the fingerprint of every discarded duplicate tree then
// costs zero allocations (see methodExited).
func (n *TreeNode) fingerprint(buf []byte) []byte {
	buf = append(buf, 'N')
	buf = appendVarint(buf, int64(n.SmStart))
	buf = appendVarint(buf, int64(n.SmEnd))
	buf = appendVarint(buf, int64(len(n.IL)))
	for i := range n.IL {
		e := &n.IL[i]
		buf = appendVarint(buf, int64(e.DexPC))
		buf = append(buf, byte(e.Inst.Op))
		buf = appendVarint(buf, int64(e.Inst.A))
		buf = appendVarint(buf, int64(e.Inst.B))
		buf = appendVarint(buf, int64(e.Inst.C))
		buf = appendVarint(buf, e.Inst.Lit)
		buf = appendVarint(buf, int64(e.Inst.Off))
		buf = appendVarint(buf, int64(len(e.Inst.Args)))
		for _, a := range e.Inst.Args {
			buf = appendVarint(buf, int64(a))
		}
		buf = appendSym(buf, e.Sym)
	}
	kids := n.Children
	if len(kids) > 1 {
		// Child order is execution order; identity must not depend on it.
		kids = append([]*TreeNode(nil), kids...)
		sort.Slice(kids, func(i, j int) bool { return kids[i].SmStart < kids[j].SmStart })
	}
	for _, c := range kids {
		buf = c.fingerprint(buf)
	}
	return buf
}

func appendVarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

func appendStr(buf []byte, s string) []byte {
	buf = appendVarint(buf, int64(len(s)))
	return append(buf, s...)
}

func appendSym(buf []byte, s *Symbol) []byte {
	if s == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1+byte(s.Kind))
	switch s.Kind {
	case bytecode.IndexString:
		buf = appendStr(buf, s.Str)
	case bytecode.IndexType:
		buf = appendStr(buf, s.Type)
	case bytecode.IndexField:
		buf = appendStr(buf, s.Field.Class)
		buf = appendStr(buf, s.Field.Name)
		buf = appendStr(buf, s.Field.Type)
	case bytecode.IndexMethod:
		buf = appendStr(buf, s.Method.Class)
		buf = appendStr(buf, s.Method.Name)
		buf = appendStr(buf, s.Method.Signature)
	}
	return buf
}

// Fingerprint returns the canonical identity of the tree. Published and
// decoded trees return the value cached when they were published or read.
func (n *TreeNode) Fingerprint() string {
	if n.fp != "" {
		return n.fp
	}
	return string(n.fingerprint(nil))
}

// MethodRecord aggregates everything collected about one method.
type MethodRecord struct {
	Class         string `json:"class"`
	Name          string `json:"name"`
	Signature     string `json:"signature"`
	AccessFlags   uint32 `json:"accessFlags"`
	Virtual       bool   `json:"virtual"`
	RegistersSize int    `json:"registersSize"`
	InsSize       int    `json:"insSize"`

	// Trees holds the unique collection trees, one per distinct execution.
	Trees []*TreeNode `json:"trees,omitempty"`
	// Tries is the method's try/catch table with original dex_pc anchors and
	// exception types resolved to descriptors.
	Tries []TryRecord `json:"tries,omitempty"`
	// ReflTargets maps a call-site dex_pc of Method.invoke to the resolved
	// direct-call targets observed there.
	ReflTargets map[int][]ReflTarget `json:"reflTargets,omitempty"`
	// Written records that the runtime observed a write into this method's
	// live unit array (art.Hooks.CodeWritten). A written method's trees are
	// a function of runtime state, not of its static body, so the record is
	// never admitted into the incremental method cache.
	Written bool `json:"written,omitempty"`

	// seen maps the fingerprint of each of Trees to its tree (allocated
	// with the first one).
	seen map[string]*TreeNode
}

// Key returns the canonical method key.
func (r *MethodRecord) Key() string { return r.Class + "->" + r.Name + r.Signature }

// Executed reports whether any bytecode was collected for the method.
func (r *MethodRecord) Executed() bool { return len(r.Trees) > 0 }

// Cacheable reports whether the record may be served from the incremental
// method cache: it must hold at least one tree, the method's code must
// never have been written at runtime, and no tree may carry divergence
// children (a forked tree proves self-modification even when the write
// itself was not hooked — e.g. silent slice swaps with predecode off).
func (r *MethodRecord) Cacheable() bool {
	if r.Written || len(r.Trees) == 0 {
		return false
	}
	for _, t := range r.Trees {
		if len(t.Children) > 0 {
			return false
		}
	}
	return true
}

// TryRecord is a try/catch range anchored at original dex_pcs.
type TryRecord struct {
	StartPC    int        `json:"startPC"`
	Count      int        `json:"count"`
	Handlers   []TryCatch `json:"handlers,omitempty"`
	CatchAllPC int        `json:"catchAllPC"` // -1 when absent
}

// TryCatch is one typed handler of a TryRecord.
type TryCatch struct {
	Type      string `json:"type"`
	HandlerPC int    `json:"handlerPC"`
}

// ValueRecord serializes a static field value.
type ValueRecord struct {
	Kind string `json:"kind"` // "int", "string", "null", "bool"
	Int  int64  `json:"int,omitempty"`
	Str  string `json:"str,omitempty"`
}

// FieldRecord is collected field metadata.
type FieldRecord struct {
	Name        string       `json:"name"`
	Type        string       `json:"type"`
	AccessFlags uint32       `json:"accessFlags"`
	Value       *ValueRecord `json:"value,omitempty"`
}

// MethodShell is a declared method observed at class initialization.
type MethodShell struct {
	Name        string `json:"name"`
	Signature   string `json:"signature"`
	AccessFlags uint32 `json:"accessFlags"`
	Virtual     bool   `json:"virtual"`
	Native      bool   `json:"native"`
}

// ClassRecord is collected class metadata.
type ClassRecord struct {
	Descriptor     string        `json:"descriptor"`
	Superclass     string        `json:"superclass"`
	Interfaces     []string      `json:"interfaces,omitempty"`
	SourceFile     string        `json:"sourceFile,omitempty"`
	AccessFlags    uint32        `json:"accessFlags"`
	StaticFields   []FieldRecord `json:"staticFields,omitempty"`
	InstanceFields []FieldRecord `json:"instanceFields,omitempty"`
	Methods        []MethodShell `json:"methods,omitempty"`
}

// Result is the complete collection output, the in-memory form of the
// paper's five collection files.
type Result struct {
	Classes []ClassRecord            `json:"classes"`
	Methods map[string]*MethodRecord `json:"methods"`
}

// Method returns the record for a method key, creating it if needed.
func (r *Result) method(m *art.Method) *MethodRecord {
	key := m.Key()
	if rec, ok := r.Methods[key]; ok {
		return rec
	}
	rec := &MethodRecord{
		Class:         m.Class.Descriptor,
		Name:          m.Name,
		Signature:     m.Signature,
		AccessFlags:   m.AccessFlags,
		Virtual:       m.Virtual,
		RegistersSize: m.RegistersSize,
		InsSize:       m.InsSize,
	}
	r.Methods[key] = rec
	return rec
}

// Class returns the recorded class metadata, or nil.
func (r *Result) Class(descriptor string) *ClassRecord {
	for i := range r.Classes {
		if r.Classes[i].Descriptor == descriptor {
			return &r.Classes[i]
		}
	}
	return nil
}

// ExecutedInstructionCount sums unique collected instructions over all
// methods (the paper's dump-size proxy).
func (r *Result) ExecutedInstructionCount() int {
	total := 0
	for _, rec := range r.Methods {
		for _, tr := range rec.Trees {
			total += tr.Size()
		}
	}
	return total
}

// methodExec is one in-flight execution of one method.
type methodExec struct {
	method *art.Method
	recs   methodRecs
	root   *TreeNode
	cur    *TreeNode
}

// methodRecs caches, per runtime method, its record in the collector's
// result and its record in the base result (nil when there is none).
type methodRecs struct {
	rec, base *MethodRecord
}

// symKey identifies a constant-pool operand for symbol interning.
type symKey struct {
	file  *dex.File
	kind  bytecode.IndexKind
	index uint32
}

// Collector performs JIT collection over an instrumented runtime.
//
// Ownership contract: a Collector belongs to exactly one runtime at a
// time. Its hooks mutate the collection tree and the execution stack
// without locks, so attaching the same Collector to two concurrently
// executing runtimes is a data race. Hooks are synchronous and never
// nested, which lets a cheap atomic guard enforce the contract: a hook
// entered while another is in flight panics instead of silently
// corrupting the collection result. Batch pipelines (RevealBatch)
// therefore construct one Collector per job.
type Collector struct {
	res   *Result
	stack []*methodExec
	hooks *art.Hooks
	busy  atomic.Int32
	span  *obs.Span

	// Incremental-reveal skip state (SetSkip). Skipped methods are served
	// from the method cache: they push no execution frame and collect no
	// trees, but the collector records which of them actually ran (touched)
	// so only those get their cached trees spliced, and which were written
	// at runtime (violated) so the reveal can fall back to a full run.
	skip     map[string]bool
	touched  map[string]bool
	violated map[string]bool

	// Source dedup state (SetBase): trees whose fingerprint the base
	// already holds are recycled at method exit. baseSeen holds the base
	// trees matched so far, so each counts once in merge statistics.
	base     *Result
	baseSeen map[*TreeNode]bool

	// recs caches each method's records, so hooks hash a pointer rather
	// than the method key; syms interns resolved constant-pool operands.
	recs map[*art.Method]methodRecs
	syms map[symKey]*Symbol

	// Scratch reused across hook invocations. The single-runtime ownership
	// contract above makes unsynchronized reuse safe: hooks never overlap.
	fpBuf     []byte        // fingerprint scratch (methodExited)
	freeNodes []*TreeNode   // recycled nodes of discarded duplicate trees
	freeExecs []*methodExec // recycled execution frames
}

// newNode returns a fresh or recycled tree node.
func (c *Collector) newNode(parent *TreeNode, smStart int) *TreeNode {
	if n := len(c.freeNodes); n > 0 {
		nd := c.freeNodes[n-1]
		c.freeNodes = c.freeNodes[:n-1]
		nd.SmStart = smStart
		nd.Parent = parent
		return nd
	}
	return newNode(parent, smStart)
}

// recycleTree returns a discarded (duplicate) tree's nodes to the freelist.
// Only trees that were never published into a MethodRecord may be recycled.
func (c *Collector) recycleTree(n *TreeNode) {
	for _, ch := range n.Children {
		c.recycleTree(ch)
	}
	// Reset only the pcIdx slots the IL actually touched: O(collected), not
	// O(method size).
	for i := range n.IL {
		if pc := n.IL[i].DexPC; pc < len(n.pcIdx) {
			n.pcIdx[pc] = -1
		}
	}
	n.IL = n.IL[:0]
	n.Children = n.Children[:0]
	n.SmStart = -1
	n.SmEnd = -1
	n.Parent = nil
	c.freeNodes = append(c.freeNodes, n)
}

// SetSpan attributes the collector's trace events (tree forks, convergences,
// recorded methods, guard violations) to s — typically the per-app reveal
// span. A nil span (the default) keeps the hot path at a pointer check.
func (c *Collector) SetSpan(s *obs.Span) { c.span = s }

// enter flags the collector as servicing a hook; leave clears the flag.
// Observing the flag already set means two runtimes share this collector;
// the violation is recorded in the trace before the guard panics, so trace
// files keep the context the panic destroys.
func (c *Collector) enter() {
	if !c.busy.CompareAndSwap(0, 1) {
		c.span.ConcurrentEntry("collector hook entered while another hook was in flight")
		panic("collector: concurrent use across runtimes; each Collector owns exactly one runtime")
	}
}

func (c *Collector) leave() { c.busy.Store(0) }

// New returns an empty collector.
func New() *Collector {
	c := &Collector{
		res:  &Result{Methods: make(map[string]*MethodRecord)},
		recs: make(map[*art.Method]methodRecs),
	}
	c.hooks = &art.Hooks{
		MethodEntered:       c.methodEntered,
		MethodExited:        c.methodExited,
		Instruction:         c.instruction,
		ClassInitialized:    c.classInitialized,
		ReflectiveCall:      c.reflectiveCall,
		PredecodeHit:        c.predecodeHit,
		PredecodeInvalidate: c.predecodeInvalidate,
		CodeWritten:         c.codeWritten,
	}
	return c
}

// SetSkip installs the set of method keys to serve from the incremental
// method cache. Skipped methods record touch-only: no frame, no trees.
// Must be set before the collector's runtime executes.
func (c *Collector) SetSkip(skip map[string]bool) {
	c.skip = skip
	c.touched = make(map[string]bool)
	c.violated = make(map[string]bool)
}

// SetBase installs a read-only base result: a tree whose fingerprint the
// base record of its method already holds is discarded at method exit,
// exactly like a duplicate of the collector's own trees, because merging
// into the base would drop it by the same key. The force-execution engine
// gives each forced-run shard the campaign result as its base. The caller
// must not modify base while this collector's runtime executes. Must be
// set before the runtime executes.
func (c *Collector) SetBase(base *Result) { c.base = base }

// BaseHits counts the distinct trees discarded because the base held them.
func (c *Collector) BaseHits() int { return len(c.baseSeen) }

// SkipTouched returns the skip-listed method keys that were actually
// entered during execution — the methods whose cached trees must be
// spliced into the result. Never-entered skipped methods stay absent and
// reassemble as stubs, exactly as on the full path.
func (c *Collector) SkipTouched() map[string]bool { return c.touched }

// SkipViolations returns, sorted, the skip-listed methods whose live code
// was written at runtime. A non-empty slice means the cached trees cannot
// be trusted for this run and the caller must fall back to a full reveal.
func (c *Collector) SkipViolations() []string {
	keys := make([]string, 0, len(c.violated))
	for k := range c.violated {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// AbsorbSkipState unions another collector's touched and violated sets into
// c. The force-execution engine calls it when merging worker-shard results,
// so touches observed only under forced branches still splice.
func (c *Collector) AbsorbSkipState(other *Collector) {
	if other == nil {
		return
	}
	for k := range other.touched {
		if c.touched == nil {
			c.touched = make(map[string]bool)
		}
		c.touched[k] = true
	}
	for k := range other.violated {
		if c.violated == nil {
			c.violated = make(map[string]bool)
		}
		c.violated[k] = true
	}
}

// Hooks returns the instrumentation to attach via Runtime.AddHooks.
func (c *Collector) Hooks() *art.Hooks { return c.hooks }

// Result returns the collection result accumulated so far.
func (c *Collector) Result() *Result { return c.res }

func appMethod(m *art.Method) bool { return m.Class != nil && m.Class.File != nil }

// records returns m's cached records, looking them up on first sight.
func (c *Collector) records(m *art.Method) methodRecs {
	if rs, ok := c.recs[m]; ok {
		return rs
	}
	rs := methodRecs{rec: c.res.method(m)}
	if c.base != nil {
		rs.base = c.base.Methods[m.Key()]
	}
	c.recs[m] = rs
	return rs
}

func (c *Collector) methodEntered(m *art.Method) {
	c.enter()
	defer c.leave()
	if !appMethod(m) {
		return
	}
	if c.skip != nil && c.skip[m.Key()] {
		// Served from the method cache: record the touch and push no frame.
		// The top-of-stack method guards in instruction and methodExited
		// keep nested non-skipped callees collecting correctly.
		c.touched[m.Key()] = true
		return
	}
	root := c.newNode(nil, -1)
	// Record shape on first sight; a method may be entered before its class
	// record exists (e.g. <clinit>).
	rs := c.records(m)
	var ex *methodExec
	if n := len(c.freeExecs); n > 0 {
		ex = c.freeExecs[n-1]
		c.freeExecs = c.freeExecs[:n-1]
		*ex = methodExec{method: m, recs: rs, root: root, cur: root}
	} else {
		ex = &methodExec{method: m, recs: rs, root: root, cur: root}
	}
	c.stack = append(c.stack, ex)
	rec := rs.rec
	rec.RegistersSize = m.RegistersSize
	rec.InsSize = m.InsSize
	if rec.Tries == nil && len(m.Tries) > 0 && m.Class.File != nil {
		for _, t := range m.Tries {
			tr := TryRecord{
				StartPC:    int(t.Start),
				Count:      int(t.Count),
				CatchAllPC: int(t.CatchAll),
			}
			for _, h := range t.Handlers {
				tr.Handlers = append(tr.Handlers, TryCatch{
					Type:      m.Class.File.TypeName(h.Type),
					HandlerPC: int(h.Addr),
				})
			}
			rec.Tries = append(rec.Tries, tr)
		}
	}
}

func (c *Collector) methodExited(m *art.Method) {
	c.enter()
	defer c.leave()
	if !appMethod(m) || len(c.stack) == 0 {
		return
	}
	top := c.stack[len(c.stack)-1]
	if top.method != m {
		return // unbalanced (native transitions); keep the stack sane
	}
	c.stack = c.stack[:len(c.stack)-1]
	root, rec, base := top.root, top.recs.rec, top.recs.base
	*top = methodExec{}
	c.freeExecs = append(c.freeExecs, top)
	if len(root.IL) == 0 {
		c.recycleTree(root)
		return
	}
	// Build the fingerprint in the reused scratch buffer and look it up
	// without materializing a string: duplicate executions (the steady
	// state of loops and repeated calls) then dedupe allocation-free.
	c.fpBuf = root.fingerprint(c.fpBuf[:0])
	if rec.seen[string(c.fpBuf)] != nil {
		c.recycleTree(root)
		return // keep only unique trees
	}
	if base != nil {
		if t := base.seen[string(c.fpBuf)]; t != nil {
			// The base already holds this tree, so merging would drop it.
			// Each distinct one counts once, as the merge counted it.
			if c.baseSeen == nil {
				c.baseSeen = make(map[*TreeNode]bool)
			}
			c.baseSeen[t] = true
			c.recycleTree(root)
			return
		}
	}
	root.fp = string(c.fpBuf)
	if rec.seen == nil {
		rec.seen = make(map[string]*TreeNode)
	}
	rec.seen[root.fp] = root
	rec.Trees = append(rec.Trees, root)
	if c.span.Enabled() {
		c.span.MethodCollected(rec.Key(), root.Depth(), root.Size())
	}
}

// layerDepth returns the self-modification layer of n (0 for the root).
func layerDepth(n *TreeNode) int {
	d := 0
	for k := n; k.Parent != nil; k = k.Parent {
		d++
	}
	return d
}

// instruction implements Algorithm 1 (BytecodeCollection).
func (c *Collector) instruction(m *art.Method, pc int, insns []uint16, inp *bytecode.Inst) {
	c.enter()
	defer c.leave()
	if !appMethod(m) || len(c.stack) == 0 {
		return
	}
	top := c.stack[len(c.stack)-1]
	if top.method != m {
		return
	}
	if inp == nil {
		return // malformed live code; the interpreter will surface it
	}
	// Symbol resolution is deferred past the dedup check below: the steady
	// state (loop bodies, repeated calls) re-executes recorded instructions,
	// which must not allocate.
	cur := top.cur
	if ilIdx, ok := cur.Index(pc); ok {
		if cur.IL[ilIdx].Inst.Equal(*inp) {
			return // same instruction at same dex_pc: deduplicate
		}
		// Divergence: a runtime modification happened here.
		child := c.newNode(cur, pc)
		cur.Children = append(cur.Children, child)
		top.cur = child
		c.collect(child, m, pc, insns, inp)
		if c.span.Enabled() {
			c.span.TreeFork(m.Key(), pc, layerDepth(child))
		}
		return
	}
	if cur.Parent != nil {
		if pIdx, ok := cur.Parent.Index(pc); ok && cur.Parent.IL[pIdx].Inst.Equal(*inp) {
			// Convergence: this self-modification layer ended.
			cur.SmEnd = pc
			top.cur = cur.Parent
			if c.span.Enabled() {
				c.span.TreeConverge(m.Key(), pc, layerDepth(cur))
			}
			return
		}
	}
	if cur.Parent == nil && len(cur.IL) == 0 && cap(cur.IL) < len(insns)/2+1 {
		// A fresh root, or one recycled from a smaller method: size its
		// IL from the method once instead of regrowing it as it fills
		// (instructions average about two units).
		cur.IL = make([]Entry, 0, len(insns)/2+1)
	}
	c.collect(cur, m, pc, insns, inp)
}

// collect appends the instruction at pc to n with its operand resolved.
// The node's IIM is sized from the method once, so it never regrows.
func (c *Collector) collect(n *TreeNode, m *art.Method, pc int, insns []uint16, in *bytecode.Inst) {
	if len(n.pcIdx) < len(insns) {
		n.growIndex(len(insns))
	}
	n.Append(Entry{DexPC: pc, Inst: *in, Sym: c.resolveSym(m, in)})
}

// predecodeHit traces a method binding to a cached predecoded program.
// Interpreter acceleration events ride the same reveal span as the
// collection-tree events so per-app traces show cache behaviour alongside
// the self-modification activity that invalidates it.
func (c *Collector) predecodeHit(m *art.Method) {
	c.enter()
	defer c.leave()
	if !appMethod(m) || !c.span.Enabled() {
		return
	}
	c.span.PredecodeHit(m.Key())
}

// predecodeInvalidate traces a live-code write dropping a method's
// predecoded stream — the same modification events that fork collection
// trees, observed at the interpreter layer.
func (c *Collector) predecodeInvalidate(m *art.Method, pc int) {
	c.enter()
	defer c.leave()
	if !appMethod(m) || !c.span.Enabled() {
		return
	}
	c.span.PredecodeInvalidate(m.Key(), pc)
}

// codeWritten marks a method whose live unit array was written: its record
// becomes permanently uncacheable, and if the method was on the skip list
// the cached tree served for it is no longer trustworthy (violation).
func (c *Collector) codeWritten(m *art.Method, pc int) {
	c.enter()
	defer c.leave()
	if !appMethod(m) {
		return
	}
	key := m.Key()
	if c.skip != nil && c.skip[key] {
		c.violated[key] = true
	}
	c.records(m).rec.Written = true
}

// resolveSym resolves in's constant-pool operand, interned per collector:
// every execution of the same operand shares one read-only Symbol.
func (c *Collector) resolveSym(m *art.Method, in *bytecode.Inst) *Symbol {
	kind := in.Op.Index()
	if kind == bytecode.IndexNone || m.Class.File == nil {
		return nil
	}
	f := m.Class.File
	key := symKey{file: f, kind: kind, index: in.Index}
	if s, ok := c.syms[key]; ok {
		return s
	}
	s := &Symbol{Kind: kind}
	switch kind {
	case bytecode.IndexString:
		s.Str = f.String(in.Index)
	case bytecode.IndexType:
		s.Type = f.TypeName(in.Index)
	case bytecode.IndexField:
		s.Field = f.FieldAt(in.Index)
	case bytecode.IndexMethod:
		s.Method = f.MethodAt(in.Index)
	}
	if c.syms == nil {
		c.syms = make(map[symKey]*Symbol)
	}
	c.syms[key] = s
	return s
}

func (c *Collector) classInitialized(cl *art.Class) {
	c.enter()
	defer c.leave()
	c.recordClass(cl)
}

// recordClass records class metadata at initialization time. Superclasses
// initialize first (and are recorded by their own events), but interfaces do
// not, so their metadata is pulled in recursively — the reassembled DEX must
// be able to re-link every recorded class.
func (c *Collector) recordClass(cl *art.Class) {
	if cl == nil || cl.File == nil || c.res.Class(cl.Descriptor) != nil {
		return
	}
	rec := ClassRecord{
		Descriptor:  cl.Descriptor,
		AccessFlags: cl.AccessFlags,
	}
	if cl.Super != nil {
		rec.Superclass = cl.Super.Descriptor
	}
	for _, i := range cl.Interfaces {
		rec.Interfaces = append(rec.Interfaces, i.Descriptor)
	}
	if cl.Def != nil && cl.Def.SourceFile != dex.NoIndex {
		rec.SourceFile = cl.File.String(cl.Def.SourceFile)
	}
	for _, f := range cl.StaticMeta {
		fr := FieldRecord{Name: f.Name, Type: f.Type, AccessFlags: f.AccessFlags}
		if v, ok := cl.Statics[f.Name]; ok && cl.Initialized() {
			fr.Value = valueRecord(v)
		} else if f.Init != nil {
			fr.Value = encodedValueRecord(cl, *f.Init)
		}
		rec.StaticFields = append(rec.StaticFields, fr)
	}
	for _, f := range cl.InstanceMeta {
		rec.InstanceFields = append(rec.InstanceFields,
			FieldRecord{Name: f.Name, Type: f.Type, AccessFlags: f.AccessFlags})
	}
	for _, m := range cl.Methods {
		rec.Methods = append(rec.Methods, MethodShell{
			Name:        m.Name,
			Signature:   m.Signature,
			AccessFlags: m.AccessFlags,
			Virtual:     m.Virtual,
			Native:      m.AccessFlags&dex.AccNative != 0,
		})
	}
	c.res.Classes = append(c.res.Classes, rec)
	for _, i := range cl.Interfaces {
		c.recordClass(i)
	}
	c.recordClass(cl.Super)
}

func encodedValueRecord(cl *art.Class, v dex.Value) *ValueRecord {
	switch v.Kind {
	case dex.ValueString:
		return &ValueRecord{Kind: "string", Str: cl.File.String(v.Index)}
	case dex.ValueNull:
		return &ValueRecord{Kind: "null"}
	default:
		return &ValueRecord{Kind: "int", Int: v.Int}
	}
}

func valueRecord(v art.Value) *ValueRecord {
	switch {
	case v.Kind == art.KindRef && v.Ref != nil && v.Ref.IsString():
		return &ValueRecord{Kind: "string", Str: v.Ref.Str}
	case v.Kind == art.KindRef:
		return &ValueRecord{Kind: "null"}
	default:
		return &ValueRecord{Kind: "int", Int: v.Int}
	}
}

// ReflTarget describes one observed reflective-invocation target.
type ReflTarget struct {
	Class     string `json:"class"`
	Name      string `json:"name"`
	Signature string `json:"signature"`
	Static    bool   `json:"static"`
}

// Key returns the canonical method key of the target.
func (t ReflTarget) Key() string { return t.Class + "->" + t.Name + t.Signature }

func (c *Collector) reflectiveCall(caller *art.Method, pc int, target *art.Method) {
	c.enter()
	defer c.leave()
	if caller == nil || !appMethod(caller) {
		return
	}
	rec := c.records(caller).rec
	if rec.ReflTargets == nil {
		rec.ReflTargets = make(map[int][]ReflTarget)
	}
	ref := ReflTarget{
		Class:     target.Class.Descriptor,
		Name:      target.Name,
		Signature: target.Signature,
		Static:    target.IsStatic(),
	}
	for _, existing := range rec.ReflTargets[pc] {
		if existing == ref {
			return
		}
	}
	rec.ReflTargets[pc] = append(rec.ReflTargets[pc], ref)
}

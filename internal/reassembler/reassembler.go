// Package reassembler implements DexLego's offline reassembling phase: it
// turns a collection result (trees of executed instructions plus DEX
// metadata) back into a valid DEX file.
//
// Each collection tree is flattened into one instruction array. A leaf is
// merged into its parent by inserting a synthetic conditional branch at the
// divergence point — `sget-boolean` on a fresh static field of the
// LModification; instrument class followed by `if-nez` into the leaf's code —
// so static analysis treats both the original and the self-modified code as
// reachable (Section IV-B of the paper). Distinct instruction arrays of one
// method become method variants behind the same synthetic-branch dispatch.
// Reflective Method.invoke call sites are rewritten into direct calls
// through generated bridge methods, and never-executed branch targets are
// routed to a shared default-return trailer, which is what removes
// dead-code false positives downstream.
package reassembler

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"dexlego/internal/apk"
	"dexlego/internal/bytecode"
	"dexlego/internal/collector"
	"dexlego/internal/dex"
	"dexlego/internal/dexgen"
	"dexlego/internal/obs"
)

// Instrumentation class and bridge class descriptors.
const (
	InstrumentClass = "LModification;"
	BridgeClass     = "LReflBridge;"
)

// Stats summarizes a reassembly.
type Stats struct {
	Classes            int
	Methods            int
	ExecutedMethods    int
	Stubs              int
	Variants           int // extra bodies emitted for multi-tree methods
	Divergences        int // self-modification layers merged
	ReflectionRewrites int
	InstrumentFields   int
}

// Reassemble builds a DEX file from a collection result.
func Reassemble(res *collector.Result) (*dex.File, *Stats, error) {
	return ReassembleWith(res, nil)
}

// ReassembleWith is Reassemble with trace events (stub emissions, variant
// merges, reflection rewrites) attributed to span; nil disables them.
func ReassembleWith(res *collector.Result, span *obs.Span) (*dex.File, *Stats, error) {
	return ReassembleCfg(res, span, Config{})
}

// Config parameterizes a reassembly run.
type Config struct {
	// Workers bounds the parallel method-assembly and index-remap fan-out
	// of the generated program: 0 selects GOMAXPROCS, 1 forces the serial
	// path. Serial and parallel reassembly produce byte-identical DEX
	// output (pinned by TestSerialParallelByteIdentical).
	Workers int

	// Fetch resolves a method record spilled out of the result mid-reveal
	// (keyed "Lclass;->name(sig)"). It is consulted only when the result
	// map has no record for an executed method, so a nil Fetch reproduces
	// the all-resident behavior exactly. Classes are emitted serially, so
	// Fetch need not be safe for concurrent use.
	Fetch func(key string) (*collector.MethodRecord, bool)

	// Stream selects the windowed section-streaming DEX writer
	// (dex.File.WriteStream) over the buffered one. Output is
	// byte-identical either way (pinned by TestWriteStreamIdentity); the
	// streaming path trades a second encode pass for never holding the
	// whole image plus its sections in memory at once.
	Stream bool
}

// ReassembleCfg is ReassembleWith with explicit parallelism configuration.
func ReassembleCfg(res *collector.Result, span *obs.Span, cfg Config) (*dex.File, *Stats, error) {
	p := dexgen.New()
	p.SetWorkers(cfg.Workers)
	ra := &reassembler{
		p:     p,
		res:   res,
		stats: &Stats{},
		span:  span,
		fetch: cfg.Fetch,
	}
	if err := ra.run(); err != nil {
		return nil, nil, err
	}
	f, err := ra.p.Finish()
	if err != nil {
		return nil, nil, err
	}
	return f, ra.stats, nil
}

// ReassembleAPK rebuilds the APK with the revealed classes.dex, mirroring
// the paper's use of AAPT to swap the DEX inside the original package.
func ReassembleAPK(orig *apk.APK, res *collector.Result) (*apk.APK, *Stats, error) {
	return ReassembleAPKWith(orig, res, nil)
}

// ReassembleAPKWith is ReassembleAPK with trace events attributed to span.
func ReassembleAPKWith(orig *apk.APK, res *collector.Result, span *obs.Span) (*apk.APK, *Stats, error) {
	return ReassembleAPKCfg(orig, res, span, Config{})
}

// ReassembleAPKCfg is ReassembleAPKWith with explicit parallelism
// configuration.
func ReassembleAPKCfg(orig *apk.APK, res *collector.Result, span *obs.Span, cfg Config) (*apk.APK, *Stats, error) {
	f, stats, err := ReassembleCfg(res, span, cfg)
	if err != nil {
		return nil, nil, err
	}
	var data []byte
	if cfg.Stream {
		var buf bytes.Buffer
		if _, err := f.WriteStream(&buf); err != nil {
			return nil, nil, err
		}
		data = buf.Bytes()
	} else {
		data, err = f.Write()
		if err != nil {
			return nil, nil, err
		}
	}
	out := orig.Clone()
	out.SetDex(data)
	return out, stats, nil
}

type reassembler struct {
	p     *dexgen.Program
	res   *collector.Result
	stats *Stats
	span  *obs.Span
	fetch func(key string) (*collector.MethodRecord, bool)

	instrCls      *dexgen.Class
	bridgeCls     *dexgen.Class
	bridgeCounter int
	fieldCounter  map[string]int

	// Pooled hot-path scratch, reused across every method and class of the
	// run. flat is the shared flattener for methods without try tables (their
	// state is fully consumed inside the synchronous Build call); methods
	// that re-anchor tries get a fresh flattener because mapTries runs later,
	// at Program.Finish. entryBuf/idBuf are sort and switch-target scratch,
	// safe to share because each is dead before any reuse point.
	flat      flattener
	flatBuild func(a *dexgen.Asm)
	entryBuf  []collector.Entry
	idBuf     []bytecode.LabelID
	stubBuild map[string]func(a *dexgen.Asm)
	sigCache  map[string]sigParts
}

type sigParts struct {
	params []string
	ret    string
}

func (ra *reassembler) run() error {
	ra.fieldCounter = make(map[string]int)
	ra.stubBuild = make(map[string]func(a *dexgen.Asm))
	ra.sigCache = make(map[string]sigParts)
	ra.flatBuild = func(a *dexgen.Asm) { ra.flat.emit(a) }
	for ci := range ra.res.Classes {
		if err := ra.emitClass(&ra.res.Classes[ci]); err != nil {
			return err
		}
	}
	return nil
}

// parseSig memoizes dex.ParseSignature: a few distinct signatures cover most
// methods of an app, and the parse allocates a params slice per call.
func (ra *reassembler) parseSig(sig string) ([]string, string, error) {
	if sp, ok := ra.sigCache[sig]; ok {
		return sp.params, sp.ret, nil
	}
	params, ret, err := dex.ParseSignature(sig)
	if err != nil {
		return nil, "", err
	}
	ra.sigCache[sig] = sigParts{params: params, ret: ret}
	return params, ret, nil
}

func (ra *reassembler) instrumentField(rec *collector.MethodRecord) string {
	if ra.instrCls == nil {
		ra.instrCls = ra.p.Class(InstrumentClass, "")
	}
	base := sanitize(rec.Class + "_" + rec.Name)
	n := ra.fieldCounter[base]
	ra.fieldCounter[base] = n + 1
	name := base + "_" + strconv.Itoa(n)
	// Deliberately non-final and defaulted: the value is runtime-dependent
	// (the paper uses random values), so value-sensitive analyses must treat
	// both branches as reachable.
	ra.instrCls.StaticBool(name, false)
	ra.stats.InstrumentFields++
	return name
}

func sanitize(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return strings.Trim(sb.String(), "_")
}

func (ra *reassembler) emitClass(cr *collector.ClassRecord) error {
	super := cr.Superclass
	cls := ra.p.ClassWithFlags(cr.Descriptor, cr.AccessFlags, super, cr.Interfaces...)
	ra.stats.Classes++
	if cr.SourceFile != "" {
		cls.Source(cr.SourceFile)
	}
	for _, f := range cr.StaticFields {
		cls.StaticInit(f.Name, f.Type, f.AccessFlags, ra.dexValue(f))
	}
	for _, f := range cr.InstanceFields {
		cls.FieldWithFlags(f.Name, f.Type, f.AccessFlags)
	}
	for _, sh := range cr.Methods {
		key := cr.Descriptor + "->" + sh.Name + sh.Signature
		rec := ra.res.Methods[key]
		if rec == nil && ra.fetch != nil {
			if fr, ok := ra.fetch(key); ok {
				rec = fr
			}
		}
		params, ret, err := ra.parseSig(sh.Signature)
		if err != nil {
			return fmt.Errorf("reassembler: %s: %w", key, err)
		}
		ra.stats.Methods++
		switch {
		case sh.Native:
			cls.NativeM(sh.Name, ret, params, sh.Virtual)
		case sh.AccessFlags&dex.AccAbstract != 0:
			cls.AbstractM(sh.Name, ret, params)
		case rec != nil && rec.Executed():
			ra.stats.ExecutedMethods++
			if err := ra.emitExecuted(cls, rec, sh, ret, params); err != nil {
				return err
			}
		default:
			ra.stats.Stubs++
			if ra.span.Enabled() {
				ra.span.StubEmitted(key)
			}
			ra.emitStub(cls, sh.Name, ret, params, sh.AccessFlags)
		}
	}
	return nil
}

func (ra *reassembler) dexValue(f collector.FieldRecord) *dex.Value {
	if f.Value == nil {
		return nil
	}
	switch f.Value.Kind {
	case "string":
		v := dex.StringValue(ra.p.Builder().String(f.Value.Str))
		return &v
	case "null":
		v := dex.NullValue()
		return &v
	default:
		var v dex.Value
		switch f.Type {
		case "Z":
			v = dex.BoolValue(f.Value.Int != 0)
		case "J":
			v = dex.Value{Kind: dex.ValueLong, Int: f.Value.Int}
		default:
			v = dex.IntValue(f.Value.Int)
		}
		return &v
	}
}

func (ra *reassembler) emitStub(cls *dexgen.Class, name, ret string, params []string, flags uint32) {
	ins := len(params)
	if flags&dex.AccStatic == 0 {
		ins++
	}
	cls.RawMethod(name, ret, params, flags, dexgen.RawCode{
		Registers: ins + 1,
		Ins:       ins,
		Build:     ra.stubBuilder(ret),
	})
}

// stubBuilder returns the Build callback emitting a default-return body for
// ret, cached per return type: stub bodies depend on nothing else, and large
// apps emit thousands of them.
func (ra *reassembler) stubBuilder(ret string) func(a *dexgen.Asm) {
	if fn, ok := ra.stubBuild[ret]; ok {
		return fn
	}
	fn := func(a *dexgen.Asm) { emitDefaultReturn(a, ret) }
	ra.stubBuild[ret] = fn
	return fn
}

func emitDefaultReturn(a *dexgen.Asm, ret string) {
	switch {
	case ret == "V":
		a.ReturnVoid()
	case ret[0] == 'L' || ret[0] == '[':
		a.Const(0, 0)
		a.ReturnObj(0)
	default:
		a.Const(0, 0)
		a.Return(0)
	}
}

func (ra *reassembler) emitExecuted(cls *dexgen.Class, rec *collector.MethodRecord, sh collector.MethodShell, ret string, params []string) error {
	trees := mergeCompatibleTrees(rec.Trees)
	if len(rec.Trees) > 1 && ra.span.Enabled() {
		ra.span.MergeVariant(rec.Key(), len(rec.Trees), len(trees))
	}
	if len(trees) == 1 {
		return ra.emitTreeMethod(cls, rec, sh.Name, sh.AccessFlags, ret, params, trees[0], true)
	}
	// Multiple irreconcilable instruction arrays: emit variants plus a
	// dispatcher.
	rec = recWithTrees(rec, trees)
	for k, tree := range rec.Trees {
		vname := fmt.Sprintf("%s$v%d", sh.Name, k)
		vflags := sh.AccessFlags
		if vflags&dex.AccStatic == 0 && !rec.Virtual {
			vflags |= dex.AccPrivate // direct-dispatch variant for constructors
		}
		vflags &^= dex.AccConstructor
		if err := ra.emitTreeMethod(cls, rec, vname, vflags, ret, params, tree, false); err != nil {
			return err
		}
		ra.stats.Variants++
	}
	ra.emitDispatcher(cls, rec, sh, ret, params)
	return nil
}

// emitDispatcher generates the original-name method that selects among the
// variant bodies through instrument-class fields.
func (ra *reassembler) emitDispatcher(cls *dexgen.Class, rec *collector.MethodRecord, sh collector.MethodShell, ret string, params []string) {
	k := len(rec.Trees)
	fields := make([]string, 0, k-1)
	for i := 1; i < k; i++ {
		fields = append(fields, ra.instrumentField(rec))
	}
	var op bytecode.Opcode
	switch {
	case sh.AccessFlags&dex.AccStatic != 0:
		op = bytecode.OpInvokeStaticR
	case rec.Virtual:
		op = bytecode.OpInvokeVirtualR
	default:
		op = bytecode.OpInvokeDirectR
	}
	cls.RawMethod(sh.Name, ret, params, sh.AccessFlags, dexgen.RawCode{
		Registers: 2 + rec.InsSize,
		Ins:       rec.InsSize,
		Build: func(a *dexgen.Asm) {
			for i := 1; i < k; i++ {
				a.SGetBool(0, InstrumentClass, fields[i-1])
				a.Raw().RawBranch(bytecode.Inst{Op: bytecode.OpIfNez, A: 0},
					fmt.Sprintf("variant%d", i))
			}
			ra.emitVariantCall(a, rec, sh, op, ret, 0)
			for i := 1; i < k; i++ {
				a.Label(fmt.Sprintf("variant%d", i))
				ra.emitVariantCall(a, rec, sh, op, ret, i)
			}
		},
	})
}

func (ra *reassembler) emitVariantCall(a *dexgen.Asm, rec *collector.MethodRecord, sh collector.MethodShell, op bytecode.Opcode, ret string, k int) {
	idx, err := ra.p.Builder().MethodSig(rec.Class, fmt.Sprintf("%s$v%d", sh.Name, k), rec.Signature)
	if err != nil {
		// Signature was validated by the caller; surface through dexgen.
		a.Raw().Nop()
		return
	}
	a.Raw().InvokeRange(op, idx, 2, rec.InsSize)
	a.NoteOuts(rec.InsSize)
	switch {
	case ret == "V":
		a.ReturnVoid()
	case ret[0] == 'L' || ret[0] == '[':
		a.MoveResultObject(1)
		a.ReturnObj(1)
	default:
		a.MoveResult(1)
		a.Return(1)
	}
}

// emitTreeMethod flattens one collection tree into one method body.
// withTries controls whether the original try/catch table is re-anchored
// (only for the primary, single-tree case; variants drop handlers that no
// longer apply).
func (ra *reassembler) emitTreeMethod(cls *dexgen.Class, rec *collector.MethodRecord, name string, flags uint32, ret string, params []string, tree *collector.TreeNode, withTries bool) error {
	withTries = withTries && len(rec.Tries) > 0
	var fl *flattener
	build := ra.flatBuild
	if withTries {
		// mapTries runs at Program.Finish, long after this call returns, so
		// the flattener's label bases and root spans must outlive the method.
		fl = &flattener{}
		build = func(a *dexgen.Asm) { fl.emit(a) }
	} else {
		fl = &ra.flat
	}
	*fl = flattener{
		ra:        ra,
		rec:       rec,
		tree:      tree,
		retType:   ret,
		grow:      len(tree.Children) > 0,
		oldLocals: int32(rec.RegistersSize - rec.InsSize),
		unexecID:  -1,
		spans:     withTries,
		rootSpans: fl.rootSpans[:0],
	}
	if fl.oldLocals < 0 {
		return fmt.Errorf("reassembler: %s: ins %d exceed registers %d",
			rec.Key(), rec.InsSize, rec.RegistersSize)
	}
	fl.scratch = fl.oldLocals
	regs := rec.RegistersSize
	if fl.grow {
		regs++
	}
	rc := dexgen.RawCode{
		Registers: regs,
		Ins:       rec.InsSize,
		Build:     build,
	}
	if withTries {
		rc.TriesFn = fl.mapTries
	}
	cls.RawMethod(name, ret, params, flags, rc)
	ra.stats.Divergences += countNodes(tree) - 1
	return fl.err
}

// recWithTrees returns a shallow copy of rec carrying the merged tree set.
func recWithTrees(rec *collector.MethodRecord, trees []*collector.TreeNode) *collector.MethodRecord {
	out := *rec
	out.Trees = trees
	return &out
}

func countNodes(n *collector.TreeNode) int {
	total := 1
	for _, c := range n.Children {
		total += countNodes(c)
	}
	return total
}

// flattener converts one collection tree into assembler items. It addresses
// every (node, dex_pc) layout position by an integer label: each tree node
// reserves a consecutive block of anonymous assembler labels, one per logged
// instruction, so a position resolves with one IIM lookup plus arithmetic —
// no label-name strings and no per-method label map.
type flattener struct {
	ra      *reassembler
	rec     *collector.MethodRecord
	tree    *collector.TreeNode
	a       *dexgen.Asm
	asm     *bytecode.Assembler
	retType string

	grow      bool
	oldLocals int32
	scratch   int32
	rootBase  bytecode.LabelID                         // label block of the root node
	nodeBase  map[*collector.TreeNode]bytecode.LabelID // non-root blocks; nil until a child exists
	unexec    bool
	unexecID  bytecode.LabelID // -1 until the first unexecuted target
	spans     bool             // record rootSpans (only try re-anchoring needs them)
	err       error

	rootSpans []rootSpan // for try-table re-anchoring
}

type rootSpan struct {
	origPC int
	id     bytecode.LabelID
	width  int
}

func (fl *flattener) assignBases(n *collector.TreeNode) {
	base := fl.asm.NewLabelBlock(len(n.IL))
	if n == fl.tree {
		fl.rootBase = base
	} else {
		if fl.nodeBase == nil {
			fl.nodeBase = make(map[*collector.TreeNode]bytecode.LabelID, 4)
		}
		fl.nodeBase[n] = base
	}
	for _, c := range n.Children {
		fl.assignBases(c)
	}
}

// labelAt returns the label for the instruction n logged at pc.
func (fl *flattener) labelAt(n *collector.TreeNode, pc int) bytecode.LabelID {
	idx, ok := n.Index(pc)
	if !ok {
		// No instruction at pc: a fresh label that is never bound, so
		// assembly reports it undefined (same diagnostic as named labels).
		return fl.asm.NewLabel()
	}
	return fl.label(n, idx)
}

// label returns the label of n's IL entry idx.
func (fl *flattener) label(n *collector.TreeNode, idx int) bytecode.LabelID {
	if n == fl.tree {
		return fl.rootBase + bytecode.LabelID(idx)
	}
	return fl.nodeBase[n] + bytecode.LabelID(idx)
}

// resolve maps an original dex_pc reference from node n to a layout label,
// walking ancestors; unexecuted targets go to the shared trailer.
func (fl *flattener) resolve(n *collector.TreeNode, pc int) bytecode.LabelID {
	for k := n; k != nil; k = k.Parent {
		if idx, ok := k.Index(pc); ok {
			return fl.label(k, idx)
		}
	}
	if fl.unexecID < 0 {
		fl.unexecID = fl.asm.NewLabel()
	}
	fl.unexec = true
	return fl.unexecID
}

func (fl *flattener) emit(a *dexgen.Asm) {
	fl.a = a
	fl.asm = a.Raw()
	fl.asm.Reserve(fl.tree.Size())
	fl.assignBases(fl.tree)
	fl.emitNode(fl.tree)
	if fl.unexec {
		fl.asm.BindLabel(fl.unexecID)
		emitDefaultReturn(a, fl.retType)
	}
}

func entriesSorted(il []collector.Entry) bool {
	for i := 1; i < len(il); i++ {
		if il[i].DexPC < il[i-1].DexPC {
			return false
		}
	}
	return true
}

func childrenSorted(cs []*collector.TreeNode) bool {
	for i := 1; i < len(cs); i++ {
		if cs[i].SmStart < cs[i-1].SmStart {
			return false
		}
	}
	return true
}

func (fl *flattener) emitNode(n *collector.TreeNode) {
	// The collection tree is shared (merge is copy-on-write), so sorting
	// never touches n.IL/n.Children: already-ordered nodes are used in
	// place, out-of-order entries sort in pooled scratch. The scratch is
	// free to reuse during child recursion because the entry loop below
	// completes before the first recursive call.
	entries := n.IL
	if !entriesSorted(entries) {
		buf := append(fl.ra.entryBuf[:0], entries...)
		sort.Slice(buf, func(i, j int) bool { return buf[i].DexPC < buf[j].DexPC })
		fl.ra.entryBuf = buf
		entries = buf
	}
	children := n.Children
	if !childrenSorted(children) {
		children = append([]*collector.TreeNode(nil), n.Children...)
		sort.Slice(children, func(i, j int) bool { return children[i].SmStart < children[j].SmStart })
	}

	for i, e := range entries {
		id := fl.labelAt(n, e.DexPC)
		fl.asm.BindLabel(id)
		if fl.spans && n == fl.tree {
			fl.rootSpans = append(fl.rootSpans, rootSpan{
				origPC: e.DexPC,
				id:     id,
				width:  e.Inst.Width(),
			})
		}
		// Divergence detours: one synthetic conditional per child forking
		// at this dex_pc.
		for _, c := range children {
			if c.SmStart != e.DexPC {
				continue
			}
			field := fl.ra.instrumentField(fl.rec)
			fl.a.SGetBool(fl.scratch, InstrumentClass, field)
			fl.asm.RawBranchID(bytecode.Inst{Op: bytecode.OpIfNez, A: fl.scratch},
				fl.labelAt(c, c.SmStart))
		}
		fl.emitEntry(n, e)
		// Fall-through repair: collected code lays out sparsely, so an
		// implicit fall-through to a non-adjacent (or divergent) successor
		// becomes an explicit goto.
		if !e.Inst.Op.IsTerminator() {
			nextPC := e.DexPC + e.Inst.Width()
			natural := i+1 < len(entries) && entries[i+1].DexPC == nextPC
			if !natural {
				fl.asm.GotoID(fl.resolve(n, nextPC))
			}
		}
	}
	for _, c := range children {
		fl.emitNode(c)
	}
}

func (fl *flattener) emitEntry(n *collector.TreeNode, e collector.Entry) {
	// Value copy: every mutation below either reassigns a scalar field or
	// replaces a slice header, so the tree's entry is never written through.
	in := e.Inst
	sym := e.Sym

	// Reflection-to-direct-call rewriting.
	if targets, ok := fl.rec.ReflTargets[e.DexPC]; ok && isMethodInvoke(e) && len(in.Args) == 3 {
		bridge := fl.ra.bridgeFor(targets)
		in = bytecode.Inst{
			Op:    bytecode.OpInvokeStatic,
			Args:  []int{in.Args[1], in.Args[2]}, // drop the Method receiver
			A:     2,
			Index: 0,
		}
		sym = &collector.Symbol{
			Kind: bytecode.IndexMethod,
			Method: dex.MethodRef{
				Class:     BridgeClass,
				Name:      bridge,
				Signature: "(Ljava/lang/Object;[Ljava/lang/Object;)Ljava/lang/Object;",
			},
		}
		fl.ra.stats.ReflectionRewrites++
		if fl.ra.span.Enabled() {
			fl.ra.span.ReflectionRewrite(fl.rec.Key(), e.DexPC, BridgeClass+"->"+bridge)
		}
	}

	if fl.grow {
		in = bytecode.MapRegisters(in, func(r int32) int32 {
			if r >= fl.oldLocals {
				return r + 1
			}
			return r
		})
	}
	if err := fl.setIndex(&in, sym); err != nil {
		fl.fail(err)
		return
	}
	if in.Op.IsInvoke() {
		fl.a.NoteOuts(len(in.Args))
	}

	switch {
	case in.Op.IsBranch() || in.Op.IsGoto():
		target := e.DexPC + int(e.Inst.Off)
		in.Off = 0
		if in.Op == bytecode.OpGoto {
			in.Op = bytecode.OpGoto16 // uniform reach after relayout
		}
		fl.asm.RawBranchID(in, fl.resolve(n, target))
	case in.Op.IsSwitch():
		ids := fl.ra.idBuf[:0]
		for _, t := range e.Inst.Targets {
			ids = append(ids, fl.resolve(n, e.DexPC+int(t)))
		}
		fl.ra.idBuf = ids
		in.Targets = nil
		in.Off = 0
		fl.asm.RawSwitchID(in, ids)
	default:
		fl.asm.Raw(in)
	}
}

func (fl *flattener) fail(err error) {
	if fl.err == nil {
		fl.err = err
	}
}

func (fl *flattener) setIndex(in *bytecode.Inst, sym *collector.Symbol) error {
	if in.Op.Index() == bytecode.IndexNone {
		return nil
	}
	if sym == nil {
		return fmt.Errorf("reassembler: %s: missing symbol for %s", fl.rec.Key(), in.Op)
	}
	b := fl.ra.p.Builder()
	switch sym.Kind {
	case bytecode.IndexString:
		in.Index = b.String(sym.Str)
	case bytecode.IndexType:
		in.Index = b.Type(sym.Type)
	case bytecode.IndexField:
		in.Index = b.Field(sym.Field.Class, sym.Field.Name, sym.Field.Type)
	case bytecode.IndexMethod:
		idx, err := b.MethodSig(sym.Method.Class, sym.Method.Name, sym.Method.Signature)
		if err != nil {
			return fmt.Errorf("reassembler: %s: %w", fl.rec.Key(), err)
		}
		in.Index = idx
	}
	return nil
}

// mapTries re-anchors the original try table onto the flattened root-node
// layout: each original range becomes one try per contiguous run of emitted
// root instructions inside it. It runs at Program.Finish, after assembly
// resolved every label position.
func (fl *flattener) mapTries(labels *bytecode.Labels) ([]dex.Try, error) {
	spans := fl.rootSpans
	if !sort.SliceIsSorted(spans, func(i, j int) bool { return spans[i].origPC < spans[j].origPC }) {
		spans = append([]rootSpan(nil), spans...)
		sort.Slice(spans, func(i, j int) bool { return spans[i].origPC < spans[j].origPC })
	}
	// Root-span labels are always bound, so the missing-label case of
	// pcOf never fires for them; handlers go through resolveHandler,
	// which keeps the ok bit.
	pcOf := func(id bytecode.LabelID) int {
		pc, _ := labels.PC(id)
		return pc
	}
	var out []dex.Try
	for _, tr := range fl.rec.Tries {
		inRange := make([]rootSpan, 0, len(spans))
		for _, sp := range spans {
			if sp.origPC >= tr.StartPC && sp.origPC < tr.StartPC+tr.Count {
				inRange = append(inRange, sp)
			}
		}
		if len(inRange) == 0 {
			continue
		}
		resolveHandler := func(pc int) (uint32, bool) {
			newPC, ok := labels.PC(fl.resolve(fl.tree, pc))
			return uint32(newPC), ok
		}
		// Split into runs contiguous in the NEW layout.
		runStart := 0
		for i := 1; i <= len(inRange); i++ {
			contiguous := i < len(inRange) &&
				pcOf(inRange[i].id) == pcOf(inRange[i-1].id)+inRange[i-1].width
			if contiguous {
				continue
			}
			first, last := inRange[runStart], inRange[i-1]
			start := pcOf(first.id)
			end := pcOf(last.id) + last.width
			t := dex.Try{Start: uint32(start), Count: uint32(end - start), CatchAll: -1}
			for _, h := range tr.Handlers {
				if addr, ok := resolveHandler(h.HandlerPC); ok {
					t.Handlers = append(t.Handlers, dex.TypeAddr{
						Type: fl.ra.p.Builder().Type(h.Type),
						Addr: addr,
					})
				}
			}
			if tr.CatchAllPC >= 0 {
				if addr, ok := resolveHandler(tr.CatchAllPC); ok {
					t.CatchAll = int32(addr)
				}
			}
			if len(t.Handlers) > 0 || t.CatchAll >= 0 {
				out = append(out, t)
			}
			runStart = i
		}
	}
	return out, nil
}

func isMethodInvoke(e collector.Entry) bool {
	return e.Inst.Op == bytecode.OpInvokeVirtual && e.Sym != nil &&
		e.Sym.Kind == bytecode.IndexMethod &&
		e.Sym.Method.Class == "Ljava/lang/reflect/Method;" &&
		e.Sym.Method.Name == "invoke"
}

// bridgeFor returns (creating if needed) the bridge method that performs the
// observed reflective targets as direct calls.
func (ra *reassembler) bridgeFor(targets []collector.ReflTarget) string {
	if ra.bridgeCls == nil {
		ra.bridgeCls = ra.p.Class(BridgeClass, "")
	}
	name := "call_" + strconv.Itoa(ra.bridgeCounter)
	ra.bridgeCounter++
	ts := append([]collector.ReflTarget(nil), targets...)
	ra.bridgeCls.Method(dexgen.MethodSpec{
		Name:   name,
		Ret:    "Ljava/lang/Object;",
		Params: []string{"Ljava/lang/Object;", "[Ljava/lang/Object;"},
		Static: true,
		Locals: 10,
	}, func(a *dexgen.Asm) {
		a.Const(0, 0) // result
		for _, t := range ts {
			emitBridgeCall(a, t)
		}
		a.ReturnObj(0)
	})
	return name
}

func emitBridgeCall(a *dexgen.Asm, t collector.ReflTarget) {
	params, ret, err := dex.ParseSignature(t.Signature)
	if err != nil {
		return
	}
	var regs []int32
	if !t.Static {
		a.MoveObject(1, a.P(0))
		a.CheckCast(1, t.Class)
		regs = append(regs, 1)
	}
	for i, pt := range params {
		r := int32(3 + i)
		a.Const(2, int64(i))
		a.AGet(bytecode.OpAGetObject, r, a.P(1), 2)
		switch pt[0] {
		case 'L':
			if pt != "Ljava/lang/Object;" {
				a.CheckCast(r, pt)
			}
		case '[':
			a.CheckCast(r, pt)
		default: // primitive: unbox through Integer
			a.CheckCast(r, "Ljava/lang/Integer;")
			a.InvokeVirtual("Ljava/lang/Integer;", "intValue", "()I", r)
			a.MoveResult(r)
		}
		regs = append(regs, r)
	}
	if t.Static {
		a.InvokeStatic(t.Class, t.Name, t.Signature, regs...)
	} else {
		a.InvokeVirtual(t.Class, t.Name, t.Signature, regs...)
	}
	switch {
	case ret == "V":
	case ret[0] == 'L' || ret[0] == '[':
		a.MoveResultObject(0)
	default:
		a.MoveResult(9)
		a.InvokeStatic("Ljava/lang/Integer;", "valueOf", "(I)Ljava/lang/Integer;", 9)
		a.MoveResultObject(0)
	}
}

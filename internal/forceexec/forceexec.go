// Package forceexec implements the paper's force-execution prototype
// (Section IV-E, Fig. 4): an iterative loop that identifies Uncovered
// Conditional Branches (UCBs) from the previous execution's coverage,
// computes a control-flow path to each UCB, writes the path to a path file,
// and re-executes the application with the interpreter's branch outcomes
// manipulated to follow the path. Unhandled exceptions raised by infeasible
// paths are cleared in the interpreter rather than crashing the run.
//
// Forced runs within one iteration are independent — they target distinct
// UCBs and the path-file set is frozen when the iteration starts — so the
// engine schedules them across a Workers-sized pool. Each run owns a fresh
// runtime, a coverage shard, and (when a Collector is attached) a collector
// shard; a barrier at the end of the iteration folds the shards back in
// task order and recomputes the UCB worklist, preserving the paper's
// iteration semantics exactly.
package forceexec

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/bytecode"
	"dexlego/internal/collector"
	"dexlego/internal/coverage"
	"dexlego/internal/dex"
	"dexlego/internal/obs"
)

// PathFile records the branch decisions leading to one UCB, as saved
// between iterations.
type PathFile struct {
	Method    string       `json:"method"`
	TargetPC  int          `json:"targetPC"`
	Taken     bool         `json:"taken"`
	Decisions map[int]bool `json:"decisions"` // branch dex_pc -> forced outcome
}

// Stats summarizes a force-execution campaign.
type Stats struct {
	Iterations        int
	ForcedRuns        int
	PathsComputed     int
	PathsUnreachable  int
	ExceptionsCleared int
	// Workers is the effective pool size the campaign ran with.
	Workers int
	// BusyNS sums the time workers spent inside forced runs — the stage's
	// aggregate CPU cost, as opposed to its wall time. BusyNS/wall
	// approximates the parallelism the pool achieved.
	BusyNS int64
	Paths  []PathFile
}

// Engine drives iterative force execution over one application.
type Engine struct {
	Pkg            *apk.APK
	Files          []*dex.File
	InstallNatives func(*art.Runtime)
	// Driver is the "previous execution" (fuzzing, or a plain launch when
	// nil) repeated under forced control flow.
	Driver func(*art.Runtime) error

	MaxIterations  int
	MaxRunsPerIter int
	// ExtraHooks are attached to every runtime. With Workers > 1 the hooks
	// must be safe for concurrent use across runtimes; attach a stateful
	// collector through Collector instead, which shards it per run.
	ExtraHooks []*art.Hooks
	// ForceExceptionEdges additionally treats try/catch edges as forceable
	// branches: for each uncovered handler, the matching exception is
	// injected inside the try range. This implements the extension the
	// paper leaves as future work for its third coverage-loss category
	// ("instructions in exception handlers").
	ForceExceptionEdges bool
	// Workers sizes the forced-run pool: 0 selects GOMAXPROCS, 1 forces
	// serial execution. The merged result is byte-identical at any count.
	Workers int
	// Collector, when set, observes the baseline run directly and every
	// forced run through a per-run shard that the iteration barrier merges
	// back (deduplicating trees by fingerprint). The engine canonicalizes
	// the result when the campaign ends, so the collection is independent
	// of worker count and run interleaving.
	Collector *collector.Collector
	// Span attributes the engine's trace events (iteration spans, UCB
	// flips, tolerated exceptions, shard merges) to a reveal stage; nil
	// disables them.
	Span *obs.Span
	// Skip lists method keys served from the incremental method cache:
	// their uncovered branches and handler edges are never scheduled (the
	// cached tree already holds their forced coverage), and every collector
	// shard skips them. Cross-method effects are unaffected — forced runs
	// targeting other methods still execute skipped methods normally, and
	// divergence forks they trigger are detected as skip violations.
	Skip map[string]bool

	// codeIdx indexes method bodies by key (built once in New); cfgs
	// memoizes the per-method BFS over the static CFG. Both are touched
	// only from the serial scheduling phase.
	codeIdx map[string]*dex.Code
	cfgs    map[string]*methodPaths

	// progCache is the campaign-wide predecoded-program cache every worker
	// shard's runtime resolves through, so each distinct method body is
	// lowered once per campaign instead of once per forced run.
	progCache *bytecode.ProgramCache
}

// New returns an engine with the defaults used in the experiments.
func New(pkg *apk.APK, files []*dex.File) *Engine {
	return &Engine{
		Pkg:            pkg,
		Files:          files,
		MaxIterations:  6,
		MaxRunsPerIter: 500,
		codeIdx:        buildCodeIndex(files),
		cfgs:           make(map[string]*methodPaths),
		progCache:      bytecode.NewProgramCache(),
	}
}

func (e *Engine) driver() func(*art.Runtime) error {
	if e.Driver != nil {
		return e.Driver
	}
	return func(rt *art.Runtime) error {
		_, err := rt.LaunchActivity()
		return err
	}
}

// workers resolves the effective pool size.
func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (e *Engine) newRuntime(tracker *coverage.Tracker, col *collector.Collector, extra ...*art.Hooks) (*art.Runtime, error) {
	rt := art.NewRuntime(art.DefaultPhone())
	if e.progCache != nil {
		rt.SetProgramCache(e.progCache)
	}
	if e.InstallNatives != nil {
		e.InstallNatives(rt)
	}
	// Hook order matters: the runtime threads branch outcomes through the
	// hook chain, so forcing hooks (extra) must run before the coverage
	// tracker observes the final decision.
	for _, h := range extra {
		rt.AddHooks(h)
	}
	if col != nil {
		rt.AddHooks(col.Hooks())
	}
	for _, h := range e.ExtraHooks {
		rt.AddHooks(h)
	}
	rt.AddHooks(tracker.Hooks())
	if err := rt.LoadAPK(e.Pkg); err != nil {
		return nil, err
	}
	return rt, nil
}

// task is one scheduled forced run: its own path, the shards it collects
// into, and the counters the barrier folds back. Tasks never share mutable
// state, so the pool can run them in any interleaving.
type task struct {
	path PathFile
	site *coverage.HandlerSite // non-nil for exception-edge injection runs

	tracker *coverage.Tracker    // per-run coverage shard
	col     *collector.Collector // per-run collector shard, nil when unattached

	cleared int           // unhandled exceptions tolerated in this run
	busy    time.Duration // wall time inside the run (worker CPU attribution)
	err     error         // infrastructure failure; the run is then skipped
}

func (e *Engine) newTask(tracker *coverage.Tracker, path PathFile, site *coverage.HandlerSite) *task {
	t := &task{path: path, site: site, tracker: tracker.Shard()}
	if e.Collector != nil {
		t.col = collector.New()
		// The campaign result is the shard's read-only base: trees it
		// already holds are dropped at method exit instead of at the
		// barrier. It is written only in mergeTasks, after runTasks'
		// wg.Wait, and the go statements starting the workers order every
		// earlier merge before the shards read it.
		t.col.SetBase(e.Collector.Result())
		if e.Skip != nil {
			// Shards honor the same skip list as the main collector, so the
			// cached/fresh tree partition survives the iteration barrier.
			t.col.SetSkip(e.Skip)
		}
	}
	return t
}

// Run executes the baseline driver once, then iterates force execution
// until no new UCBs are resolved.
func (e *Engine) Run(tracker *coverage.Tracker) (*Stats, error) {
	stats := &Stats{Workers: e.workers()}
	rt, err := e.newRuntime(tracker, e.Collector)
	if err != nil {
		return nil, err
	}
	_ = e.driver()(rt) // baseline; crashes are tolerated

	// Path files accumulate across iterations (Fig. 4: each iteration's
	// files feed the next), so a UCB nested behind an earlier UCB becomes
	// reachable once the outer path is on file. Within an iteration the
	// set is frozen — runs target distinct UCBs and see only the previous
	// iterations' files plus their own path, which is what makes them
	// order-independent and safe to run concurrently.
	active := make(map[string]map[int]bool)
	prevCovered := tracker.Report().Instruction.Covered
	attempted := make(map[coverage.UCB]bool)
	for iter := 0; iter < e.MaxIterations; iter++ {
		stats.Iterations++
		iterSpan := e.Span.Start("forceexec.iter")
		ucbs := tracker.UncoveredBranches()
		// Scheduling is serial: path computation pins the task list and its
		// order before any run starts, so the merged outcome cannot depend
		// on pool timing.
		var tasks []*task
		for _, ucb := range ucbs {
			if e.Skip[ucb.Method] {
				continue // served from the method cache; no run needed
			}
			if attempted[ucb] || len(tasks) >= e.MaxRunsPerIter {
				continue
			}
			attempted[ucb] = true
			path, ok := e.computePath(ucb)
			if !ok {
				stats.PathsUnreachable++
				continue
			}
			stats.PathsComputed++
			stats.Paths = append(stats.Paths, path)
			tasks = append(tasks, e.newTask(tracker, path, nil))
		}
		e.runTasks(iterSpan, tasks, active, iter)
		e.mergeTasks(iterSpan, tracker, tasks, stats, iter)
		// The barrier has passed: fold this iteration's paths into the
		// active set for the next one, in task order.
		for _, t := range tasks {
			if active[t.path.Method] == nil {
				active[t.path.Method] = make(map[int]bool)
			}
			for pc, taken := range t.path.Decisions {
				active[t.path.Method][pc] = taken
			}
		}
		cur := tracker.Report().Instruction.Covered
		iterSpan.End()
		if cur == prevCovered {
			break // no new UCBs were resolved this iteration
		}
		prevCovered = cur
		// Newly covered code exposes new UCBs; allow re-attempting edges
		// that may have become reachable.
		attempted = make(map[coverage.UCB]bool)
	}
	if e.ForceExceptionEdges {
		e.forceHandlers(tracker, active, stats)
	}
	if e.Collector != nil {
		// Impose the history-independent record order; see Result.Canonicalize.
		e.Collector.Result().Canonicalize()
	}
	return stats, nil
}

// forceHandlers injects exceptions into uncovered try ranges, steering
// control into their handlers. It is one extra pool iteration: the same
// MaxRunsPerIter budget bounds it, and its runs land in Stats exactly like
// the main loop's.
func (e *Engine) forceHandlers(tracker *coverage.Tracker, active map[string]map[int]bool, stats *Stats) {
	span := e.Span.Start("forceexec.handlers")
	defer span.End()
	var tasks []*task
	for _, site := range tracker.UncoveredHandlers() {
		if e.Skip[site.Method] {
			continue // served from the method cache; no injection needed
		}
		if len(tasks) >= e.MaxRunsPerIter {
			break // same per-iteration budget as branch forcing
		}
		decisions, ok := e.pathTo(site.Method, site.TryStart)
		if !ok {
			stats.PathsUnreachable++
			continue
		}
		path := PathFile{Method: site.Method, TargetPC: site.TryStart, Decisions: decisions}
		stats.PathsComputed++
		stats.Paths = append(stats.Paths, path)
		site := site
		tasks = append(tasks, e.newTask(tracker, path, &site))
	}
	e.runTasks(span, tasks, active, stats.Iterations)
	e.mergeTasks(span, tracker, tasks, stats, stats.Iterations)
}

// runTasks executes the iteration's tasks across the worker pool. active is
// read-only until every task has finished; per-worker child spans attribute
// the runs they carried.
func (e *Engine) runTasks(parent *obs.Span, tasks []*task, active map[string]map[int]bool, iter int) {
	if len(tasks) == 0 {
		return
	}
	workers := min(e.workers(), len(tasks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			span := parent.Start("forceexec.worker")
			defer span.End()
			for {
				ti := int(next.Add(1)) - 1
				if ti >= len(tasks) {
					return
				}
				e.runTask(tasks[ti], active, iter, span)
			}
		}()
	}
	wg.Wait()
}

// runTask performs one forced run against the task's own shards.
func (e *Engine) runTask(t *task, active map[string]map[int]bool, iter int, span *obs.Span) {
	start := time.Now()
	defer func() { t.busy = time.Since(start) }()
	var extra []*art.Hooks
	if t.site != nil {
		injected := false
		site := t.site
		extra = append(extra, &art.Hooks{
			InjectException: func(m *art.Method, pc int) string {
				if injected || m.Key() != site.Method || pc != site.TryStart {
					return ""
				}
				injected = true
				return site.Type
			},
		})
	}
	extra = append(extra, e.forcingHooks(active, t.path, &t.cleared, iter, span))
	rt, err := e.newRuntime(t.tracker, t.col, extra...)
	if err != nil {
		t.err = err // infrastructure failure on this path only
		return
	}
	_ = e.driver()(rt) // app-level failures are expected on infeasible paths
}

// mergeTasks is the iteration barrier: shards fold back in task order —
// coverage unions, collection trees dedup by fingerprint — and the
// campaign counters accumulate. Failed tasks contribute nothing. It is the
// only writer of the collector result the shards read as their base.
func (e *Engine) mergeTasks(span *obs.Span, tracker *coverage.Tracker, tasks []*task, stats *Stats, iter int) {
	for ti, t := range tasks {
		if t.err != nil {
			continue
		}
		tracker.Merge(t.tracker)
		if t.col != nil {
			st := e.Collector.Result().Merge(t.col.Result())
			// Trees the shard dropped against the base were executed and
			// deduplicated all the same.
			st.TreesOffered += t.col.BaseHits()
			e.Collector.AbsorbSkipState(t.col)
			if span.Enabled() {
				span.WorkerMerge(ti, iter, st.TreesOffered, st.TreesKept)
			}
		}
		stats.ExceptionsCleared += t.cleared
		stats.BusyNS += int64(t.busy)
		stats.ForcedRuns++
	}
}

// forcingHooks builds the branch-override and exception-tolerance hooks for
// one forced run: all path files on record apply, with the fresh target
// path winning conflicts in its own method. iter tags the run's trace
// events with the campaign iteration that scheduled it; cleared counts
// tolerated exceptions without sharing state across concurrent runs.
func (e *Engine) forcingHooks(active map[string]map[int]bool, path PathFile, cleared *int, iter int, span *obs.Span) *art.Hooks {
	return &art.Hooks{
		Branch: func(m *art.Method, pc int, in bytecode.Inst, taken bool) (bool, bool) {
			if m.Key() == path.Method {
				if forcedOutcome, ok := path.Decisions[pc]; ok {
					if forcedOutcome != taken && span.Enabled() {
						span.UCBFlip(m.Key(), pc, forcedOutcome, iter)
					}
					return true, forcedOutcome
				}
			}
			if decisions, ok := active[m.Key()]; ok {
				if forcedOutcome, ok := decisions[pc]; ok {
					if forcedOutcome != taken && span.Enabled() {
						span.UCBFlip(m.Key(), pc, forcedOutcome, iter)
					}
					return true, forcedOutcome
				}
			}
			return false, false
		},
		Unhandled: func(m *art.Method, pc int, ex *art.Object) bool {
			*cleared++
			if span.Enabled() {
				span.ExceptionTolerated(m.Key(), pc)
			}
			return true
		},
	}
}

// computePath finds branch decisions steering control from the method entry
// to the UCB edge.
func (e *Engine) computePath(ucb coverage.UCB) (PathFile, bool) {
	decisions, ok := e.pathTo(ucb.Method, ucb.PC)
	if !ok {
		return PathFile{}, false
	}
	decisions[ucb.PC] = ucb.Taken
	return PathFile{
		Method:    ucb.Method,
		TargetPC:  ucb.PC,
		Taken:     ucb.Taken,
		Decisions: decisions,
	}, true
}

// pathStep is one BFS visit: the decision that reached this pc and the
// parent link to walk the chain back to the entry.
type pathStep struct {
	pc       int
	branchPC int // decision made to get here (-1 none)
	taken    bool
	prev     int // index into the BFS order
}

// methodPaths memoizes one full BFS over a method's static CFG: shortest
// decision chains from the entry to every reachable pc. Computing it once
// per method amortizes what used to be a fresh BFS per UCB per iteration.
type methodPaths struct {
	visited map[int]int // pc -> index into order
	order   []pathStep
}

// pathTo returns the branch decisions steering control from the method
// entry to targetPC, from the memoized per-method BFS. Only the serial
// scheduling phase may call it — the caches are unsynchronized.
func (e *Engine) pathTo(method string, targetPC int) (map[int]bool, bool) {
	if e.codeIdx == nil {
		e.codeIdx = buildCodeIndex(e.Files) // Engine built without New
	}
	if e.cfgs == nil {
		e.cfgs = make(map[string]*methodPaths)
	}
	mp, ok := e.cfgs[method]
	if !ok {
		if code := e.codeIdx[method]; code != nil {
			mp = buildPaths(code)
		}
		e.cfgs[method] = mp // negative results memoize too
	}
	if mp == nil {
		return nil, false
	}
	qi, ok := mp.visited[targetPC]
	if !ok {
		return nil, false
	}
	// Walk the BFS parent chain, collecting the branch decisions that
	// steered here.
	decisions := map[int]bool{}
	for i := qi; i > 0; i = mp.order[i].prev {
		if mp.order[i].branchPC >= 0 {
			decisions[mp.order[i].branchPC] = mp.order[i].taken
		}
		if mp.order[i].prev < 0 {
			break
		}
	}
	return decisions, true
}

// buildPaths BFS-walks the static CFG from the method entry, recording the
// shortest decision chain to every reachable pc.
func buildPaths(code *dex.Code) *methodPaths {
	prog := bytecode.Predecode(code.Insns)
	if prog.Err() != nil {
		return nil
	}
	visited := map[int]int{0: 0}
	order := []pathStep{{pc: 0, branchPC: -1, prev: -1}}
	for qi := 0; qi < len(order); qi++ {
		cur := order[qi]
		d, _ := prog.Lookup(cur.pc)
		if d == nil {
			continue
		}
		in := &d.Inst
		push := func(pc int, branchPC int, taken bool) {
			if _, seen := visited[pc]; seen {
				return
			}
			visited[pc] = len(order)
			order = append(order, pathStep{pc: pc, branchPC: branchPC, taken: taken, prev: qi})
		}
		switch {
		case in.Op.IsBranch():
			push(cur.pc+in.Width(), cur.pc, false)
			push(cur.pc+int(in.Off), cur.pc, true)
		case in.Op.IsGoto():
			push(cur.pc+int(in.Off), -1, false)
		case in.Op.IsSwitch():
			push(cur.pc+in.Width(), -1, false)
			for _, t := range in.Targets {
				push(cur.pc+int(t), -1, false)
			}
		case in.Op.IsTerminator():
		default:
			push(cur.pc+in.Width(), -1, false)
		}
	}
	return &methodPaths{visited: visited, order: order}
}

// buildCodeIndex maps method keys to their bodies, replacing what used to
// be a linear scan over every class per lookup. First occurrence wins,
// matching the scan order it replaces.
func buildCodeIndex(files []*dex.File) map[string]*dex.Code {
	idx := make(map[string]*dex.Code)
	for _, f := range files {
		for ci := range f.Classes {
			cd := &f.Classes[ci]
			for _, list := range [][]dex.EncodedMethod{cd.DirectMeths, cd.VirtualMeths} {
				for mi := range list {
					key := f.MethodAt(list[mi].Method).Key()
					if _, ok := idx[key]; !ok {
						idx[key] = list[mi].Code
					}
				}
			}
		}
	}
	return idx
}

// WritePathFiles saves the computed paths, one JSON file per UCB, matching
// the paper's description of path files feeding the next iteration.
func WritePathFiles(dir string, paths []PathFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("forceexec: %w", err)
	}
	for i, p := range paths {
		data, err := json.MarshalIndent(p, "", " ")
		if err != nil {
			return fmt.Errorf("forceexec: marshal path: %w", err)
		}
		name := filepath.Join(dir, fmt.Sprintf("path_%04d.json", i))
		if err := os.WriteFile(name, data, 0o644); err != nil {
			return fmt.Errorf("forceexec: %w", err)
		}
	}
	return nil
}

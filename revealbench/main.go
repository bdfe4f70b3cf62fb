// Command revealbench is the repository's benchmark. It generates seeded
// workloads in-process, drives the public entry points (dexlego.Reveal,
// and the reveal server's handler behind httptest), checks every output
// against an oracle that does not come from DexLego, and prints each
// metric by name with its unit and sample count. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . -workload corpus|whale|force|serve|all -seed N -seconds S -trace 0|1
//
// With -trace 0 it reports the end-to-end metrics of an untraced run; with
// -trace 1 it times each layer call from the benchmark's own code and
// reports the per-layer metrics. The exit code is 0 only when every output
// passed its oracle.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// workloadInfo records why a workload exists and how many callers load the
// program. Every workload is a closed loop: a caller sends its next request
// only after the previous one completed.
type workloadInfo struct {
	name, why string
	callers   int
}

var workloads = []workloadInfo{
	{"corpus", "134 DroidBench samples packed with 360 plus the 9 Table V market apps; Workers 1; fixed per-app costs dominate", 2},
	{"whale", "whale apps with one giant method of 5k-40k instructions; Workers 0; collection, reassembly, encode and verify grow with size", 1},
	{"force", "cold ForceExecution reveals of version-chain v1 apps with 16-64 gated methods; Workers 0; the coverage hook and forced runs dominate", 1},
	{"serve", "reveal server with store and method cache; POST ?wait=1&force=1 over version chains, ~88% hits; fresh server per episode", 2},
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string // directory for span files ("" keeps none)
	sz       sizes
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects one workload's printed lines and its result.
type report struct {
	w   io.Writer
	res result
}

func newReport(w io.Writer) *report {
	return &report{w: w, res: result{Metrics: map[string]metricValue{}}}
}

// add prints a metric with its unit and sample count, and puts it on the
// result line when the catalogue marks it so.
func (r *report) add(defs []metricDef, name string, v float64, n int) {
	d, ok := lookupDef(defs, name)
	if !ok {
		panic("metric missing from the catalogue: " + name)
	}
	note := ""
	if d.Moves != "" {
		note = "  -> " + d.Moves
	}
	fmt.Fprintf(r.w, "  %-24s %14.6g %-5s n=%-7d%s\n", name, v, d.Unit, n, note)
	if d.JSON {
		r.res.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
	}
}

// note prints a line that is not a metric.
func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.w, "  "+format+"\n", args...)
}

// finish settles the counts of the result line.
func (r *report) finish(attempted, failed int, firstErr error) {
	r.res.Attempted = max(attempted, 1)
	r.res.Failed = failed
	r.res.Correct = failed == 0 && attempted > 0
	if firstErr != nil {
		r.note("first failure: %v", firstErr)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("revealbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "corpus, whale, force, serve, or all")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 times each layer call and reports the per-layer metrics")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to (empty for none)")
	list := fs.Bool("list", false, "print the workloads and the metric catalogue, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		printCatalogue(stdout)
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "revealbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "revealbench: -seconds must be positive")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, n := range names {
		cfg := config{workload: n, seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans, sz: fullSizes}
		res, err := runWorkload(cfg, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "revealbench: %s: %v\n", n, err)
			return 2
		}
		if err := printResult(stdout, res); err != nil {
			fmt.Fprintf(stderr, "revealbench: %s: %v\n", n, err)
			return 2
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[n+"."+k] = v
		}
	}
	if len(names) > 1 {
		if err := printResult(stdout, &all); err != nil {
			fmt.Fprintf(stderr, "revealbench: %v\n", err)
			return 2
		}
	}
	if !all.Correct {
		return 1
	}
	return 0
}

// printResult prints the result line. A metric that is not a finite
// number fails it, and the run prints no result.
func printResult(w io.Writer, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// infoFor finds a workload by name (nil for none).
func infoFor(name string) *workloadInfo {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runWorkload sets up one workload, measures it, checks its outputs, and
// prints its report.
func runWorkload(cfg config, out io.Writer) (*result, error) {
	info := infoFor(cfg.workload)
	if info == nil {
		return nil, fmt.Errorf("unknown workload (want corpus, whale, force, serve or all)")
	}
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(out, "workload %s  seed %d  %s  closed loop, %d caller(s)  %gs\n",
		info.name, cfg.seed, mode, info.callers, cfg.seconds)
	rep := newReport(out)
	var err error
	if info.name == "serve" {
		err = runServe(cfg, info, rep)
	} else {
		err = runReveals(cfg, info, rep)
	}
	if err != nil {
		return nil, err
	}
	return &rep.res, nil
}

// timedSetup runs setup the configured number of times (once when tracing)
// and returns the last set-up value with every set-up time.
func timedSetup[T any](cfg config, setup func() (T, error)) (T, []float64, error) {
	reps := cfg.sz.setupRepeats
	if cfg.trace {
		reps = 1
	}
	var v T
	var times []float64
	for range max(reps, 1) {
		t0 := time.Now()
		var err error
		if v, err = setup(); err != nil {
			return v, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return v, times, nil
}

// addLatency prints the latency and resource metrics of a measured phase.
// Throughput and CPU are medians over the phase's blocks, and so are the
// percentiles when every block holds enough samples for p90; otherwise the
// percentiles pool all samples. p99 always pools.
func addLatency(rep *report, p *phase, tails bool) error {
	n := len(p.latMS)
	if n == 0 {
		return errors.New("no operation completed")
	}
	blocks := p.blocks
	if len(blocks) < 3 {
		// Too short a phase for medians: one block of everything.
		blocks = []block{{ops: n, wall: p.m.wall, cpu: p.m.cpu, latMS: p.latMS}}
	}
	perBlock := true
	var rate, cpu []float64
	for _, b := range blocks {
		rate = append(rate, float64(b.ops)/b.wall.Seconds())
		cpu = append(cpu, ms(b.cpu)/float64(b.ops))
		perBlock = perBlock && len(b.latMS) >= 100
	}
	rep.note("%d operations in %d block(s); percentiles %s", n, len(blocks),
		map[bool]string{true: "are medians over blocks", false: "pool all samples"}[perBlock])
	rep.add(endToEnd, "apps_per_s", median(rate), n)
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50_ms", 0.5}, {"p90_ms", 0.9}, {"p99_ms", 0.99}} {
		if q.name == "p99_ms" && !tails {
			continue
		}
		v, err := blockPercentile(p.latMS, blocks, q.q, perBlock && q.name != "p99_ms")
		if err != nil {
			if q.name == "p99_ms" {
				rep.note("p99_ms refused: %v", err)
				continue
			}
			return err
		}
		rep.add(endToEnd, q.name, v, n)
	}
	rep.add(endToEnd, "cpu_ms_per_app", median(cpu), n)
	rep.add(endToEnd, "alloc_mib_per_app", float64(p.m.allocs)/mib/float64(n), n)
	peak, windows := p.m.heapPeak()
	rep.add(endToEnd, "heap_peak_mib", peak/mib, windows)
	rep.add(endToEnd, "failed_ratio", float64(p.failed)/float64(max(p.attempted, 1)), p.attempted)
	return nil
}

// blockPercentile is the median over blocks of each block's q-quantile, or
// the q-quantile of all samples.
func blockPercentile(all []float64, blocks []block, q float64, perBlock bool) (float64, error) {
	if !perBlock {
		return percentile(all, q)
	}
	var vs []float64
	for _, b := range blocks {
		v, err := percentile(b.latMS, q)
		if err != nil {
			return 0, err
		}
		vs = append(vs, v)
	}
	return median(vs), nil
}

// addGC prints the GC share of an untraced phase.
func addGC(rep *report, p *phase) {
	n := max(len(p.latMS), 1)
	rep.add(perLayer, "gc.cpu_fraction", p.m.gcFraction(), n)
	rep.add(perLayer, "gc.cycles_per_app", float64(p.m.cycles)/float64(n), n)
}

// addLayers prints the per-layer metrics of the step reveals in catalogue
// order.
func addLayers(rep *report, sums *layerSums) {
	vals := sums.metrics()
	for _, d := range perLayer {
		if v, ok := vals[d.Name]; ok {
			rep.add(perLayer, d.Name, v, sums.reveals)
		}
	}
}

// setupReveals generates a reveal workload's inputs and warms it up.
func setupReveals(cfg config) (*revealWorkload, error) {
	w := &revealWorkload{callers: infoFor(cfg.workload).callers}
	var err error
	switch cfg.workload {
	case "corpus":
		w.oracle = corpusOracle
		w.apps, err = corpusApps(cfg.seed)
	case "whale":
		w.check = whaleCheck
		w.apps, err = whaleApps(cfg.seed, cfg.sz)
	case "force":
		w.check = forceCheck
		w.apps, err = forceApps(cfg.seed, cfg.sz)
	}
	if err != nil {
		return nil, err
	}
	return w, w.warmUp()
}

// runReveals measures a one-shot reveal workload.
func runReveals(cfg config, info *workloadInfo, rep *report) error {
	w, setupTimes, err := timedSetup(cfg, func() (*revealWorkload, error) { return setupReveals(cfg) })
	if err != nil {
		return err
	}
	rep.note("%d apps", len(w.apps))
	d := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		rep.add(endToEnd, "setup_s", median(setupTimes), len(setupTimes))
		p := w.measure(d, cfg.sz.minSamples)
		w.runOracle(p)
		if err := addLatency(rep, p, info.name == "corpus"); err != nil {
			return err
		}
		rep.finish(p.attempted, p.failed, p.firstErr)
		return nil
	}

	// Traced: an untraced half gives the GC share and the latency the
	// traced half's slowdown is taken against.
	untraced := w.measure(d/2, 1)
	w.runOracle(untraced)
	addGC(rep, untraced)
	tr, sums, steps := w.traced(d / 2)
	addLayers(rep, sums)
	slow, err := sums.slowdown(untraced.perApp)
	if err != nil {
		return err
	}
	rep.add(perLayer, "trace.slowdown", slow, sums.reveals)
	if err := writeSpans(cfg, tr, rep); err != nil {
		return err
	}
	firstErr := steps.firstErr
	if firstErr == nil {
		firstErr = untraced.firstErr
	}
	rep.finish(untraced.attempted+steps.attempted, untraced.failed+steps.failed, firstErr)
	return nil
}

// traced runs step-by-step reveals with the workload's callers until the
// time is up and every app was revealed at least once. Each step reveal
// must reproduce its app's reference byte for byte.
func (w *revealWorkload) traced(d time.Duration) (*tracer, *layerSums, *phase) {
	tr := newTracer()
	sums := &layerSums{perApp: map[string][]float64{}}
	p := &phase{}
	var mu sync.Mutex
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(w.apps) && time.Since(start) >= d {
					return
				}
				a := w.apps[i%len(w.apps)]
				data, err := stepReveal(tr, sums, a)
				if err == nil {
					err = checkStep(a, data)
				}
				mu.Lock()
				p.attempted++
				if err != nil {
					p.fail(fmt.Errorf("%s: %w", a.id, err))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return tr, sums, p
}

// writeSpans stores the traced run's spans, one JSON object a line.
func writeSpans(cfg config, tr *tracer, rep *report) error {
	if cfg.spans == "" {
		return nil
	}
	path := filepath.Join(cfg.spans, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	rep.note("%d spans written to %s", len(tr.spans), path)
	return nil
}

// printCatalogue lists the workloads and every metric with its unit, the
// call it is taken around, and what it should move.
func printCatalogue(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-7s closed loop, %d caller(s): %s\n", wl.name, wl.callers, wl.why)
	}
	fmt.Fprintln(w, "end-to-end metrics (untraced run):")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-24s %s\n", d.Name, d.Unit)
	}
	fmt.Fprintln(w, "per-layer metrics (traced run):")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-24s %-5s %-52s -> %s\n", d.Name, d.Unit, d.Layer, d.Moves)
	}
}

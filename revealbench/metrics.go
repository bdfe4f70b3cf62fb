package main

// The metric catalogue: every end-to-end metric with its unit, and every
// per-layer metric with its unit, the public call it times, and the
// end-to-end metric (and workload) it is expected to move. The catalogue is
// printed by -list, and the reports print metrics in its order.

// metricDef names one metric.
type metricDef struct {
	Name string
	Unit string
	// Layer is the call the metric is taken around (per-layer only).
	Layer string
	// Moves names the end-to-end metric and workload it should move
	// ("" for a plain work count).
	Moves string
	// JSON marks the metrics of the result line: for end-to-end metrics
	// the ones every workload reports, for per-layer metrics the ones the
	// traced run of every workload measures.
	JSON bool
}

// endToEnd lists the end-to-end metrics, measured with tracing off.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", JSON: true},
	{Name: "apps_per_s", Unit: "1/s", JSON: true},
	{Name: "p50_ms", Unit: "ms", JSON: true},
	{Name: "p90_ms", Unit: "ms", JSON: true},
	// p99_ms needs 1000 samples, which only corpus and serve reach.
	{Name: "p99_ms", Unit: "ms"},
	{Name: "cpu_ms_per_app", Unit: "ms", JSON: true},
	{Name: "alloc_mib_per_app", Unit: "MiB", JSON: true},
	{Name: "heap_peak_mib", Unit: "MiB", JSON: true},
	// failed_ratio is 0 on a correct tree; the result line carries it as
	// its failed and attempted counts.
	{Name: "failed_ratio", Unit: "ratio"},
}

// perLayer lists the per-layer metrics of the traced run.
var perLayer = []metricDef{
	{"art.load_ms", "ms", "art.NewRuntime + LoadAPK", "corpus p50_ms, apps_per_s", true},
	{"art.run_ms", "ms", "dexlego.DefaultDriver, no hooks", "force apps_per_s", true},
	{"collector.run_ms", "ms", "DefaultDriver with collector hooks", "whale apps_per_s", true},
	{"collector.hook_ms", "ms", "collector.run_ms - art.run_ms", "whale apps_per_s", true},
	{"collector.insns", "count", "Result.ExecutedInstructionCount", "", false},
	{"collector.ns_per_insn", "ns", "collector.run_ms / collector.insns", "whale apps_per_s", true},
	{"collector.alloc_mib", "MiB", "DefaultDriver with collector hooks", "whale alloc_mib_per_app, heap_peak_mib", true},
	{"coverage.hook_ms", "ms", "DefaultDriver with coverage.Tracker hooks - art.run_ms", "force apps_per_s, p90_ms; serve p99_ms", true},
	{"forceexec.run_ms", "ms", "(*forceexec.Engine).Run", "force apps_per_s, p90_ms; serve p99_ms", false},
	{"forceexec.forced_runs", "count", "Stats.ForcedRuns", "", false},
	{"forceexec.iterations", "count", "Stats.Iterations", "", false},
	{"forceexec.branch_yield", "ratio", "branches newly covered / forced runs", "force apps_per_s", false},
	{"forceexec.busy_ratio", "ratio", "Stats.BusyNS / (wall x workers)", "force p50_ms", false},
	{"reassembler.run_ms", "ms", "reassembler.ReassembleCfg", "whale apps_per_s, heap_peak_mib; corpus p50_ms", true},
	{"reassembler.alloc_mib", "MiB", "reassembler.ReassembleCfg", "whale alloc_mib_per_app", true},
	{"reassembler.methods", "count", "Stats.Methods", "", false},
	{"reassembler.stubs", "count", "Stats.Stubs", "", false},
	{"reassembler.variants", "count", "Stats.Variants", "", false},
	{"dex.decode_ms", "ms", "dex.Read of the input classes.dex", "force p50_ms", true},
	{"dex.encode_ms", "ms", "(*dex.File).Write", "whale apps_per_s", true},
	{"dex.encode_ns_per_byte", "ns", "dex.encode_ms / output bytes", "whale apps_per_s", true},
	{"dex.out_kib", "KiB", "revealed classes.dex size", "", false},
	{"dex.verify_ms", "ms", "dex.ReadShared + dex.Verify", "whale apps_per_s", true},
	{"dex.verify_alloc_mib", "MiB", "dex.ReadShared + dex.Verify", "whale alloc_mib_per_app, heap_peak_mib", true},
	{"apk.parse_us", "us", "apk.Read + ContentHash of a request body", "serve p50_ms", false},
	{"store.get_us", "us", "(*store.Store).Get on a resident key", "serve p50_ms", false},
	{"store.hit_ratio", "ratio", "store hits / requests", "serve apps_per_s", false},
	{"methodcache.hit_ratio", "ratio", "method cache hits / lookups", "serve p90_ms, p99_ms", false},
	{"methodcache.resident_mib", "MiB", "MethodCache.Bytes at episode end", "serve heap_peak_mib", false},
	{"server.queue_ms", "ms", "job QueueNS, misses", "serve p99_ms", false},
	{"server.run_ms", "ms", "job RunNS, misses", "serve p90_ms", false},
	{"server.overhead_ms", "ms", "client latency - job TotalNS", "serve p50_ms", false},
	{"server.coalesced", "count", "GET /v1/metrics jobs.coalesced", "", false},
	{"server.rejected", "count", "GET /v1/metrics jobs.rejected", "", false},
	{"gc.cpu_fraction", "ratio", "runtime/metrics GC CPU / used CPU, untraced phase", "whale, corpus cpu_ms_per_app", true},
	{"gc.cycles_per_app", "count", "runtime/metrics GC cycles / completed, untraced phase", "whale, corpus cpu_ms_per_app", true},
	{"trace.slowdown", "x", "step-by-step reveal wall / untraced reveal latency", "", true},
}

// lookupDef finds a metric of the catalogue by name.
func lookupDef(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

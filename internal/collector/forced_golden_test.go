package collector_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/collector"
	"dexlego/internal/coverage"
	"dexlego/internal/dex"
	"dexlego/internal/forceexec"
	"dexlego/internal/fuzzer"
	"dexlego/internal/hotbench"
	"dexlego/internal/obs"
	"dexlego/internal/workload"
)

// forcedGoldenPath pins the canonicalized forced collection Result of every
// forcedApps app, plus the worker_merge totals of its campaign.
const forcedGoldenPath = "testdata/forced_golden.txt"

// forcedApp is one app of the forced golden corpus.
type forcedApp struct {
	name    string
	pkg     *apk.APK
	natives map[string]art.NativeFunc
	seed    int64 // fuzzer seed of the driver; 0 launches the main activity
}

func (a forcedApp) install(rt *art.Runtime) {
	for key, fn := range a.natives {
		rt.RegisterNative(key, fn)
	}
}

// drive builds a fresh fuzzer per run, so concurrent forced runs share no
// driver state and every run replays the same input sequence. The fuzzer
// runs two short episodes: every forced run repeats the driver, and the
// test must stay affordable under the race detector.
func (a forcedApp) drive(rt *art.Runtime) error {
	if a.seed == 0 {
		_, err := rt.LaunchActivity()
		return err
	}
	fz := fuzzer.New(a.seed)
	fz.Episodes, fz.Events = 2, 5
	return fz.Drive(rt, nil)
}

// forcedApps returns the five F-Droid apps of Table VII (fuzzer-driven),
// the hotbench gate farm, and three version-chain v1 apps of 16-64 methods.
func forcedApps(t *testing.T) []forcedApp {
	t.Helper()
	var out []forcedApp
	fdroid, err := workload.FDroidApps()
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range fdroid {
		out = append(out, forcedApp{name: a.Package, pkg: a.APK, natives: a.Natives, seed: int64(i) + 1})
	}
	gates, _, err := hotbench.GateFarm()
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, forcedApp{name: "gatefarm", pkg: gates})
	for i, methods := range []int{16, 40, 64} {
		chain, err := workload.VersionChain(workload.ChainConfig{Methods: methods, Links: 1, Seed: uint32(i) + 3})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, forcedApp{name: fmt.Sprintf("chain%dm", methods), pkg: chain[0].APK})
	}
	return out
}

// mergeSink sums the worker_merge events of one campaign.
type mergeSink struct {
	mu            sync.Mutex
	offered, kept int
	err           error
}

func (s *mergeSink) Emit(line []byte) error {
	ev, err := obs.ParseEvent(line)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.err = err
		return err
	}
	if ev.Type == obs.EventWorkerMerge {
		s.offered += ev.From
		s.kept += ev.Count
	}
	return nil
}

// forcedCollect runs a force-execution campaign over app with a collector
// attached, returning the canonicalized result and the merge totals.
func forcedCollect(t *testing.T, app forcedApp, workers int) (*collector.Result, *mergeSink) {
	t.Helper()
	data, err := app.pkg.Dex()
	if err != nil {
		t.Fatal(err)
	}
	f, err := dex.Read(data)
	if err != nil {
		t.Fatal(err)
	}
	files := []*dex.File{f}
	tracker, err := coverage.NewTracker(files)
	if err != nil {
		t.Fatal(err)
	}
	sink := &mergeSink{}
	root := obs.New(sink).Start("reveal", app.name)
	defer root.End()
	col := collector.New()
	eng := forceexec.New(app.pkg, files)
	eng.InstallNatives = app.install
	eng.Driver = app.drive
	eng.ForceExceptionEdges = true
	eng.Workers = workers
	eng.Collector = col
	eng.Span = root
	if _, err := eng.Run(tracker); err != nil {
		t.Fatal(err)
	}
	if sink.err != nil {
		t.Fatal(sink.err)
	}
	return col.Result(), sink
}

// renderForced prints one campaign: merge totals, then per method key the
// tree count and the SHA-256 of each tree's fingerprint in order, the shape
// and metadata fields, and finally every class record's JSON encoding.
func renderForced(t *testing.T, b *strings.Builder, res *collector.Result, sink *mergeSink) {
	t.Helper()
	fmt.Fprintf(b, "merge offered=%d kept=%d\n", sink.offered, sink.kept)
	keys := make([]string, 0, len(res.Methods))
	for k := range res.Methods {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	enc := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, k := range keys {
		rec := res.Methods[k]
		fmt.Fprintf(b, "method %s trees=%d written=%t regs=%d ins=%d\n",
			k, len(rec.Trees), rec.Written, rec.RegistersSize, rec.InsSize)
		for _, tr := range rec.Trees {
			fmt.Fprintf(b, "  tree %x\n", sha256.Sum256([]byte(tr.Fingerprint())))
		}
		if len(rec.Tries) > 0 {
			fmt.Fprintf(b, "  tries %s\n", enc(rec.Tries))
		}
		pcs := make([]int, 0, len(rec.ReflTargets))
		for pc := range rec.ReflTargets {
			pcs = append(pcs, pc)
		}
		sort.Ints(pcs)
		for _, pc := range pcs {
			fmt.Fprintf(b, "  refl %d %s\n", pc, enc(rec.ReflTargets[pc]))
		}
	}
	for i := range res.Classes {
		fmt.Fprintf(b, "class %s\n", enc(&res.Classes[i]))
	}
}

// forcedWorkerCounts honors DEXLEGO_GOLDEN_WORKERS (the CI matrix) and
// defaults to serial plus four workers. Repeated counts run once.
func forcedWorkerCounts(t *testing.T) []int {
	t.Helper()
	env := os.Getenv("DEXLEGO_GOLDEN_WORKERS")
	if env == "" {
		return []int{1, 4}
	}
	var counts []int
	for _, field := range strings.Split(env, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil {
			t.Fatalf("DEXLEGO_GOLDEN_WORKERS %q: %v", env, err)
		}
		if !slices.Contains(counts, n) {
			counts = append(counts, n)
		}
	}
	return counts
}

// goldenSections splits the golden file into per-app sections keyed by the
// "== name" header line.
func goldenSections(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(forcedGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, sec := range strings.Split(string(data), "== ")[1:] {
		name, body, _ := strings.Cut(sec, "\n")
		out[name] = body
	}
	return out
}

// TestForcedCollectionGolden pins the forced collection result — tree
// identities, method metadata, class records, and the worker_merge
// offered/kept totals — at every worker count against
// testdata/forced_golden.txt.
func TestForcedCollectionGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("forced campaigns are slow under -short")
	}
	want := goldenSections(t)
	apps := forcedApps(t)
	if len(want) != len(apps) {
		t.Fatalf("%s has %d sections, want %d", forcedGoldenPath, len(want), len(apps))
	}
	for _, app := range apps {
		t.Run(app.name, func(t *testing.T) {
			for _, workers := range forcedWorkerCounts(t) {
				var b strings.Builder
				res, sink := forcedCollect(t, app, workers)
				renderForced(t, &b, res, sink)
				got := b.String()
				if got == want[app.name] {
					continue
				}
				gl, wl := strings.Split(got, "\n"), strings.Split(want[app.name], "\n")
				for i := 0; i < len(gl) || i < len(wl); i++ {
					var g, w string
					if i < len(gl) {
						g = gl[i]
					}
					if i < len(wl) {
						w = wl[i]
					}
					if g != w {
						t.Fatalf("workers=%d: line %d of section differs:\n got: %q\nwant: %q", workers, i+1, g, w)
					}
				}
			}
		})
	}
}

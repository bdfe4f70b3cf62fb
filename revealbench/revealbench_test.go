package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestPercentileRefusesP99BelowThousandSamples(t *testing.T) {
	samples := make([]float64, 999)
	for i := range samples {
		samples[i] = float64(i)
	}
	if _, err := percentile(samples, 0.99); err == nil {
		t.Fatal("p99 of 999 samples reported; want refusal")
	}
	samples = append(samples, 999)
	v, err := percentile(samples, 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if v != 989 {
		t.Fatalf("p99 of 0..999 = %v, want 989 (10 samples beyond it)", v)
	}
	if _, err := percentile(samples[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples reported; want refusal")
	}
}

// tinyConfig is a smoke-test run of one workload.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 7, seconds: 0.2, trace: trace,
		spans: t.TempDir(), sz: tinySizes,
	}
}

func TestCorruptedRevealOutputCountsAsFailed(t *testing.T) {
	w, err := setupReveals(tinyConfig(t, "whale", false))
	if err != nil {
		t.Fatal(err)
	}
	w.apps[0].ref[len(w.apps[0].ref)/2] ^= 0xff
	p := w.measure(0, 20)
	if p.failed == 0 || p.failed >= p.attempted {
		t.Fatalf("failed %d of %d; want exactly the reveals of the corrupted app", p.failed, p.attempted)
	}
	if !strings.Contains(p.firstErr.Error(), errMismatch.Error()) {
		t.Fatalf("first failure %v, want a mismatch", p.firstErr)
	}
}

func TestCorruptedCorpusReferenceFailsTheOracle(t *testing.T) {
	w, err := setupReveals(tinyConfig(t, "corpus", false))
	if err != nil {
		t.Fatal(err)
	}
	if errs := corpusOracle(w.apps); len(errs) != 0 {
		t.Fatalf("oracle on a correct corpus: %v", errs)
	}
	for _, a := range w.apps {
		if a.flows > 0 {
			// A revealed market app cut down to its header.
			a.ref = a.ref[:0x70]
			break
		}
	}
	if errs := corpusOracle(w.apps); len(errs) == 0 {
		t.Fatal("oracle passed a corrupted market-app output")
	}
}

func TestCorruptedServedArtifactCountsAsFailed(t *testing.T) {
	w, err := setupServe(tinyConfig(t, "serve", false))
	if err != nil {
		t.Fatal(err)
	}
	v := w.versions[0]
	v.ref = append([]byte(nil), v.ref...)
	v.ref[len(v.ref)/2] ^= 0xff
	ep, err := w.runEpisode(w.traces[0], nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, r := range ep.requests {
		if r.err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no request failed although a served artifact differs from its reference")
	}
	p := &phase{}
	w.oracle(p, []*episode{ep})
	if p.failed == 0 {
		t.Fatal("the cold-reveal oracle passed a corrupted reference artifact")
	}
}

// benchmarkNames reads the metric names BENCHMARK.json lists.
func benchmarkNames(t *testing.T) (e2e, layers []string) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layers)
	return e2e, layers
}

func keys(m map[string]metricValue) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestEveryWorkloadPassesATinySmokeRun(t *testing.T) {
	e2e, layers := benchmarkNames(t)
	for _, info := range workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			start := time.Now()
			res, err := runWorkload(tinyConfig(t, info.name, trace), &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", info.name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: %+v\n%s", info.name, trace, res, out.String())
			}
			want := e2e
			if trace {
				want = layers
			}
			if got := keys(res.Metrics); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json lists %v", info.name, trace, got, want)
			}
			t.Logf("%s trace=%v: %d attempted in %v", info.name, trace, res.Attempted, time.Since(start))
		}
	}
}

func TestSameSeedGivesSameInputs(t *testing.T) {
	a, ta, err := serveInputs(3, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	b, tb, err := serveInputs(3, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("version %s differs between two generations", a[i].id)
		}
	}
	if fmt.Sprint(ta) != fmt.Sprint(tb) {
		t.Fatal("the request traces differ between two generations")
	}
	// Versions of one chain are numbered consecutively, so a version other
	// than a chain's v1 follows version v-1.
	for _, trace := range ta {
		sent := map[int]bool{}
		for i, v := range trace {
			if !sent[v] && !strings.HasSuffix(a[v].id, "-v1") && !sent[v-1] {
				t.Fatalf("request %d sends %s before the version it follows", i, a[v].id)
			}
			sent[v] = true
		}
		if len(sent) != len(a) {
			t.Fatalf("a trace sends %d of %d versions", len(sent), len(a))
		}
	}
}

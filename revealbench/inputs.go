package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"dexlego"
	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/dex"
	"dexlego/internal/droidbench"
	"dexlego/internal/packer"
	"dexlego/internal/workload"
)

// app is one generated input of a reveal workload together with the facts
// its oracle checks, all known before DexLego runs.
type app struct {
	id   string
	pkg  *apk.APK
	opts dexlego.Options

	// sample is set for a DroidBench input (corpus): its ground-truth
	// leakiness feeds the Table II tallies.
	sample *droidbench.Sample
	// flows is the ground-truth flow count of a Table V market app
	// (corpus inputs without a sample).
	flows int
	// insns is the instruction count of a whale's classes.dex, which the
	// launch executes in full.
	insns int

	// ref is the revealed classes.dex of the first (warm-up) reveal; every
	// later reveal of the app must reproduce it byte for byte.
	ref []byte
}

// sizes is how large a run's inputs are. Tests use tiny sizes.
type sizes struct {
	whaleApps     int
	whaleMinGiant int
	whaleMaxGiant int
	whaleGiants   int
	whaleClasses  int
	forceApps     int
	forceMinMeth  int
	forceMaxMeth  int
	serveChains   int
	serveMinMeth  int
	serveMaxMeth  int
	serveVersions int
	serveRequests int
	minSamples    int
	setupRepeats  int
}

var fullSizes = sizes{
	whaleApps: 8, whaleMinGiant: 5000, whaleMaxGiant: 40000, whaleClasses: 40,
	forceApps: 16, forceMinMeth: 16, forceMaxMeth: 64,
	serveChains: 4, serveMinMeth: 16, serveMaxMeth: 24, serveVersions: 12, serveRequests: 400,
	minSamples: 100, setupRepeats: 5,
}

var tinySizes = sizes{
	whaleApps: 2, whaleMinGiant: 500, whaleMaxGiant: 1000, whaleClasses: 4,
	forceApps: 2, forceMinMeth: 4, forceMaxMeth: 6,
	serveChains: 2, serveMinMeth: 4, serveMaxMeth: 6, serveVersions: 3, serveRequests: 24,
	minSamples: 100, setupRepeats: 1,
}

// newRand returns the workload's deterministic source: the same seed gives
// the same inputs, and each workload draws from its own stream.
func newRand(seed uint64, stream string) *rand.Rand {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// stratified draws n values spread over [lo, hi]: one per equal-width
// stratum, jittered within the middle fifth of its stratum, then shuffled.
// Every seed therefore covers the whole range with the same mix of small
// and large inputs.
func stratified(r *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	width := float64(hi-lo) / float64(n)
	for i := range out {
		out[i] = lo + int(width*(float64(i)+0.4+0.2*r.Float64()))
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// corpusApps builds the paper's Table II and Table V inputs: the 134
// DroidBench samples packed with 360, and the nine market apps each packed
// with its own packer, in a seeded order.
func corpusApps(seed uint64) ([]*app, error) {
	p360, err := packer.ByName("360")
	if err != nil {
		return nil, err
	}
	var apps []*app
	for _, s := range droidbench.Suite() {
		pkg, err := s.Build()
		if err != nil {
			return nil, err
		}
		packed, err := p360.Pack(pkg)
		if err != nil {
			return nil, fmt.Errorf("pack %s: %w", s.Name, err)
		}
		s := s
		apps = append(apps, &app{
			id:     s.Name,
			pkg:    packed,
			sample: s,
			opts: dexlego.Options{
				InstallNatives: func(rt *art.Runtime) {
					p360.InstallNatives(rt)
					s.InstallNatives(rt)
				},
				Workers: 1,
			},
		})
	}
	market, err := workload.MarketApps()
	if err != nil {
		return nil, err
	}
	for _, m := range market {
		apps = append(apps, &app{
			id:    m.Package,
			pkg:   m.Packed,
			flows: m.Flows,
			opts:  dexlego.Options{InstallNatives: m.Packer.InstallNatives, Workers: 1},
		})
	}
	r := newRand(seed, "corpus")
	r.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	return apps, nil
}

// whaleApps builds whale apps whose giant-method sizes are a seeded,
// stratified mix over [whaleMinGiant, whaleMaxGiant] instructions. Each app
// has one giant method, not the generator's default three, so a run of a
// few seconds completes the 100 reveals p90 needs.
func whaleApps(seed uint64, sz sizes) ([]*app, error) {
	r := newRand(seed, "whale")
	var apps []*app
	for i, giant := range stratified(r, sz.whaleApps, sz.whaleMinGiant, sz.whaleMaxGiant) {
		w, err := workload.Whale(workload.WhaleConfig{
			Classes:      sz.whaleClasses,
			GiantMethods: 1,
			GiantInsns:   giant,
			Seed:         r.Uint32(),
		})
		if err != nil {
			return nil, err
		}
		apps = append(apps, &app{
			id:    fmt.Sprintf("whale%d-%d", i, giant),
			pkg:   w.APK,
			insns: w.Insns,
			opts:  dexlego.Options{Workers: 0},
		})
	}
	return apps, nil
}

// forceApps builds version-chain v1 apps with a seeded, stratified number
// of worker methods, each behind a gate the app never takes.
func forceApps(seed uint64, sz sizes) ([]*app, error) {
	r := newRand(seed, "force")
	var apps []*app
	for i, methods := range stratified(r, sz.forceApps, sz.forceMinMeth, sz.forceMaxMeth) {
		chain, err := workload.VersionChain(workload.ChainConfig{
			Methods: methods, Links: 1, Seed: r.Uint32(),
		})
		if err != nil {
			return nil, err
		}
		apps = append(apps, &app{
			id:   fmt.Sprintf("chain%d-%dm", i, methods),
			pkg:  chain[0].APK,
			opts: dexlego.Options{ForceExecution: true, Workers: 0},
		})
	}
	return apps, nil
}

// version is one distinct APK of the serve workload.
type version struct {
	id   string
	pkg  *apk.APK
	body []byte
	// workers are the worker classes of the input's classes.dex; the
	// revealed artifact must list every one.
	workers []string
	// ref is the first artifact the server returned for this version;
	// every later fetch must reproduce it byte for byte.
	ref []byte
}

// serveTraces is how many request traces a serve run draws; its episodes
// cycle through them, so a run's figures average over many interleavings.
const serveTraces = 16

// serveInputs builds the served version chains and the request traces.
func serveInputs(seed uint64, sz sizes) ([]*version, [][]int, error) {
	r := newRand(seed, "serve")
	var versions []*version
	var chains [][]int
	for c, methods := range stratified(r, sz.serveChains, sz.serveMinMeth, sz.serveMaxMeth) {
		chain, err := workload.VersionChain(workload.ChainConfig{
			Methods: methods, Links: sz.serveVersions - 1, Seed: r.Uint32(),
		})
		if err != nil {
			return nil, nil, err
		}
		var idx []int
		for v, a := range chain {
			body, err := a.APK.Bytes()
			if err != nil {
				return nil, nil, err
			}
			workers, err := workerClasses(a.APK)
			if err != nil {
				return nil, nil, err
			}
			idx = append(idx, len(versions))
			versions = append(versions, &version{
				id: fmt.Sprintf("c%d-v%d", c, v+1), pkg: a.APK, body: body, workers: workers,
			})
		}
		chains = append(chains, idx)
	}
	traces := make([][]int, serveTraces)
	for i := range traces {
		traces[i] = serveTrace(r, chains, max(sz.serveRequests, len(versions)))
	}
	return versions, traces, nil
}

// serveTrace draws one request trace of n requests. Every version first
// appears in chain order, the chains interleaved at random, at a roughly
// even spacing; the other requests repeat a version already sent, so about
// 1 - versions/n of the requests are cache hits.
func serveTrace(r *rand.Rand, chains [][]int, n int) []int {
	var fresh []int
	heads := make([]int, len(chains))
	for total := 0; total < len(chains); {
		c := r.IntN(len(chains))
		if heads[c] == len(chains[c]) {
			continue
		}
		fresh = append(fresh, chains[c][heads[c]])
		if heads[c]++; heads[c] == len(chains[c]) {
			total++
		}
	}
	isFresh := make([]bool, n)
	spacing := float64(n) / float64(len(fresh))
	for k := range fresh {
		pos := int(spacing * (float64(k) + 0.5*r.Float64()))
		if k == 0 {
			pos = 0 // the first request cannot repeat anything
		}
		for isFresh[pos] {
			pos++
		}
		isFresh[pos] = true
	}
	trace := make([]int, 0, n)
	seen := 0
	for i := 0; i < n; i++ {
		if isFresh[i] {
			trace = append(trace, fresh[seen])
			seen++
			continue
		}
		trace = append(trace, fresh[r.IntN(seen)])
	}
	return trace
}

// workerClasses lists the worker classes of an input's classes.dex.
func workerClasses(pkg *apk.APK) ([]string, error) {
	data, err := pkg.Dex()
	if err != nil {
		return nil, err
	}
	f, err := dex.Read(data)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, d := range classNames(f) {
		if strings.HasPrefix(d, "Lgen/chain/W") {
			out = append(out, d)
		}
	}
	return out, nil
}

// classNames lists the class descriptors a DEX file defines, sorted.
func classNames(f *dex.File) []string {
	out := make([]string, 0, len(f.Classes))
	for i := range f.Classes {
		out = append(out, f.TypeName(f.Classes[i].Class))
	}
	sort.Strings(out)
	return out
}

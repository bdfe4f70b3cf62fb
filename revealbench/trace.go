package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dexlego"
	"dexlego/internal/art"
	"dexlego/internal/collector"
	"dexlego/internal/coverage"
	"dexlego/internal/dex"
	"dexlego/internal/forceexec"
	"dexlego/internal/reassembler"
)

// span is one timed layer call, recorded by the benchmark around the
// public call it names.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	App    string `json:"app"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
	// Alloc is heap bytes allocated during the call by the whole process.
	Alloc uint64 `json:"alloc_bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a span under way.
type open struct {
	tr     *tracer
	s      span
	alloc0 uint64
}

// start opens a span; parent is the id of the enclosing span (0 for none).
func (tr *tracer) start(name, app string, parent int) *open {
	tr.mu.Lock()
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{}) // reserve the id
	tr.mu.Unlock()
	o := &open{tr: tr, s: span{ID: id, Parent: parent, Name: name, App: app}}
	o.alloc0 = allocBytes()
	o.s.Start = int64(time.Since(tr.t0))
	return o
}

// end closes the span and returns it.
func (o *open) end() span {
	o.s.End = int64(time.Since(o.tr.t0))
	o.s.Alloc = allocBytes() - o.alloc0
	o.tr.mu.Lock()
	o.tr.spans[o.s.ID-1] = o.s
	o.tr.mu.Unlock()
	return o.s
}

// write stores the spans as JSON lines.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			tr.mu.Unlock()
			f.Close()
			return err
		}
	}
	tr.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerSums accumulates the traced layer figures over step reveals.
type layerSums struct {
	mu sync.Mutex

	reveals, forces                        int
	loadNS, collectNS, plainNS, coverageNS time.Duration
	decodeNS, forceNS, reassNS             time.Duration
	encodeNS, verifyNS                     time.Duration
	collectAlloc, reassAlloc, verifyAlloc  uint64
	insns, outBytes                        int
	methods, stubs, variants               int
	forcedRuns, iters, newBranches         int
	busyNS, busyCapNS                      time.Duration
	// perApp holds each app's step-reveal walls, for the slowdown against
	// the untraced latency of the same app.
	perApp map[string][]float64
}

// stepReveal makes the calls dexlego.Reveal makes, in the same order, one
// layer at a time, each inside a span, and returns the revealed
// classes.dex. Two extra runs of the driver, one with no hooks and one with
// only coverage hooks, attribute the hook costs; a separate decode of the
// input gives the decoder cost when Reveal itself does not force.
func stepReveal(tr *tracer, sums *layerSums, a *app) ([]byte, error) {
	opts := a.opts
	device := art.DefaultPhone()
	install := func(rt *art.Runtime) {
		for key, fn := range opts.Natives {
			rt.RegisterNative(key, fn)
		}
		if opts.InstallNatives != nil {
			opts.InstallNatives(rt)
		}
	}
	var forceStats *forceexec.Stats
	var forceWall time.Duration
	var covered int

	root := tr.start("reveal", a.id, 0)
	// 1. Load the runtime with the collector hooks on, then drive the app.
	col := collector.New()
	sp := tr.start("art.load", a.id, root.s.ID)
	rt := art.NewRuntime(device)
	install(rt)
	rt.AddHooks(col.Hooks())
	err := rt.LoadAPK(a.pkg)
	load := sp.end()
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	sp = tr.start("collector.run", a.id, root.s.ID)
	_ = dexlego.DefaultDriver(rt) // app-level crashes do not abort collection
	collect := sp.end()

	// 2. Force execution, when the workload forces.
	var decode span
	if opts.ForceExecution {
		sp = tr.start("dex.decode", a.id, root.s.ID)
		data, err := a.pkg.Dex()
		var f *dex.File
		if err == nil {
			f, err = dex.Read(data)
		}
		decode = sp.end()
		if err != nil {
			return nil, fmt.Errorf("decode: %w", err)
		}
		files := []*dex.File{f}
		tracker, err := coverage.NewTracker(files)
		if err != nil {
			return nil, err
		}
		eng := forceexec.New(a.pkg, files)
		eng.InstallNatives = install
		eng.Driver = dexlego.DefaultDriver
		eng.Workers = opts.Workers
		eng.Collector = col
		sp = tr.start("forceexec.run", a.id, root.s.ID)
		forceStats, err = eng.Run(tracker)
		forceWall = sp.end().dur()
		if err != nil {
			return nil, fmt.Errorf("force execution: %w", err)
		}
		covered = tracker.Report().Branch.Covered
	}

	// 3. Reassemble; 4. encode; 5. verify.
	sp = tr.start("reassembler.run", a.id, root.s.ID)
	f, stats, err := reassembler.ReassembleCfg(col.Result(), nil, reassembler.Config{Workers: opts.Workers})
	reass := sp.end()
	if err != nil {
		return nil, fmt.Errorf("reassemble: %w", err)
	}
	sp = tr.start("dex.encode", a.id, root.s.ID)
	data, err := f.Write()
	encode := sp.end()
	if err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	revealed := a.pkg.Clone()
	revealed.SetDex(data)
	sp = tr.start("dex.verify", a.id, root.s.ID)
	out, err := revealed.Dex()
	var parsed *dex.File
	if err == nil {
		parsed, err = dex.ReadShared(out)
	}
	if err == nil {
		if errs := dex.Verify(parsed); len(errs) > 0 {
			err = errs[0]
		}
	}
	verify := sp.end()
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	whole := root.end()

	// The attribution runs: the driver with no hooks, then with only the
	// coverage hooks.
	sp = tr.start("load", a.id, 0)
	rt = art.NewRuntime(device)
	install(rt)
	err = rt.LoadAPK(a.pkg)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.start("art.run", a.id, 0)
	_ = dexlego.DefaultDriver(rt)
	plain := sp.end()

	if !opts.ForceExecution {
		sp = tr.start("dex.decode", a.id, 0)
		in, err := a.pkg.Dex()
		if err == nil {
			_, err = dex.Read(in)
		}
		decode = sp.end()
		if err != nil {
			return nil, fmt.Errorf("decode: %w", err)
		}
	}
	in, err := a.pkg.Dex()
	if err != nil {
		return nil, err
	}
	inFile, err := dex.Read(in)
	if err != nil {
		return nil, err
	}
	tracker, err := coverage.NewTracker([]*dex.File{inFile})
	if err != nil {
		return nil, err
	}
	sp = tr.start("load", a.id, 0)
	rt = art.NewRuntime(device)
	install(rt)
	rt.AddHooks(tracker.Hooks())
	err = rt.LoadAPK(a.pkg)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.start("coverage.run", a.id, 0)
	_ = dexlego.DefaultDriver(rt)
	cov := sp.end()
	baseline := tracker.Report().Branch.Covered

	sums.mu.Lock()
	defer sums.mu.Unlock()
	sums.reveals++
	sums.perApp[a.id] = append(sums.perApp[a.id], ms(whole.dur()))
	sums.loadNS += load.dur()
	sums.collectNS += collect.dur()
	sums.collectAlloc += collect.Alloc
	sums.plainNS += plain.dur()
	sums.coverageNS += cov.dur()
	sums.decodeNS += decode.dur()
	sums.reassNS += reass.dur()
	sums.reassAlloc += reass.Alloc
	sums.encodeNS += encode.dur()
	sums.verifyNS += verify.dur()
	sums.verifyAlloc += verify.Alloc
	sums.insns += col.Result().ExecutedInstructionCount()
	sums.outBytes += len(data)
	sums.methods += stats.Methods
	sums.stubs += stats.Stubs
	sums.variants += stats.Variants
	if forceStats != nil {
		sums.forces++
		sums.forceNS += forceWall
		sums.forcedRuns += forceStats.ForcedRuns
		sums.iters += forceStats.Iterations
		sums.newBranches += covered - baseline
		sums.busyNS += time.Duration(forceStats.BusyNS)
		sums.busyCapNS += forceWall * time.Duration(forceStats.Workers)
	}
	return data, nil
}

// checkStep compares a step-by-step reveal with the reference Reveal made
// of the same app.
func checkStep(a *app, data []byte) error {
	if !bytes.Equal(data, a.ref) {
		return fmt.Errorf("%s: step-by-step reveal differs from dexlego.Reveal", a.id)
	}
	return nil
}

// metrics turns the sums into per-layer metrics, averaged per step reveal.
// The forceexec metrics appear only when some step reveal forced.
func (s *layerSums) metrics() map[string]float64 {
	n := float64(max(s.reveals, 1))
	out := map[string]float64{
		"art.load_ms":            ms(s.loadNS) / n,
		"art.run_ms":             ms(s.plainNS) / n,
		"collector.run_ms":       ms(s.collectNS) / n,
		"collector.hook_ms":      ms(s.collectNS-s.plainNS) / n,
		"collector.insns":        float64(s.insns) / n,
		"collector.ns_per_insn":  float64(s.collectNS) / float64(max(s.insns, 1)),
		"collector.alloc_mib":    float64(s.collectAlloc) / mib / n,
		"coverage.hook_ms":       ms(s.coverageNS-s.plainNS) / n,
		"reassembler.run_ms":     ms(s.reassNS) / n,
		"reassembler.alloc_mib":  float64(s.reassAlloc) / mib / n,
		"reassembler.methods":    float64(s.methods) / n,
		"reassembler.stubs":      float64(s.stubs) / n,
		"reassembler.variants":   float64(s.variants) / n,
		"dex.decode_ms":          ms(s.decodeNS) / n,
		"dex.encode_ms":          ms(s.encodeNS) / n,
		"dex.encode_ns_per_byte": float64(s.encodeNS) / float64(max(s.outBytes, 1)),
		"dex.out_kib":            float64(s.outBytes) / 1024 / n,
		"dex.verify_ms":          ms(s.verifyNS) / n,
		"dex.verify_alloc_mib":   float64(s.verifyAlloc) / mib / n,
	}
	if s.forces > 0 {
		f := float64(s.forces)
		out["forceexec.run_ms"] = ms(s.forceNS) / f
		out["forceexec.forced_runs"] = float64(s.forcedRuns) / f
		out["forceexec.iterations"] = float64(s.iters) / f
		out["forceexec.branch_yield"] = float64(s.newBranches) / float64(max(s.forcedRuns, 1))
		out["forceexec.busy_ratio"] = float64(s.busyNS) / float64(max(s.busyCapNS, 1))
	}
	return out
}

// slowdown is the step-by-step reveal wall over the untraced latency, summed
// over the apps both phases saw.
func (s *layerSums) slowdown(untraced map[string][]float64) (float64, error) {
	var traced, plain float64
	for id, t := range s.perApp {
		u := untraced[id]
		if len(u) == 0 {
			continue
		}
		traced += median(t)
		plain += median(u)
	}
	if plain == 0 {
		return 0, errors.New("no app was seen by both the traced and the untraced phase")
	}
	return traced / plain, nil
}

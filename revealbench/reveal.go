package main

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dexlego"
	"dexlego/internal/apk"
)

// revealWorkload is a closed-loop workload of one-shot dexlego.Reveal calls
// (corpus, whale, force).
type revealWorkload struct {
	callers int
	apps    []*app
	// check is the per-output oracle beyond byte identity with the app's
	// reference (nil for none). It reads only counts the generator knows,
	// so it is cheap enough to run on every output.
	check func(a *app, res *dexlego.Result) error
	// oracle checks the reference outputs after the timed phase and returns
	// one error per failed check.
	oracle func(apps []*app) []error
}

// errMismatch marks an output that differs from its input's reference.
var errMismatch = errors.New("revealed classes.dex differs from the reference reveal")

// revealDex returns the revealed classes.dex of a result.
func revealDex(res *dexlego.Result) ([]byte, error) {
	if res == nil || res.Revealed == nil {
		return nil, errors.New("no revealed APK")
	}
	data, ok := res.Revealed.File(apk.DexEntry)
	if !ok {
		return nil, errors.New("revealed APK has no classes.dex")
	}
	return data, nil
}

// verifyOutput checks one reveal: byte identity with the app's reference,
// then the per-output oracle.
func (w *revealWorkload) verifyOutput(a *app, res *dexlego.Result) error {
	data, err := revealDex(res)
	if err != nil {
		return err
	}
	if !bytes.Equal(data, a.ref) {
		return fmt.Errorf("%s: %w", a.id, errMismatch)
	}
	if w.check != nil {
		return w.check(a, res)
	}
	return nil
}

// warmUp reveals every app once, serially, and keeps each output as the
// app's reference.
func (w *revealWorkload) warmUp() error {
	for _, a := range w.apps {
		res, err := dexlego.Reveal(a.pkg, a.opts)
		if err != nil {
			return fmt.Errorf("warm-up reveal %s: %w", a.id, err)
		}
		if a.ref, err = revealDex(res); err != nil {
			return fmt.Errorf("warm-up reveal %s: %w", a.id, err)
		}
	}
	return nil
}

// block is one stretch of a measured phase: one pass over a reveal
// workload's apps (every app once, in the seeded order), or one serve
// episode. Every block does the same work, and reporting the median over
// blocks keeps a burst of load from other processes on the host from
// moving a run's figures.
type block struct {
	ops   int
	wall  time.Duration
	cpu   time.Duration
	latMS []float64
}

// phase is what one measured phase observed.
type phase struct {
	latMS     []float64
	perApp    map[string][]float64 // latency samples by app id
	blocks    []block
	attempted int
	failed    int
	firstErr  error
	m         *meter
}

func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// measure runs the closed loop: each caller reveals the next app of the
// seeded order and only then takes another, until the time is up and at
// least minSamples reveals completed. Outputs are checked as they arrive;
// the check runs after the latency is taken. The caller completing the
// last operation of a pass reads the process counters.
func (w *revealWorkload) measure(d time.Duration, minSamples int) *phase {
	p := &phase{perApp: map[string][]float64{}}
	type sample struct {
		app *app
		seq int64
		lat time.Duration
		err error
	}
	type mark struct {
		seq int64
		at  time.Time
		cpu time.Duration
	}
	var next, done atomic.Int64
	var mu sync.Mutex
	var samples []sample
	p.m = startMeter()
	start := time.Now()
	marks := []mark{{0, start, processCPU()}}
	var wg sync.WaitGroup
	for c := 0; c < w.callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			for time.Since(start) < d || done.Load() < int64(minSamples) {
				a := w.apps[int(next.Add(1)-1)%len(w.apps)]
				t0 := time.Now()
				res, err := dexlego.Reveal(a.pkg, a.opts)
				lat := time.Since(t0)
				if err == nil {
					err = w.verifyOutput(a, res)
				}
				seq := done.Add(1)
				if seq%int64(len(w.apps)) == 0 {
					p.m.cut()
					m := mark{seq, time.Now(), processCPU()}
					mu.Lock()
					marks = append(marks, m)
					mu.Unlock()
				}
				local = append(local, sample{a, seq, lat, err})
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	p.m.finish()
	sort.Slice(marks, func(i, j int) bool { return marks[i].seq < marks[j].seq })
	for i := 1; i < len(marks); i++ {
		p.blocks = append(p.blocks, block{
			ops:  len(w.apps),
			wall: marks[i].at.Sub(marks[i-1].at),
			cpu:  marks[i].cpu - marks[i-1].cpu,
		})
	}
	for _, s := range samples {
		p.attempted++
		if s.err != nil {
			p.fail(s.err)
			continue
		}
		l := ms(s.lat)
		p.latMS = append(p.latMS, l)
		p.perApp[s.app.id] = append(p.perApp[s.app.id], l)
		if b := int((s.seq - 1) / int64(len(w.apps))); b < len(p.blocks) {
			p.blocks[b].latMS = append(p.blocks[b].latMS, l)
		}
	}
	return p
}

// runOracle checks the references after the timed phase; each failed
// check counts as one failure. Every measured output was byte-identical to
// its reference, so the check covers them all.
func (w *revealWorkload) runOracle(p *phase) {
	if w.oracle == nil {
		return
	}
	for _, err := range w.oracle(w.apps) {
		p.fail(fmt.Errorf("oracle: %w", err))
	}
}

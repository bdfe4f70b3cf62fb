package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"dexlego"
	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/packer"
	"dexlego/internal/server"
	"dexlego/internal/store"
)

// serveWorkload drives the in-process reveal server the way -serve runs it:
// an in-memory artifact store and method cache with incremental reveal on.
// Clients post APK bytes with ?wait=1&force=1 and wait for each answer
// before sending the next request (closed loop).
type serveWorkload struct {
	clients  int
	versions []*version
	traces   [][]int
}

// jobReply is the part of a job status the benchmark reads.
type jobReply struct {
	ID            string `json:"id"`
	State         string `json:"state"`
	Key           string `json:"key"`
	CacheHit      bool   `json:"cacheHit"`
	Err           string `json:"err"`
	QueueNS       int64  `json:"queueNS"`
	RunNS         int64  `json:"runNS"`
	TotalNS       int64  `json:"totalNS"`
	RevealedBytes int    `json:"revealedBytes"`
}

// request is one answered (or failed) request of an episode.
type request struct {
	version int
	lat     time.Duration
	reply   jobReply
	err     error
}

// episode is one pass of the trace against a fresh server.
type episode struct {
	wall     time.Duration
	requests []request
	// Counters read after the trace, before the server closed.
	coalesced, rejected int64
	storeHits           int64
	mcHits, mcMisses    int64
	mcBytes             int64
	storeGetNS          []int64
}

// runEpisode starts a fresh server and fresh caches, replays the trace with
// the workload's clients, then (with the clock paused) fetches the artifact
// of every version and checks it against the version's reference, or makes
// it the reference when there is none yet. m, when set, is resumed only
// while the trace runs. after, when set, reads the live server last.
func (w *serveWorkload) runEpisode(trace []int, m *meter, after func(*server.Server, *episode)) (*episode, error) {
	st, err := store.Open("", 0)
	if err != nil {
		return nil, err
	}
	mc, err := store.OpenMethodCache("", 0)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Store: st, MethodCache: mc})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	client := ts.Client()

	ep := &episode{requests: make([]request, len(trace))}
	var next atomic.Int64
	if m != nil {
		m.resume()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(trace) {
					return
				}
				ep.requests[i] = w.send(client, ts.URL, trace[i])
			}
		}()
	}
	wg.Wait()
	ep.wall = time.Since(start)
	if m != nil {
		m.pause()
	}

	// The last answered job of each version names its artifact.
	last := map[int]string{}
	for _, r := range ep.requests {
		if r.err == nil {
			last[r.version] = r.reply.ID
		}
	}
	for vi, v := range w.versions {
		id, ok := last[vi]
		if !ok {
			continue // every request of it failed and already counts
		}
		body, err := get(client, ts.URL+"/v1/jobs/"+id+"/artifact")
		if err != nil {
			return nil, fmt.Errorf("%s: fetch artifact: %w", v.id, err)
		}
		switch {
		case v.ref == nil:
			v.ref = body
		case !bytes.Equal(v.ref, body):
			// Fail every request of the version: they all returned it.
			for i := range ep.requests {
				if ep.requests[i].version == vi && ep.requests[i].err == nil {
					ep.requests[i].err = fmt.Errorf("%s: artifact differs from the reference", v.id)
				}
			}
		}
	}
	var sm server.Metrics
	body, err := get(client, ts.URL+"/v1/metrics")
	if err == nil {
		err = json.Unmarshal(body, &sm)
	}
	if err != nil {
		return nil, fmt.Errorf("server metrics: %w", err)
	}
	ep.coalesced, ep.rejected, ep.storeHits = sm.Jobs.Coalesced, sm.Jobs.Rejected, sm.Store.Hits
	ep.mcHits, ep.mcMisses, ep.mcBytes = mc.Hits(), mc.Misses(), mc.Bytes()
	if after != nil {
		after(srv, ep)
	}
	return ep, nil
}

// send posts one version and reads the job status the server answers with.
// A transport error, a status other than 200 (a 429 included), a job that
// did not finish, or an artifact of the wrong size is a failure.
func (w *serveWorkload) send(client *http.Client, base string, vi int) request {
	v := w.versions[vi]
	r := request{version: vi}
	t0 := time.Now()
	resp, err := client.Post(base+"/v1/reveal?wait=1&force=1", "application/zip", bytes.NewReader(v.body))
	if err != nil {
		r.err = err
		return r
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.lat = time.Since(t0)
	switch {
	case err != nil:
		r.err = err
	case resp.StatusCode != http.StatusOK:
		r.err = fmt.Errorf("%s: HTTP %d: %s", v.id, resp.StatusCode, bytes.TrimSpace(body))
	default:
		if err := json.Unmarshal(body, &r.reply); err != nil {
			r.err = fmt.Errorf("%s: job status: %w", v.id, err)
		} else if r.reply.State != string(server.StateDone) {
			r.err = fmt.Errorf("%s: job %s %s: %s", v.id, r.reply.ID, r.reply.State, r.reply.Err)
		} else if v.ref != nil && r.reply.RevealedBytes != len(v.ref) {
			r.err = fmt.Errorf("%s: artifact of %d bytes, reference has %d", v.id, r.reply.RevealedBytes, len(v.ref))
		}
	}
	return r
}

// get fetches a URL that must answer 200.
func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return body, nil
}

// measure replays fresh-server episodes until the time is up and at least
// minSamples requests completed. Only the trace replays are timed; each
// episode is one block.
func (w *serveWorkload) measure(d time.Duration, minSamples int, after func(*server.Server, *episode)) (*phase, []*episode, error) {
	p := &phase{}
	p.m = startMeter()
	p.m.pause()
	var eps []*episode
	var elapsed time.Duration
	for elapsed < d || p.attempted < minSamples {
		wall0, cpu0 := p.m.wall, p.m.cpu
		ep, err := w.runEpisode(w.traces[len(eps)%len(w.traces)], p.m, after)
		if err != nil {
			p.m.finish()
			return nil, nil, err
		}
		elapsed += ep.wall
		eps = append(eps, ep)
		b := block{
			ops:  len(ep.requests),
			wall: p.m.wall - wall0,
			cpu:  p.m.cpu - cpu0,
		}
		for _, r := range ep.requests {
			p.attempted++
			if r.err != nil {
				p.fail(r.err)
				continue
			}
			p.latMS = append(p.latMS, ms(r.lat))
			b.latMS = append(b.latMS, ms(r.lat))
		}
		p.blocks = append(p.blocks, b)
	}
	p.m.finish()
	return p, eps, nil
}

// allPackers installs the shell libraries of every supported packer, as
// the server does for each job.
func allPackers(rt *art.Runtime) {
	for _, pk := range packer.All() {
		pk.InstallNatives(rt)
	}
}

// servedOptions are the options of a served ?force=1 job with incremental
// reveal off: the cold one-shot reveal the served artifact must equal.
// Workers is 1, the per-job budget the server grants with two jobs on two
// cores; output is byte-identical at any count.
func servedOptions() dexlego.Options {
	return dexlego.Options{ForceExecution: true, InstallNatives: allPackers, Workers: 1}
}

// revealedBytes is a revealed APK serialized as the server stores it.
func revealedBytes(res *dexlego.Result) ([]byte, error) {
	if res == nil || res.Revealed == nil {
		return nil, errors.New("no revealed APK")
	}
	return res.Revealed.Bytes()
}

// setupServe generates the served versions and traces and runs a warm-up
// episode.
func setupServe(cfg config) (*serveWorkload, error) {
	versions, traces, err := serveInputs(cfg.seed, cfg.sz)
	if err != nil {
		return nil, err
	}
	w := &serveWorkload{clients: infoFor("serve").callers, versions: versions, traces: traces}
	// The warm-up episode runs the code paths once and fixes each
	// version's reference artifact.
	ep, err := w.runEpisode(traces[0], nil, nil)
	if err != nil {
		return nil, err
	}
	for _, r := range ep.requests {
		if r.err != nil {
			return nil, fmt.Errorf("warm-up: %w", r.err)
		}
	}
	return w, nil
}

// oracle checks every version's reference artifact against a cold one-shot
// Reveal; a failed version fails each request that returned it. It returns
// the cold reveal latency of each version and the reference apps the step
// reveals compare against.
func (w *serveWorkload) oracle(p *phase, eps []*episode) (map[string][]float64, []*app) {
	cold := map[string][]float64{}
	var apps []*app
	for vi, v := range w.versions {
		a := &app{id: v.id, pkg: v.pkg, opts: servedOptions()}
		t0 := time.Now()
		res, err := dexlego.Reveal(v.pkg, a.opts)
		lat := time.Since(t0)
		var coldAPK []byte
		if err == nil {
			coldAPK, err = revealedBytes(res)
		}
		if err == nil {
			a.ref, err = revealDex(res)
		}
		if err == nil {
			err = serveOracle(v, coldAPK)
		}
		if err != nil {
			n := 0
			for _, ep := range eps {
				for _, r := range ep.requests {
					if r.version == vi && r.err == nil {
						n++
					}
				}
			}
			for range max(n, 1) {
				p.fail(fmt.Errorf("oracle: %w", err))
			}
			continue
		}
		cold[v.id] = append(cold[v.id], ms(lat))
		apps = append(apps, a)
	}
	return cold, apps
}

// runServe measures the serve workload.
func runServe(cfg config, info *workloadInfo, rep *report) error {
	w, setupTimes, err := timedSetup(cfg, func() (*serveWorkload, error) { return setupServe(cfg) })
	if err != nil {
		return err
	}
	rep.note("%d versions, %d requests an episode", len(w.versions), len(w.traces[0]))
	d := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		rep.add(endToEnd, "setup_s", median(setupTimes), len(setupTimes))
		p, eps, err := w.measure(d, cfg.sz.minSamples, nil)
		if err != nil {
			return err
		}
		w.oracle(p, eps)
		rep.note("%d episodes", len(eps))
		if err := addLatency(rep, p, true); err != nil {
			return err
		}
		rep.finish(p.attempted, p.failed, p.firstErr)
		return nil
	}

	// Traced: an untraced half for the GC share, then traced episodes that
	// read the job splits, the cache counters and a store probe from the
	// live server, then a step-by-step reveal of every version.
	untraced, eps, err := w.measure(d/2, 1, nil)
	if err != nil {
		return err
	}
	addGC(rep, untraced)
	probe := func(srv *server.Server, ep *episode) {
		keys := map[string]bool{}
		for _, r := range ep.requests {
			if r.err == nil {
				keys[r.reply.Key] = true
			}
		}
		st := srv.Store()
		for k := range keys {
			t0 := time.Now()
			_, ok := st.Get(k)
			ns := time.Since(t0).Nanoseconds()
			if ok {
				ep.storeGetNS = append(ep.storeGetNS, ns)
			}
		}
	}
	traced, teps, err := w.measure(d/2, 1, probe)
	if err != nil {
		return err
	}
	w.addServerLayers(rep, teps)

	var parseNS int64
	parses := 0
	for range 5 {
		for _, v := range w.versions {
			t0 := time.Now()
			pkg, err := apk.Read(v.body)
			if err != nil {
				return err
			}
			pkg.ContentHash()
			parseNS += time.Since(t0).Nanoseconds()
			parses++
		}
	}
	rep.add(perLayer, "apk.parse_us", float64(parseNS)/1e3/float64(parses), parses)

	all := &phase{attempted: untraced.attempted + traced.attempted, failed: untraced.failed + traced.failed}
	all.firstErr = untraced.firstErr
	if all.firstErr == nil {
		all.firstErr = traced.firstErr
	}
	cold, apps := w.oracle(all, append(eps, teps...))
	tr := newTracer()
	sums := &layerSums{perApp: map[string][]float64{}}
	for _, a := range apps {
		data, err := stepReveal(tr, sums, a)
		if err == nil {
			err = checkStep(a, data)
		}
		all.attempted++
		if err != nil {
			all.fail(fmt.Errorf("%s: %w", a.id, err))
		}
	}
	addLayers(rep, sums)
	slow, err := sums.slowdown(cold)
	if err != nil {
		return err
	}
	rep.add(perLayer, "trace.slowdown", slow, sums.reveals)
	if err := writeSpans(cfg, tr, rep); err != nil {
		return err
	}
	rep.finish(all.attempted, all.failed, all.firstErr)
	return nil
}

// addServerLayers prints the served-path layer metrics of traced episodes.
func (w *serveWorkload) addServerLayers(rep *report, eps []*episode) {
	var reqs, misses int
	var queueNS, runNS, overheadNS int64
	var storeHits, mcHits, mcLookups, coalesced, rejected, mcBytes int64
	var getNS []float64
	for _, ep := range eps {
		for _, r := range ep.requests {
			if r.err != nil {
				continue
			}
			reqs++
			overheadNS += r.lat.Nanoseconds() - r.reply.TotalNS
			if !r.reply.CacheHit {
				misses++
				queueNS += r.reply.QueueNS
				runNS += r.reply.RunNS
			}
		}
		storeHits += ep.storeHits
		mcHits += ep.mcHits
		mcLookups += ep.mcHits + ep.mcMisses
		mcBytes += ep.mcBytes
		coalesced += ep.coalesced
		rejected += ep.rejected
		for _, ns := range ep.storeGetNS {
			getNS = append(getNS, float64(ns))
		}
	}
	total := 0
	for _, ep := range eps {
		total += len(ep.requests)
	}
	rep.add(perLayer, "store.get_us", median(getNS)/1e3, len(getNS))
	rep.add(perLayer, "store.hit_ratio", float64(storeHits)/float64(max(total, 1)), total)
	rep.add(perLayer, "methodcache.hit_ratio", float64(mcHits)/float64(max(mcLookups, 1)), int(mcLookups))
	rep.add(perLayer, "methodcache.resident_mib", float64(mcBytes)/mib/float64(max(len(eps), 1)), len(eps))
	rep.add(perLayer, "server.queue_ms", float64(queueNS)/1e6/float64(max(misses, 1)), misses)
	rep.add(perLayer, "server.run_ms", float64(runNS)/1e6/float64(max(misses, 1)), misses)
	rep.add(perLayer, "server.overhead_ms", float64(overheadNS)/1e6/float64(max(reqs, 1)), reqs)
	rep.add(perLayer, "server.coalesced", float64(coalesced), total)
	rep.add(perLayer, "server.rejected", float64(rejected), total)
}

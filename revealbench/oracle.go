package main

import (
	"bytes"
	"fmt"

	"dexlego"
	"dexlego/internal/apk"
	"dexlego/internal/dex"
	"dexlego/internal/taint"
)

// toolCounts is one TP/FP cell pair of the paper's Table II.
type toolCounts struct{ TP, FP int }

// paperTable2DexLego is the DexLego row of the paper's Table II: what each
// static tool finds on the 134 DroidBench samples after DexLego reveals
// their 360-packed form.
var paperTable2DexLego = map[string]toolCounts{
	"FlowDroid": {TP: 95, FP: 4},
	"DroidSafe": {TP: 105, FP: 7},
	"HornDroid": {TP: 106, FP: 4},
}

// corpusOracle tallies the three tools over the revealed DroidBench samples
// against the paper's Table II, and checks each market app's revealed flow
// count against its generator's ground truth (Table V).
func corpusOracle(apps []*app) []error {
	var errs []error
	got := map[string]toolCounts{}
	samples := 0
	for _, a := range apps {
		f, err := dex.Read(a.ref)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: revealed dex: %w", a.id, err))
			continue
		}
		files := []*dex.File{f}
		if a.sample != nil {
			samples++
			for _, tool := range taint.Profiles() {
				r, err := taint.Analyze(files, tool)
				if err != nil {
					errs = append(errs, fmt.Errorf("%s/%s: %w", a.id, tool.Name, err))
					continue
				}
				c := got[tool.Name]
				switch {
				case r.Leaky() && a.sample.Leaky:
					c.TP++
				case r.Leaky():
					c.FP++
				}
				got[tool.Name] = c
			}
			continue
		}
		r, err := taint.Analyze(files, taint.FlowDroid())
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", a.id, err))
			continue
		}
		if r.Count() != a.flows {
			errs = append(errs, fmt.Errorf("Table V %s: revealed flows %d, want %d", a.id, r.Count(), a.flows))
		}
	}
	if samples != 134 {
		errs = append(errs, fmt.Errorf("Table II needs 134 DroidBench samples, corpus has %d", samples))
	}
	for tool, want := range paperTable2DexLego {
		if got[tool] != want {
			errs = append(errs, fmt.Errorf("Table II DexLego %s: TP %d FP %d, paper TP %d FP %d",
				tool, got[tool].TP, got[tool].FP, want.TP, want.FP))
		}
	}
	return errs
}

// whaleCheck holds the counts the whale generator knows: the launch executes
// every instruction of classes.dex, so every method is emitted as executed
// and none as a stub.
func whaleCheck(a *app, res *dexlego.Result) error {
	m := res.Metrics
	switch {
	case m.ExecutedInsns != a.insns:
		return fmt.Errorf("%s: executed %d instructions, app has %d", a.id, m.ExecutedInsns, a.insns)
	case res.Stats.Stubs != 0:
		return fmt.Errorf("%s: %d stub methods, want 0", a.id, res.Stats.Stubs)
	case res.Stats.ExecutedMethods != res.Stats.Methods:
		return fmt.Errorf("%s: %d of %d methods emitted as executed", a.id, res.Stats.ExecutedMethods, res.Stats.Methods)
	}
	return nil
}

// forceCheck requires full branch coverage: every gate of a version-chain
// app can be forced by construction.
func forceCheck(a *app, res *dexlego.Result) error {
	if res.Coverage == nil {
		return fmt.Errorf("%s: no coverage report", a.id)
	}
	b := res.Coverage.Branch
	if b.Total == 0 || b.Covered != b.Total {
		return fmt.Errorf("%s: branch coverage %s, want 100%%", a.id, b)
	}
	return nil
}

// serveOracle checks one served version's reference artifact: it parses and
// verifies, lists every worker class of the version's input, and is
// byte-identical to a cold one-shot Reveal of the same APK (cold is the
// revealed APK's bytes from a Reveal with no method cache).
func serveOracle(v *version, cold []byte) error {
	if !bytes.Equal(v.ref, cold) {
		return fmt.Errorf("%s: served artifact differs from a cold one-shot reveal", v.id)
	}
	pkg, err := apk.Read(v.ref)
	if err != nil {
		return fmt.Errorf("%s: artifact: %w", v.id, err)
	}
	data, err := pkg.Dex()
	if err != nil {
		return fmt.Errorf("%s: artifact: %w", v.id, err)
	}
	f, err := dex.Read(data)
	if err != nil {
		return fmt.Errorf("%s: artifact dex: %w", v.id, err)
	}
	if errs := dex.Verify(f); len(errs) > 0 {
		return fmt.Errorf("%s: artifact dex has %d defects, first: %w", v.id, len(errs), errs[0])
	}
	have := map[string]bool{}
	for _, c := range classNames(f) {
		have[c] = true
	}
	for _, w := range v.workers {
		if !have[w] {
			return fmt.Errorf("%s: artifact lacks worker class %s", v.id, w)
		}
	}
	return nil
}

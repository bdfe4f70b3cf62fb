package coverage_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"dexlego/internal/apk"
	"dexlego/internal/art"
	"dexlego/internal/coverage"
	"dexlego/internal/dex"
	"dexlego/internal/forceexec"
	"dexlego/internal/fuzzer"
	"dexlego/internal/hotbench"
	"dexlego/internal/workload"
)

// goldenPath holds the pinned coverage of every goldenApps app: the report
// and both worklists after the baseline run and after force execution.
const goldenPath = "testdata/golden.txt"

// goldenApp is one app whose coverage the golden table pins.
type goldenApp struct {
	name    string
	pkg     *apk.APK
	natives map[string]art.NativeFunc
	driver  func(rt *art.Runtime) error // nil: launch the main activity
}

func (g goldenApp) install(rt *art.Runtime) {
	for key, fn := range g.natives {
		rt.RegisterNative(key, fn)
	}
}

func (g goldenApp) drive(rt *art.Runtime) error {
	if g.driver != nil {
		return g.driver(rt)
	}
	_, err := rt.LaunchActivity()
	return err
}

// goldenApps returns the five F-Droid apps of Table VII (fuzzer-driven, as
// in the experiment), the hotbench gate farm and three links of a version
// chain.
func goldenApps(t *testing.T) []goldenApp {
	t.Helper()
	var out []goldenApp
	fdroid, err := workload.FDroidApps()
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range fdroid {
		fz := fuzzer.New(int64(i) + 1)
		out = append(out, goldenApp{
			name:    a.Package,
			pkg:     a.APK,
			natives: a.Natives,
			driver:  func(rt *art.Runtime) error { return fz.Drive(rt, nil) },
		})
	}
	gates, _, err := hotbench.GateFarm()
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, goldenApp{name: "gatefarm", pkg: gates})
	chain, err := workload.VersionChain(workload.ChainConfig{Methods: 12, Links: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range chain {
		out = append(out, goldenApp{name: a.Package + "@" + a.Version, pkg: a.APK})
	}
	return out
}

// renderCoverage prints a tracker's report and both worklists, in the order
// the tracker returns them.
func renderCoverage(b *strings.Builder, phase string, tr *coverage.Tracker) {
	r := tr.Report()
	fmt.Fprintf(b, "%s class=%s method=%s line=%s branch=%s insn=%s\n",
		phase, r.Class, r.Method, r.Line, r.Branch, r.Instruction)
	for _, u := range tr.UncoveredBranches() {
		fmt.Fprintf(b, "  ucb %s %d %t\n", u.Method, u.PC, u.Taken)
	}
	for _, h := range tr.UncoveredHandlers() {
		fmt.Fprintf(b, "  handler %s try=%d handler=%d %s\n", h.Method, h.TryStart, h.HandlerPC, h.Type)
	}
}

func renderGolden(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, app := range goldenApps(t) {
		data, err := app.pkg.Dex()
		if err != nil {
			t.Fatal(err)
		}
		f, err := dex.Read(data)
		if err != nil {
			t.Fatal(err)
		}
		files := []*dex.File{f}
		fmt.Fprintf(&b, "== %s\n", app.name)

		base, err := coverage.NewTracker(files)
		if err != nil {
			t.Fatal(err)
		}
		rt := art.NewRuntime(art.DefaultPhone())
		app.install(rt)
		rt.AddHooks(base.Hooks())
		if err := rt.LoadAPK(app.pkg); err != nil {
			t.Fatal(err)
		}
		_ = app.drive(rt) // app crashes are part of the pinned behaviour
		renderCoverage(&b, "baseline", base)

		forced, err := coverage.NewTracker(files)
		if err != nil {
			t.Fatal(err)
		}
		eng := forceexec.New(app.pkg, files)
		eng.InstallNatives = app.install
		eng.Driver = app.drive
		eng.ForceExceptionEdges = true
		if _, err := eng.Run(forced); err != nil {
			t.Fatal(err)
		}
		renderCoverage(&b, "forced", forced)
	}
	return b.String()
}

// TestGoldenCoverage pins Report, UncoveredBranches and UncoveredHandlers
// for the golden apps, before and after force execution, against values
// recorded in testdata/golden.txt.
func TestGoldenCoverage(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := renderGolden(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s:%d differs:\n got: %q\nwant: %q", goldenPath, i+1, g, w)
		}
	}
}

package dexlego_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	root "dexlego"
	"dexlego/internal/apk"
	"dexlego/internal/dex"
	"dexlego/internal/droidbench"
	"dexlego/internal/hotbench"
	"dexlego/internal/store"
	"dexlego/internal/taint"
	"dexlego/internal/workload"
)

// pinDigest condenses a method-key -> fingerprint map into 16 hex digits
// over its sorted "key=value" lines.
func pinDigest(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, m[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// pinFlows renders every taint profile's flow count over the files.
func pinFlows(t *testing.T, files []*dex.File) string {
	t.Helper()
	var parts []string
	for _, p := range taint.Profiles() {
		r, err := taint.Analyze(files, p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		parts = append(parts, fmt.Sprintf("%s:%d", p.Name, r.Count()))
	}
	return strings.Join(parts, ",")
}

// pinApp renders one reveal: method fingerprints and per-profile taint
// flow counts of the input and of the revealed DEX.
func pinApp(t *testing.T, name string, pkg *apk.APK, res *root.Result) string {
	t.Helper()
	orig, err := pkg.DexFile()
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s fp=%s/%s flows=%s/%s\n", name,
		pinDigest(root.MethodFingerprints(orig)), pinDigest(root.MethodFingerprints(res.RevealedDex)),
		pinFlows(t, []*dex.File{orig}), pinFlows(t, []*dex.File{res.RevealedDex}))
}

// decodedFormPin holds values of the static consumers of decoded code
// (method fingerprints, the taint model, reveal). How they decode is an
// implementation detail: none of these values may change with it.
const decodedFormPin = `DirectLeak1 fp=207ae01166311250/207ae01166311250 flows=FlowDroid:1,DroidSafe:1,HornDroid:1/FlowDroid:1,DroidSafe:1,HornDroid:1
LoopString3 fp=f35d329c0e076a96/f35d329c0e076a96 flows=FlowDroid:1,DroidSafe:1,HornDroid:1/FlowDroid:1,DroidSafe:1,HornDroid:1
Branching2 fp=8d1f12f695ae79a4/8d1f12f695ae79a4 flows=FlowDroid:1,DroidSafe:1,HornDroid:1/FlowDroid:1,DroidSafe:1,HornDroid:1
SwitchFlow1 fp=dd15fba0d5a4ed30/c411d4380afec21b flows=FlowDroid:3,DroidSafe:3,HornDroid:3/FlowDroid:1,DroidSafe:1,HornDroid:1
Interproc5 fp=d94711a625f6eb2f/d94711a625f6eb2f flows=FlowDroid:1,DroidSafe:1,HornDroid:1/FlowDroid:1,DroidSafe:1,HornDroid:1
CatchFlow1 fp=86b9147ff71a5c9e/64305879853eeb01 flows=FlowDroid:1,DroidSafe:1,HornDroid:1/FlowDroid:1,DroidSafe:1,HornDroid:1
Reflection3 fp=dc06d26bc491a56c/93685639272b9ed0 flows=FlowDroid:0,DroidSafe:1,HornDroid:1/FlowDroid:1,DroidSafe:1,HornDroid:1
AdvReflection2 fp=23d173fd4ba8d68a/ee5e94f826e39375 flows=FlowDroid:0,DroidSafe:0,HornDroid:0/FlowDroid:1,DroidSafe:1,HornDroid:1
SelfModifying1 fp=c2a41f1574fc7f30/f8a70ed247bca561 flows=FlowDroid:0,DroidSafe:0,HornDroid:0/FlowDroid:1,DroidSafe:1,HornDroid:1
SelfModifying2 fp=6d9466c1505b0b75/2c475312d7ac6406 flows=FlowDroid:0,DroidSafe:0,HornDroid:0/FlowDroid:1,DroidSafe:1,HornDroid:1
com.lenovo.anyshare fp=f308586eefdebe5c/a5598de56e5ca8c2 flows=FlowDroid:0,DroidSafe:0,HornDroid:0/FlowDroid:4,DroidSafe:4,HornDroid:4
com.moji.mjweather fp=11ff3d4ade8efa6c/81faa81988cd6251 flows=FlowDroid:0,DroidSafe:0,HornDroid:0/FlowDroid:5,DroidSafe:5,HornDroid:5
com.rongcai.show fp=cd395042a35eac2d/344723eace2cdb56 flows=FlowDroid:0,DroidSafe:0,HornDroid:0/FlowDroid:3,DroidSafe:3,HornDroid:3
com.wawoo.snipershootwar fp=fd54c7be746a8004/5e1e66d635b91180 flows=FlowDroid:0,DroidSafe:0,HornDroid:0/FlowDroid:4,DroidSafe:4,HornDroid:4
com.wawoo.gunshootwar fp=0e0e1e1287c3494b/ed800953c5868ff3 flows=FlowDroid:0,DroidSafe:0,HornDroid:0/FlowDroid:5,DroidSafe:5,HornDroid:5
com.alex.lookwifipassword fp=f308586eefdebe5c/f674d4c0012271cf flows=FlowDroid:0,DroidSafe:0,HornDroid:0/FlowDroid:2,DroidSafe:2,HornDroid:2
com.gome.eshopnew fp=11ff3d4ade8efa6c/e8774c750b69766a flows=FlowDroid:0,DroidSafe:0,HornDroid:0/FlowDroid:3,DroidSafe:3,HornDroid:3
com.szzc.ucar.pilot fp=fd54c7be746a8004/3b322ba9fa6b7ba0 flows=FlowDroid:0,DroidSafe:0,HornDroid:0/FlowDroid:5,DroidSafe:5,HornDroid:5
com.pingan.pabank.activity fp=cd395042a35eac2d/83c5301ce69b9bc9 flows=FlowDroid:0,DroidSafe:0,HornDroid:0/FlowDroid:14,DroidSafe:14,HornDroid:14
chain-v1 fp=8e6b5cdc5a77f3ec/8e6b5cdc5a77f3ec flows=FlowDroid:0,DroidSafe:0,HornDroid:0/FlowDroid:0,DroidSafe:0,HornDroid:0
  key=bd1e4cffcbca855e hits=0 cached=0
chain-v2 fp=e750d98b1d9b88ae/e750d98b1d9b88ae flows=FlowDroid:0,DroidSafe:0,HornDroid:0/FlowDroid:0,DroidSafe:0,HornDroid:0
  key=18d810c2a4c635dd hits=12 cached=12
chain-v3 fp=a1dc8595798a550f/a1dc8595798a550f flows=FlowDroid:0,DroidSafe:0,HornDroid:0/FlowDroid:0,DroidSafe:0,HornDroid:0
  key=dadaba6b9f42945b hits=13 cached=13
chain-v4 fp=7f9a6995b9e236af/7f9a6995b9e236af flows=FlowDroid:0,DroidSafe:0,HornDroid:0/FlowDroid:0,DroidSafe:0,HornDroid:0
  key=614250fee37f1a13 hits=13 cached=13
`

// TestDecodedFormPinned pins the method fingerprints and the taint flow
// counts of every profile, for input and revealed DEX, over the golden
// corpus (Table II samples), the Table V market apps and a four-version
// chain (three links); on the chain also the artifact store keys and the
// method-cache hits of incremental reveals. The experiments tests pin the
// tables themselves; this pins every app for all three profiles.
func TestDecodedFormPinned(t *testing.T) {
	var b strings.Builder
	for _, name := range hotbench.CorpusNames {
		s := droidbench.ByName(name)
		if s == nil {
			t.Fatalf("corpus sample %q missing", name)
		}
		pkg, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := root.Reveal(pkg, root.Options{ForceExecution: true, Workers: 1, Natives: s.Natives()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b.WriteString(pinApp(t, name, pkg, res))
	}

	market, err := workload.MarketApps()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range market {
		res, err := root.Reveal(app.Packed, root.Options{InstallNatives: app.Packer.InstallNatives})
		if err != nil {
			t.Fatalf("%s: %v", app.Package, err)
		}
		b.WriteString(pinApp(t, app.Package, app.Packed, res))
	}

	apps, err := workload.VersionChain(workload.ChainConfig{Methods: 12, Links: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := store.OpenMethodCache("", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps {
		opts := root.Options{ForceExecution: true, Workers: 1, Incremental: true, MethodCache: mc}
		hits := mc.Hits()
		res, err := root.Reveal(app.APK, opts)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		b.WriteString(pinApp(t, app.Name, app.APK, res))
		fmt.Fprintf(&b, "  key=%s hits=%d cached=%d\n",
			store.KeyFor(app.APK.ContentHash(), opts.Fingerprint())[:16],
			mc.Hits()-hits, res.Metrics.MethodsCached)
	}

	if got := b.String(); got != decodedFormPin {
		gl, wl := strings.Split(got, "\n"), strings.Split(decodedFormPin, "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("line %d differs:\n got: %q\nwant: %q\nfull:\n%s", i+1, g, w, got)
			}
		}
	}
}

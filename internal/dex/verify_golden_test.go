package dex

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

const verifyGoldenPath = "testdata/verify_golden.txt"

// verifyGoldenCase is one hand-crafted method body. Bodies are installed
// after Builder.Finish, so undecodable units and out-of-range indices reach
// Verify untouched.
type verifyGoldenCase struct {
	name string
	code Code
}

// Unit helpers for the hand-crafted bodies (opcode low byte, vAA high byte).
func unitOf(op, aa int) uint16 { return uint16(op) | uint16(aa)<<8 }

func lo16(v int32) uint16 { return uint16(uint32(v)) }
func hi16(v int32) uint16 { return uint16(uint32(v) >> 16) }

var verifyGoldenCases = []verifyGoldenCase{
	{"clean", Code{RegistersSize: 1, Insns: []uint16{
		unitOf(0x12, 0x10), // const/4 v0, #1
		unitOf(0x0e, 0),    // return-void
	}}},
	{"clean switch with alignment nop", Code{RegistersSize: 1, Insns: []uint16{
		unitOf(0x2b, 0), lo16(6), hi16(6), // 0: packed-switch v0, payload at 6
		unitOf(0x0e, 0),                   // 3: return-void
		unitOf(0x0e, 0),                   // 4: return-void
		unitOf(0x00, 0),                   // 5: alignment nop
		0x0100, 1, 0, 0, lo16(3), hi16(3), // 6: payload, one case -> 3
	}}},
	{"undecodable opcode", Code{RegistersSize: 1, Insns: []uint16{
		unitOf(0x12, 0), unitOf(0xff, 0), unitOf(0x0e, 0),
	}}},
	{"truncated instruction", Code{RegistersSize: 1, Insns: []uint16{
		unitOf(0x0e, 0), unitOf(0x13, 0), // const/16 missing its literal unit
	}}},
	{"bad switch payload", Code{RegistersSize: 1, Insns: []uint16{
		unitOf(0x2b, 0), lo16(3), hi16(3), unitOf(0x0e, 0),
	}}},
	{"empty body", Code{RegistersSize: 1, Insns: []uint16{}}},
	{"payload only", Code{RegistersSize: 1, Insns: []uint16{0x0100, 0, 0, 0}}},
	{"falls off with trailing nops", Code{RegistersSize: 1, Insns: []uint16{
		unitOf(0x12, 0), unitOf(0x00, 0), unitOf(0x00, 0), // const/4 v0; nop; nop
	}}},
	{"all nops", Code{RegistersSize: 1, Insns: []uint16{0, 0, 0}}},
	{"ends in a branch", Code{RegistersSize: 1, Insns: []uint16{
		unitOf(0x0e, 0), unitOf(0x38, 0), lo16(-1), // return-void; if-eqz v0, -1
	}}},
	{"ins exceed registers", Code{RegistersSize: 1, InsSize: 3, Insns: []uint16{unitOf(0x0e, 0)}}},
	{"registers above registers_size", Code{RegistersSize: 2, Insns: []uint16{
		unitOf(0x12, 0x15),      // 0: const/4 v5, #1
		unitOf(0x01, 0x31),      // 1: move v1, v3
		unitOf(0x90, 1), 0x0900, // 2: add-int v1, v0, v9
		0x2071, 0, 0x0070, // 4: invoke-static {v0, v7}, method@0
		0x0377, 0, 4, // 7: invoke-static/range {v4..v6}, method@0
		unitOf(0x0e, 0), // 10
	}}},
	{"branch targets", Code{RegistersSize: 1, Insns: []uint16{
		unitOf(0x38, 0), 6, // 0: if-eqz v0, +6 (mid const/16)
		unitOf(0x28, 0xf0),   // 2: goto -16 (negative)
		unitOf(0x29, 0), 100, // 3: goto/16 +100 (past the body)
		unitOf(0x13, 0), 7, // 5: const/16 v0, #7
		unitOf(0x28, 0xfe), // 7: goto -2 (pc 5, fine)
	}}},
	{"switch targets", Code{RegistersSize: 1, Insns: []uint16{
		unitOf(0x2c, 0), lo16(4), hi16(4), // 0: sparse-switch v0, payload at 4
		unitOf(0x0e, 0),                                                 // 3: return-void
		0x0200, 3, lo16(1), hi16(1), lo16(2), hi16(2), lo16(9), hi16(9), // 4: keys 1, 2, 9
		lo16(1), hi16(1), lo16(-7), hi16(-7), lo16(40), hi16(40), // targets: mid, negative, past
	}}},
	{"indices out of range", Code{RegistersSize: 1, Insns: []uint16{
		unitOf(0x1a, 0), 0xfff0, // 0: const-string v0, string@0xfff0
		unitOf(0x22, 0), 0xfff1, // 2: new-instance v0, type@0xfff1
		unitOf(0x60, 0), 0xfff2, // 4: sget v0, field@0xfff2
		0x0071, 0xfff3, 0, // 6: invoke-static {}, method@0xfff3
		unitOf(0x0e, 0), // 9
	}}},
	{"register, index and branch defects", Code{RegistersSize: 1, Insns: []uint16{
		0x2071, 0xfff3, 0x0090, // 0: invoke-static {v0, v9}, method@0xfff3
		unitOf(0x29, 0), 0xff00, // 3: goto/16 -256
	}}},
	{"try past the body", Code{RegistersSize: 1, Insns: []uint16{unitOf(0x0e, 0)},
		Tries: []Try{{Start: 0, Count: 99, CatchAll: -1}}}},
	{"handlers not instruction starts", Code{RegistersSize: 1, Insns: []uint16{
		unitOf(0x13, 0), 7, // 0: const/16 v0, #7
		unitOf(0x0e, 0), // 2
	}, Tries: []Try{
		{Start: 0, Count: 2, Handlers: []TypeAddr{{Type: 0, Addr: 1}, {Type: 0, Addr: 2}}, CatchAll: 1},
		{Start: 2, Count: 1, Handlers: []TypeAddr{{Type: 0, Addr: 9}}, CatchAll: -1},
	}}},
	{"handler type out of range", Code{RegistersSize: 1, Insns: []uint16{unitOf(0x0e, 0)},
		Tries: []Try{{Start: 0, Count: 1, Handlers: []TypeAddr{{Type: 0xfff1, Addr: 0}}, CatchAll: 0}}}},
	{"undecodable body with bad tries", Code{RegistersSize: 1, Insns: []uint16{unitOf(0xff, 0)},
		Tries: []Try{{Start: 0, Count: 9, CatchAll: 5}}}},
}

// renderVerifyGolden verifies every case in its own file and renders the
// reported errors, in report order, one per line.
func renderVerifyGolden(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, tc := range verifyGoldenCases {
		f := rawFile(t, &Code{RegistersSize: 1, Insns: []uint16{unitOf(0x0e, 0)}})
		code := tc.code
		*f.Classes[0].DirectMeths[0].Code = code
		fmt.Fprintf(&b, "== %s\n", tc.name)
		for _, err := range Verify(f) {
			fmt.Fprintf(&b, "%v\n", err)
		}
	}
	return b.String()
}

// TestVerifyGolden pins Verify's exact error strings, in order, over
// hand-crafted bodies covering every per-method check, against
// testdata/verify_golden.txt.
func TestVerifyGolden(t *testing.T) {
	want, err := os.ReadFile(verifyGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := renderVerifyGolden(t)
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
			t.Fatalf("%s:%d differs:\n got: %q\nwant: %q", verifyGoldenPath, i+1, g, w)
		}
	}
}

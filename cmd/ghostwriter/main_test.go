package main

import (
	"bytes"
	"strings"
	"testing"

	"ghostwriter/internal/coherence/proto"
)

func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errs bytes.Buffer
	code = realMain(args, &out, &errs)
	return code, out.String(), errs.String()
}

// TestTablesEveryProtocol: -tables renders every registered table by name.
func TestTablesEveryProtocol(t *testing.T) {
	for _, name := range proto.Names() {
		code, out, errs := runCmd("-tables", "-protocol", name)
		if code != 0 || errs != "" {
			t.Errorf("%s: exit %d, stderr %q", name, code, errs)
		}
		if out != proto.Markdown(proto.MustLookup(name)) {
			t.Errorf("%s: -tables printed something other than the table's rendering", name)
		}
	}
}

// TestUnknownProtocol: a name the registry does not know is a usage error
// that lists the registered tables.
func TestUnknownProtocol(t *testing.T) {
	code, out, errs := runCmd("-protocol", "nope")
	if code != 2 || out != "" || !strings.Contains(errs, `unknown protocol "nope"`) {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 2 and the unknown-protocol message", code, out, errs)
	}
	for _, name := range proto.Names() {
		if !strings.Contains(errs, name) {
			t.Errorf("the error does not list %s: %q", name, errs)
		}
	}
}

// TestProtocolHelpListsTables: the -protocol help names every table.
func TestProtocolHelpListsTables(t *testing.T) {
	code, _, errs := runCmd("-h")
	if code != 0 {
		t.Fatalf("-h: exit %d", code)
	}
	if want := strings.Join(proto.Names(), "|"); !strings.Contains(errs, want) {
		t.Errorf("usage does not list %s:\n%s", want, errs)
	}
}

// TestVariantFlagsAreGone: MSI, the migratory optimization and the scribble
// residency policies are tables (-protocol gw-msi, -protocol mesi-mig,
// -protocol gw-resident), not flags.
func TestVariantFlagsAreGone(t *testing.T) {
	for _, args := range [][]string{{"-msi"}, {"-migratory"}, {"-policy", "resident"}} {
		code, out, errs := runCmd(args...)
		if code != 2 || out != "" || !strings.Contains(errs, "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2 as an unknown flag", args, code, out, errs)
		}
	}
}

// TestBadThreadsOrScale: a thread count outside the machine's cores or a
// scale below 1 fails the run with one line on stderr, not a goroutine dump.
func TestBadThreadsOrScale(t *testing.T) {
	for _, args := range [][]string{
		{"-app", "histogram", "-threads", "0"},
		{"-app", "histogram", "-threads", "25"},
		{"-app", "histogram", "-threads", "-2"},
		{"-app", "histogram", "-nodes", "3"},
		{"-app", "histogram", "-scale", "-1"},
		{"-app", "pca", "-scale", "0"},
		{"-app", "kmeans", "-scale", "0"},
		{"-app", "histogram", "-scale", "100000000000"}, // input past the address space
	} {
		code, out, errs := runCmd(args...)
		if code != 1 || out != "" || strings.Count(errs, "\n") != 1 || !strings.HasPrefix(errs, "ghostwriter: ") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 1 and one error line", args, code, out, errs)
		}
	}
}

// TestBoundBeyondUint32: the monitor counts hidden writes in 32 bits, so a
// -bound past that is a usage error — cut to 32 bits, 4294967297 would run
// as a bound of 1.
func TestBoundBeyondUint32(t *testing.T) {
	code, out, errs := runCmd("-app", "linear_regression", "-bound", "4294967297")
	if code != 2 || out != "" || strings.Count(errs, "\n") != 1 || !strings.HasPrefix(errs, "ghostwriter: -bound 4294967297") {
		t.Errorf("exit %d, stdout %q, stderr %q; want 2 and one line naming -bound", code, out, errs)
	}
}

// TestZeroGITimeout: a zero GITimeout selects the default period, so
// -gi-timeout 0 is a usage error rather than a run with the 1024-cycle
// sweep.
func TestZeroGITimeout(t *testing.T) {
	code, out, errs := runCmd("-app", "linear_regression", "-gi-timeout", "0")
	if code != 2 || out != "" || strings.Count(errs, "\n") != 1 || !strings.HasPrefix(errs, "ghostwriter: -gi-timeout 0") {
		t.Errorf("exit %d, stdout %q, stderr %q; want 2 and one line naming -gi-timeout", code, out, errs)
	}
}

// reportD8 and reportD0 are the full reports of the headline application at
// d = 8 (ghostwriter) and d = 0 (mesi) on the Table 1 machine.
const reportD8 = `linear_regression (Phoenix, Machine Learning) — ghostwriter, d-distance 8, 24 threads, scale 1
cycles                     29315
core ops                   36144 loads, 149 stores, 60000 scribbles
L1 miss rate               3.24% loads, 2.05% stores
coherence messages         GETS=1171 GETX=485 UPGRADE=751 Data=2458 Other=5931 total=10796
NoC                        67330 flit-hops
GS                         239 entries, 261 serviced (25.8% of S-store misses)
GI                         240 entries, 21947 serviced (98.0% of I-store misses), 231 timeouts
scribble fallbacks         1186
dynamic energy             5335.7 nJ memory + 540.0 nJ network = 5875.7 nJ
output error               0.0000% (MPE)
`

const reportD0 = `linear_regression (Phoenix, Machine Learning) — mesi, d-distance 0, 24 threads, scale 1
cycles                     45617
core ops                   36144 loads, 149 stores, 60000 scribbles
L1 miss rate               4.19% loads, 16.85% stores
coherence messages         GETS=1513 GETX=8878 UPGRADE=1260 Data=11702 Other=25094 total=48447
NoC                        265566 flit-hops
dynamic energy             5548.6 nJ memory + 2132.0 nJ network = 7680.6 nJ
output error               0.0000% (MPE)
`

// TestReport pins the report byte for byte.
func TestReport(t *testing.T) {
	for _, c := range []struct {
		d, want string
	}{{"8", reportD8}, {"0", reportD0}} {
		code, out, errs := runCmd("-app", "linear_regression", "-d", c.d)
		if code != 0 || errs != "" {
			t.Errorf("-d %s: exit %d, stderr %q", c.d, code, errs)
		}
		if out != c.want {
			t.Errorf("-d %s report:\n%s\nwant:\n%s", c.d, out, c.want)
		}
	}
}

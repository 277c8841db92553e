package harness

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	ghostwriter "ghostwriter"
	"ghostwriter/internal/workloads"
)

// fastOptions keeps harness tests quick: fewer threads, test-scale inputs.
func fastOptions() Options { return Options{Scale: 1, Threads: 8} }

func TestFig1Shape(t *testing.T) {
	var buf bytes.Buffer
	pts, err := NewRunner(0).Fig1(&buf, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(fig1Threads) {
		t.Fatalf("got %d points, want %d", len(pts), len(fig1Threads))
	}
	// Paper shape: the naive version fails to scale (false sharing), the
	// privatized version scales steeply.
	for _, p := range pts {
		if p.Threads >= 2 && p.Threads <= 16 && p.NaiveSpeedup >= 1.1 {
			t.Errorf("naive at %d threads speeds up %.2fx; false sharing should prevent scaling",
				p.Threads, p.NaiveSpeedup)
		}
	}
	last := pts[len(pts)-1]
	if last.PrivatizedSpeed < float64(last.Threads)/2 {
		t.Errorf("privatized at %d threads speeds up only %.2fx", last.Threads, last.PrivatizedSpeed)
	}
	if !strings.Contains(buf.String(), "Fig. 1") {
		t.Error("missing figure header")
	}
}

func TestFig2CDFMonotone(t *testing.T) {
	var buf bytes.Buffer
	rows, err := NewRunner(0).Fig2(&buf, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Samples == 0 {
			t.Errorf("%s: no profiled stores", r.App)
		}
		prev := -1.0
		for _, d := range fig2Dists {
			if r.CDF[d] < prev {
				t.Errorf("%s: CDF not monotone at d=%d", r.App, d)
			}
			prev = r.CDF[d]
		}
	}
}

// TestSuiteShapes runs the whole Table 2 suite once and asserts the
// paper's qualitative results (§4.2–4.3): linear_regression benefits most;
// no application slows down meaningfully; errors stay very low; traffic
// never increases.
func TestSuiteShapes(t *testing.T) {
	suite, err := NewRunner(0).RunSuite(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SuiteResult{}
	for _, s := range suite {
		byName[s.App] = s
	}
	lr := byName["linear_regression"]
	if lr.SpeedupPct8 < 5 {
		t.Errorf("linear_regression d=8 speedup %.1f%%; the paper's headline app should gain clearly", lr.SpeedupPct8)
	}
	if lr.TrafficNorm8 >= 1 {
		t.Errorf("linear_regression d=8 traffic %.3f not reduced", lr.TrafficNorm8)
	}
	if lr.D8.GSFrac() == 0 && lr.D8.GIFrac() == 0 {
		t.Error("linear_regression never used approximate states")
	}
	for _, s := range suite {
		// "Ghostwriter has no negative impact on applications that do not
		// exhibit false sharing" — allow small timing noise only.
		if s.SpeedupPct4 < -3 || s.SpeedupPct8 < -3 {
			t.Errorf("%s slowed down: d4=%.1f%% d8=%.1f%%", s.App, s.SpeedupPct4, s.SpeedupPct8)
		}
		if s.TrafficNorm4 > 1.02 || s.TrafficNorm8 > 1.02 {
			t.Errorf("%s traffic increased: d4=%.3f d8=%.3f", s.App, s.TrafficNorm4, s.TrafficNorm8)
		}
		if s.D4.ErrorPct > 5 || s.D8.ErrorPct > 5 {
			t.Errorf("%s error too high: d4=%.3f%% d8=%.3f%%", s.App, s.D4.ErrorPct, s.D8.ErrorPct)
		}
		// The approximate states are strictly more useful at d=8 (a weaker
		// gate) than d=4 for every app that uses them at all.
		if s.D8.GSFrac()+1e-9 < s.D4.GSFrac() {
			t.Errorf("%s: GS service fell from d=4 (%.3f) to d=8 (%.3f)",
				s.App, s.D4.GSFrac(), s.D8.GSFrac())
		}
	}
}

func TestFig12TimeoutSensitivity(t *testing.T) {
	var buf bytes.Buffer
	pts, err := NewRunner(0).Fig12(&buf, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	// Paper shape: longer timeouts increase both GI utilization and error.
	for i := 1; i < len(pts); i++ {
		if pts[i].GIFracPct < pts[i-1].GIFracPct {
			t.Errorf("GI utilization fell from timeout %d (%.1f%%) to %d (%.1f%%)",
				pts[i-1].Timeout, pts[i-1].GIFracPct, pts[i].Timeout, pts[i].GIFracPct)
		}
		if pts[i].ErrorPct < pts[i-1].ErrorPct {
			t.Errorf("error fell from timeout %d (%.2f%%) to %d (%.2f%%)",
				pts[i-1].Timeout, pts[i-1].ErrorPct, pts[i].Timeout, pts[i].ErrorPct)
		}
	}
	if pts[len(pts)-1].ErrorPct <= 0 {
		t.Error("the microbenchmark should show visible error at the longest timeout")
	}
}

func TestTablesRender(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf, Options{})
	for _, want := range []string{"24 in-order cores", "32kB", "6x4 mesh", "1024 cycles"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
	buf.Reset()
	Table2(&buf, fastOptions())
	for _, want := range []string{"histogram", "jpeg", "NRMSE", "Phoenix", "AxBench"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

func TestRunAppUnknown(t *testing.T) {
	if _, err := NewRunner(0).RunApp("nope", fastOptions(), 0, false); err == nil {
		t.Fatal("unknown app must error")
	}
}

// TestSimulateRejectsBadSpec: a thread count the machine has no cores for
// and a scale below 1 are errors that name the field, not panics deep in
// the machine or a workload's input generator. A scale whose input the
// host cannot hold is an error that names the app: histogram's 3·96·96·scale
// pixel bytes fail make's length check before anything is allocated.
func TestSimulateRejectsBadSpec(t *testing.T) {
	for _, tc := range []struct {
		name, field string
		spec        Spec
	}{
		{"no threads", "threads", Spec{App: "histogram", Scale: 1, Threads: 0}},
		{"a thread past the cores", "threads", Spec{App: "histogram", Scale: 1, Threads: 25}},
		{"negative threads", "threads", Spec{App: "histogram", Scale: 1, Threads: -2}},
		{"24 threads on 3 nodes", "threads", Spec{App: "histogram", Scale: 1, Threads: 24,
			Config: ghostwriter.Config{Nodes: 3}}},
		{"negative scale", "scale", Spec{App: "histogram", Scale: -1, Threads: 24}},
		{"pca at scale 0", "scale", Spec{App: "pca", Scale: 0, Threads: 24}},
		{"kmeans at scale 0", "scale", Spec{App: "kmeans", Scale: 0, Threads: 24}},
		{"histogram past the address space", "histogram", Spec{App: "histogram", Scale: 100_000_000_000, Threads: 24}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Simulate panicked: %v", p)
				}
			}()
			_, sys, err := Simulate(tc.spec)
			if err == nil || sys != nil {
				t.Fatalf("Simulate(%+v) = system %v, error %v; want only an error", tc.spec, sys != nil, err)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Errorf("error %q does not name %s", err, tc.field)
			}
		})
	}
}

func TestAutoTune(t *testing.T) {
	opt := fastOptions()
	// jpeg has measurable error growth with d, so the tuner has a real
	// trade-off to navigate.
	best, runs, err := NewRunner(0).AutoTune("jpeg", opt, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(autoTuneCandidates) {
		t.Fatalf("profiled %d runs, want %d", len(runs), len(autoTuneCandidates))
	}
	if best <= 0 {
		t.Fatalf("tuner found no usable d for a 1%% target (runs: %+v)", errorsOf(runs))
	}
	// The chosen d must actually meet the target.
	for _, r := range runs {
		if r.DDist == best && r.ErrorPct > 1.0 {
			t.Fatalf("chosen d=%d has error %.3f%% > target", best, r.ErrorPct)
		}
	}
	// An impossible target must select the baseline.
	bestStrict, _, err := NewRunner(0).AutoTune("jpeg", opt, -0.0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("jpeg: best d for 1%% = %d; for 0%% = %d", best, bestStrict)
	if _, _, err := NewRunner(0).AutoTune("jpeg", opt, -1); err == nil {
		t.Fatal("negative target accepted")
	}
}

func errorsOf(runs []RunResult) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.ErrorPct
	}
	return out
}

// TestRunExperimentReportJSON: the report of the full evaluation encodes
// every section, the extensions included.
func TestRunExperimentReportJSON(t *testing.T) {
	opt := Options{Scale: 1, Threads: 4}
	rep, err := NewRunner(0).RunExperiment(io.Discard, "all", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Suite) != 6 || len(rep.Fig1) == 0 || len(rep.Fig12) != 3 || len(rep.Extensions) != 3 {
		t.Fatalf("report shape wrong: %d suite, %d fig1, %d fig12, %d extensions",
			len(rep.Suite), len(rep.Fig1), len(rep.Fig12), len(rep.Extensions))
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\"gsPct8\"", "\"trafficNorm8\"", "linear_regression", "\"fig12\"", "\"extensions\""} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("JSON missing %s", want)
		}
	}
}

func TestExtensionsRun(t *testing.T) {
	var buf bytes.Buffer
	res, err := NewRunner(0).Extensions(&buf, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d extension apps, want 3", len(res))
	}
	for _, s := range res {
		if s.D8.ErrorPct > 5 {
			t.Errorf("%s error %.3f%% exceeds 5%%", s.App, s.D8.ErrorPct)
		}
		if s.TrafficNorm8 > 1.02 {
			t.Errorf("%s traffic increased: %.3f", s.App, s.TrafficNorm8)
		}
	}
	if !strings.Contains(buf.String(), "fft") {
		t.Error("table missing fft")
	}
}

func TestScaleTrendStable(t *testing.T) {
	var buf bytes.Buffer
	pts, err := NewRunner(0).ScaleTrend(&buf, fastOptions(), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.TrafficNorm8 >= 1 {
			t.Errorf("scale %d: traffic not reduced (%.3f)", p.Scale, p.TrafficNorm8)
		}
		if p.ErrorPct8 > 1 {
			t.Errorf("scale %d: error %.3f%% too high", p.Scale, p.ErrorPct8)
		}
	}
}

// constWriter is an App whose thread 0 stores to a word that thread 1 then
// loads with LoadConst8, breaking the constant-load contract.
type constWriter struct{ word ghostwriter.Addr }

func (c *constWriter) Prepare(sys *ghostwriter.System) { c.word = sys.AllocPadded(64) }
func (c *constWriter) Kernel(t *ghostwriter.Thread) {
	if t.ID() == 0 {
		t.Store32(c.word, 0x2a)
	}
	t.Barrier()
	if t.ID() == 1 {
		t.LoadConst8(c.word)
	}
}
func (c *constWriter) Output(*ghostwriter.System) []float64 { return nil }
func (c *constWriter) Golden() []float64                    { return nil }
func (c *constWriter) SetDDist(int)                         {}

// TestSimulateReportsAWrittenConstant: a constant load of a word the run
// wrote makes Simulate return the machine's message, which names the
// thread, core, address and both values, as an error and no result.
func TestSimulateReportsAWrittenConstant(t *testing.T) {
	app := &constWriter{}
	defer func(l func(string) (workloads.Factory, error)) { lookupApp = l }(lookupApp)
	lookupApp = func(name string) (workloads.Factory, error) {
		return workloads.Factory{Name: name, New: func(int) workloads.App { return app }}, nil
	}
	_, sys, err := Simulate(Spec{App: "const_writer", Scale: 1, Threads: 2})
	want := fmt.Sprintf("const_writer: simulation panicked: machine: thread 1 on core 1 loaded %#x as a constant: it read 0x0, but the word holds 0x2a", uint64(app.word))
	if sys != nil || err == nil || err.Error() != want {
		t.Errorf("Simulate = system %v, error %v; want only the error %q", sys != nil, err, want)
	}
}

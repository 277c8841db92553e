package harness

import (
	"bytes"
	"strings"
	"testing"
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

func TestBuildReportJSON(t *testing.T) {
	opt := Options{Scale: 1, Threads: 4}
	rep, err := NewRunner(0).BuildReport(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Suite) != 6 || len(rep.Fig1) == 0 || len(rep.Fig12) != 3 {
		t.Fatalf("report shape wrong: %d suite, %d fig1, %d fig12",
			len(rep.Suite), len(rep.Fig1), len(rep.Fig12))
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\"gsPct8\"", "\"trafficNorm8\"", "linear_regression", "\"fig12\""} {
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

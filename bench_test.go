// Benchmarks regenerating every table and figure of the paper's evaluation
// (§4). Each benchmark runs the experiment once per iteration and reports
// its headline series through b.ReportMetric, while the full data tables go
// to the benchmark log. Run them all with:
//
//	go test -bench=. -benchmem
//
// The shapes to compare against the paper are recorded in EXPERIMENTS.md.
package ghostwriter_test

import (
	"bytes"
	"fmt"
	"testing"

	ghostwriter "ghostwriter"
	"ghostwriter/internal/harness"
	"ghostwriter/internal/quality"
	"ghostwriter/internal/trace"
	"ghostwriter/internal/workloads"
)

// benchOptions is the evaluation configuration used by the benchmarks: the
// paper's 24 threads at test scale.
func benchOptions() harness.Options { return harness.Options{Scale: 1, Threads: 24} }

// BenchmarkFig01_FalseSharingSpeedup regenerates Fig. 1: dot-product
// speedup vs thread count for the Listing 1 (naive) and Listing 2
// (privatized) kernels under baseline MESI.
func BenchmarkFig01_FalseSharingSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		pts, err := harness.NewRunner(0).Fig1(&buf, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		b.ReportMetric(last.NaiveSpeedup, "naive-speedup-24T")
		b.ReportMetric(last.PrivatizedSpeed, "priv-speedup-24T")
		if i == 0 {
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkFig02_ValueSimilarityCDF regenerates Fig. 2: the cumulative
// distribution of d-distances between store values and the values they
// overwrite, for the whole Table 2 suite.
func BenchmarkFig02_ValueSimilarityCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		rows, err := harness.NewRunner(0).Fig2(&buf, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		var at0, at4, at8 float64
		for _, r := range rows {
			at0 += r.CDF[0]
			at4 += r.CDF[4]
			at8 += r.CDF[8]
		}
		n := float64(len(rows))
		b.ReportMetric(at0/n*100, "avg-pct-0dist")
		b.ReportMetric(at4/n*100, "avg-pct-4dist")
		b.ReportMetric(at8/n*100, "avg-pct-8dist")
		if i == 0 {
			b.Log("\n" + buf.String())
		}
	}
}

// runSuite memoizes the (deterministic) suite runs within one benchmark
// process so Figs. 7-11 don't redo identical simulations. The suite grid
// itself fans out across all CPUs on the harness Runner.
var suiteCache []harness.SuiteResult

func suiteResults(b *testing.B) []harness.SuiteResult {
	b.Helper()
	if suiteCache == nil {
		s, err := harness.NewRunner(0).RunSuite(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		suiteCache = s
	}
	return suiteCache
}

// BenchmarkFig07_ApproxStateUtilization regenerates Fig. 7: the share of
// would-be store misses on S/I serviced by GS/GI at d ∈ {4, 8}.
func BenchmarkFig07_ApproxStateUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		suite := suiteResults(b)
		var gs8, gi8 float64
		for _, s := range suite {
			gs8 += s.D8.GSFrac()
			gi8 += s.D8.GIFrac()
		}
		n := float64(len(suite))
		b.ReportMetric(gs8/n*100, "avg-GS-d8-pct")
		b.ReportMetric(gi8/n*100, "avg-GI-d8-pct")
		if i == 0 {
			var buf bytes.Buffer
			harness.Fig7(&buf, suite)
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkFig08_CoherenceTraffic regenerates Fig. 8: coherence traffic by
// message class, normalized to baseline MESI.
func BenchmarkFig08_CoherenceTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		suite := suiteResults(b)
		var t4, t8 float64
		for _, s := range suite {
			t4 += 1 - s.TrafficNorm4
			t8 += 1 - s.TrafficNorm8
		}
		n := float64(len(suite))
		b.ReportMetric(t4/n*100, "avg-traffic-cut-d4-pct")
		b.ReportMetric(t8/n*100, "avg-traffic-cut-d8-pct")
		if i == 0 {
			var buf bytes.Buffer
			harness.Fig8(&buf, suite)
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkFig09_EnergySavings regenerates Fig. 9: NoC + memory-hierarchy
// dynamic energy savings at d ∈ {4, 8}.
func BenchmarkFig09_EnergySavings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		suite := suiteResults(b)
		var best, avg float64
		for _, s := range suite {
			avg += s.EnergySavedPct8
			if s.EnergySavedPct8 > best {
				best = s.EnergySavedPct8
			}
		}
		b.ReportMetric(best, "max-energy-saved-d8-pct")
		b.ReportMetric(avg/float64(len(suite)), "avg-energy-saved-d8-pct")
		if i == 0 {
			var buf bytes.Buffer
			harness.Fig9(&buf, suite)
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkFig10_Speedup regenerates Fig. 10: speedup over baseline MESI at
// d ∈ {4, 8}.
func BenchmarkFig10_Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		suite := suiteResults(b)
		var best, avg float64
		for _, s := range suite {
			avg += s.SpeedupPct8
			if s.SpeedupPct8 > best {
				best = s.SpeedupPct8
			}
		}
		b.ReportMetric(best, "max-speedup-d8-pct")
		b.ReportMetric(avg/float64(len(suite)), "avg-speedup-d8-pct")
		if i == 0 {
			var buf bytes.Buffer
			harness.Fig10(&buf, suite)
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkFig11_OutputError regenerates Fig. 11: per-application output
// error (the Table 2 metric) at d ∈ {4, 8}.
func BenchmarkFig11_OutputError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		suite := suiteResults(b)
		var worst, avg float64
		for _, s := range suite {
			avg += s.D8.ErrorPct
			if s.D8.ErrorPct > worst {
				worst = s.D8.ErrorPct
			}
		}
		b.ReportMetric(worst, "max-error-d8-pct")
		b.ReportMetric(avg/float64(len(suite)), "avg-error-d8-pct")
		if i == 0 {
			var buf bytes.Buffer
			harness.Fig11(&buf, suite)
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkFig12_TimeoutSensitivity regenerates Fig. 12: GI utilization and
// output error of bad_dot_product vs the GI timeout period.
func BenchmarkFig12_TimeoutSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		pts, err := harness.NewRunner(0).Fig12(&buf, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		b.ReportMetric(last.GIFracPct, "GI-serviced-1024-pct")
		b.ReportMetric(last.ErrorPct, "error-1024-pct")
		if i == 0 {
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkTable01_Configuration exercises the Table 1 machine build (a
// configuration smoke benchmark: constructing the full 24-core system).
func BenchmarkTable01_Configuration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := ghostwriter.New(ghostwriter.Config{Protocol: ghostwriter.Ghostwriter})
		if sys.Cores() != 24 || sys.BlockSize() != 64 {
			b.Fatal("Table 1 defaults broken")
		}
	}
	var buf bytes.Buffer
	harness.Table1(&buf, harness.Options{})
	b.Log("\n" + buf.String())
}

// BenchmarkTable02_Workloads runs one tiny step of every Table 2 workload
// (inputs built, prepared, and executed single-threaded under baseline) —
// the registry-level smoke benchmark.
func BenchmarkTable02_Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.NewRunner(0).RunApp("histogram", benchOptions(), 0, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Cycles), "histogram-cycles")
	}
	var buf bytes.Buffer
	harness.Table2(&buf, benchOptions())
	b.Log("\n" + buf.String())
}

// BenchmarkAblation_ScribblePolicy compares the three scribble residency
// policies (DESIGN.md §4.2) on linear_regression at d=8: the literal Fig. 3
// residency, the default hybrid, and full escalation.
func BenchmarkAblation_ScribblePolicy(b *testing.B) {
	policies := []struct {
		name string
		p    ghostwriter.ScribblePolicy
	}{
		{"hybrid", ghostwriter.PolicyHybrid},
		{"resident", ghostwriter.PolicyResident},
		{"escalate", ghostwriter.PolicyEscalate},
	}
	for _, pol := range policies {
		pol := pol
		b.Run(pol.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cycles, msgs, errPct := runLinregWithPolicy(b, pol.p)
				b.ReportMetric(float64(cycles), "cycles")
				b.ReportMetric(float64(msgs), "messages")
				b.ReportMetric(errPct, "error-pct")
			}
		})
	}
}

// BenchmarkAblation_Padding compares the packed accumulator layout against
// the compiler-padded one (no false sharing), quantifying how much of the
// baseline's slowdown is pure false sharing.
func BenchmarkAblation_Padding(b *testing.B) {
	for _, padded := range []bool{false, true} {
		padded := padded
		name := "packed"
		if padded {
			name = "padded"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := ghostwriter.New(ghostwriter.Config{})
				var base ghostwriter.Addr
				if padded {
					// One padded block per counter: no false sharing.
					base = sys.AllocPadded(64 * 8)
				} else {
					base = sys.Alloc(4*8, 4)
				}
				stride := 4
				if padded {
					stride = 64
				}
				cycles := sys.Run(8, func(t *ghostwriter.Thread) {
					mine := base + ghostwriter.Addr(stride*t.ID())
					var v uint32
					for k := 0; k < 500; k++ {
						v++
						t.Store32(mine, v)
					}
				})
				b.ReportMetric(float64(cycles), "cycles")
			}
		})
	}
}

// runLinregWithPolicy runs linear_regression d=8 under a policy.
func runLinregWithPolicy(b *testing.B, p ghostwriter.ScribblePolicy) (cycles, msgs uint64, errPct float64) {
	b.Helper()
	res, err := runAppWithPolicy("linear_regression", 8, p)
	if err != nil {
		b.Fatal(err)
	}
	return res.Cycles, res.Stats.TotalMsgs(), res.ErrorPct
}

// runAppWithPolicy mirrors Runner.RunApp with an explicit policy.
func runAppWithPolicy(name string, d int, p ghostwriter.ScribblePolicy) (harness.RunResult, error) {
	opt := benchOptions()
	return harness.NewRunner(0).RunSpec(harness.Spec{
		App: name, Scale: opt.Scale, Threads: opt.Threads, DDist: d,
		Config: ghostwriter.Config{Policy: p},
	})
}

// BenchmarkSensitivity_DDistance sweeps the d-distance on the headline
// application, the knob Fig. 9-11 fix at {4, 8}: cycles, traffic, and error
// as a function of approximation aggressiveness.
func BenchmarkSensitivity_DDistance(b *testing.B) {
	for _, d := range []int{0, 2, 4, 6, 8, 12} {
		d := d
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := harness.NewRunner(0).RunApp("linear_regression", benchOptions(), d, false)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(r.Cycles), "cycles")
				b.ReportMetric(float64(r.Stats.TotalMsgs()), "messages")
				b.ReportMetric(r.ErrorPct, "error-pct")
			}
		})
	}
}

// BenchmarkSensitivity_Threads measures how Ghostwriter's benefit on the
// headline application scales with core count.
func BenchmarkSensitivity_Threads(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16, 24} {
		n := n
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := harness.Options{Scale: 1, Threads: n}
				base, err := harness.NewRunner(0).RunApp("linear_regression", opt, 0, false)
				if err != nil {
					b.Fatal(err)
				}
				gw, err := harness.NewRunner(0).RunApp("linear_regression", opt, 8, false)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric((float64(base.Cycles)/float64(gw.Cycles)-1)*100, "speedup-pct")
			}
		})
	}
}

// BenchmarkAblation_ErrorBound sweeps the §3.5 drift monitor on the
// unmanaged microbenchmark: tighter bounds trade traffic for error.
func BenchmarkAblation_ErrorBound(b *testing.B) {
	for _, bound := range []uint32{0, 64, 16, 4} {
		bound := bound
		b.Run(fmt.Sprintf("bound=%d", bound), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cycles, msgs, errPct := runMicroWithBound(b, bound)
				b.ReportMetric(float64(cycles), "cycles")
				b.ReportMetric(float64(msgs), "messages")
				b.ReportMetric(errPct, "error-pct")
			}
		})
	}
}

// runMicroWithBound runs bad_dot_product at d=4 with an error bound.
func runMicroWithBound(b *testing.B, bound uint32) (cycles, msgs uint64, errPct float64) {
	b.Helper()
	f, err := workloads.Lookup("bad_dot_product")
	if err != nil {
		b.Fatal(err)
	}
	app := f.New(1)
	app.SetDDist(4)
	sys := ghostwriter.New(ghostwriter.Config{
		Protocol:   ghostwriter.Ghostwriter,
		ErrorBound: bound,
	})
	app.Prepare(sys)
	c := sys.Run(24, app.Kernel)
	return c, sys.Stats().TotalMsgs(),
		quality.Measure(quality.MPE, app.Output(sys), app.Golden())
}

// BenchmarkAblation_MSIBase runs the headline app over the MSI base
// protocol, demonstrating that the GS/GI retrofit is protocol-agnostic.
func BenchmarkAblation_MSIBase(b *testing.B) {
	for _, msi := range []bool{false, true} {
		msi := msi
		name := "mesi"
		if msi {
			name = "msi"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f, err := workloads.Lookup("linear_regression")
				if err != nil {
					b.Fatal(err)
				}
				app := f.New(1)
				app.SetDDist(8)
				sys := ghostwriter.New(ghostwriter.Config{
					Protocol: ghostwriter.Ghostwriter,
					MSI:      msi,
				})
				app.Prepare(sys)
				cycles := sys.Run(24, app.Kernel)
				b.ReportMetric(float64(cycles), "cycles")
				b.ReportMetric(float64(sys.Stats().ServicedByGS+sys.Stats().ServicedByGI), "absorbed")
			}
		})
	}
}

// BenchmarkRelatedWork_MigratoryBaselines compares three designs on the
// paper's migratory false-sharing pattern: baseline MESI, MESI with the
// Stenström-style migratory optimization (§5's conventional alternative),
// and Ghostwriter — the comparison the paper's related-work section frames.
// The migratory optimization helps *true* migratory sharing but cannot help
// false sharing (different addresses in one block still force ownership
// transfers); Ghostwriter absorbs the false-sharing stores entirely.
func BenchmarkRelatedWork_MigratoryBaselines(b *testing.B) {
	designs := []struct {
		name string
		cfg  ghostwriter.Config
		d    int
	}{
		{"mesi", ghostwriter.Config{}, -1},
		{"mesi+migratory-opt", ghostwriter.Config{MigratoryOpt: true}, -1},
		{"ghostwriter-d8", ghostwriter.Config{Protocol: ghostwriter.Ghostwriter}, 8},
	}
	for _, dz := range designs {
		dz := dz
		b.Run(dz.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := ghostwriter.New(dz.cfg)
				base := sys.AllocPadded(64)
				tr := trace.Migratory(trace.PatternConfig{
					Threads: 8, Rounds: 400, Base: base, DDist: dz.d,
					Scribble: dz.d > 0,
				})
				cycles := sys.Run(tr.NumThreads(), tr.Kernel())
				b.ReportMetric(float64(cycles), "cycles")
				b.ReportMetric(float64(sys.Stats().TotalMsgs()), "messages")
			}
		})
	}
}

// BenchmarkRelatedWork_ApproxCoherence compares the approximate-coherence
// design space §5 frames: baseline MESI, the prior load-side approximation
// (Rengasamy-style stale loads), Ghostwriter's store-side states, and both
// combined — on the headline application.
func BenchmarkRelatedWork_ApproxCoherence(b *testing.B) {
	designs := []struct {
		name  string
		cfg   ghostwriter.Config
		ddist int
	}{
		{"mesi", ghostwriter.Config{}, -1},
		// Load-side only: the base protocol stays MESI (scribbles run as
		// plain stores), but armed regions may execute on stale loads.
		{"stale-loads", ghostwriter.Config{StaleLoads: true}, 8},
		{"ghostwriter", ghostwriter.Config{Protocol: ghostwriter.Ghostwriter}, 8},
		{"both", ghostwriter.Config{Protocol: ghostwriter.Ghostwriter, StaleLoads: true}, 8},
	}
	for _, dz := range designs {
		dz := dz
		b.Run(dz.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f, err := workloads.Lookup("linear_regression")
				if err != nil {
					b.Fatal(err)
				}
				app := f.New(1)
				app.SetDDist(dz.ddist)
				sys := ghostwriter.New(dz.cfg)
				app.Prepare(sys)
				cycles := sys.Run(24, app.Kernel)
				b.ReportMetric(float64(cycles), "cycles")
				b.ReportMetric(float64(sys.Stats().TotalMsgs()), "messages")
				b.ReportMetric(quality.Measure(quality.MPE, app.Output(sys), app.Golden()), "error-pct")
				b.ReportMetric(float64(sys.Stats().StaleLoadHits), "stale-loads")
			}
		})
	}
}

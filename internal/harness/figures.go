package harness

import (
	"fmt"
	"io"

	ghostwriter "ghostwriter"
	"ghostwriter/internal/stats"
	"ghostwriter/internal/workloads"
)

// fig1Threads is the thread-count sweep of Fig. 1. The first entry must be
// 1: it doubles as the per-kernel speedup baseline.
var fig1Threads = []int{1, 2, 4, 8, 16, 24}

// Fig1Point is one point of the Fig. 1 speedup curves.
type Fig1Point struct {
	Threads          int
	NaiveSpeedup     float64 // Listing 1 vs its single-thread run
	PrivatizedSpeed  float64 // Listing 2 vs its single-thread run
	NaiveCycles      uint64
	PrivatizedCycles uint64
}

// fig1Jobs lays out the Fig. 1 (kernel × thread-count) grid.
func fig1Jobs(opt Options) []Job {
	apps := []string{"bad_dot_product", "priv_dot_product"}
	var jobs []Job
	for _, n := range fig1Threads {
		for _, app := range apps {
			o := opt
			o.Threads = n
			jobs = append(jobs, Job{
				Label: fmt.Sprintf("fig1 %s t=%d", app, n),
				Spec:  specFor(app, o, 0, false, ghostwriter.PolicyHybrid),
			})
		}
	}
	return jobs
}

// Fig1 reproduces Fig. 1: speedup of the naive (Listing 1) and privatized
// (Listing 2) dot products vs thread count under baseline MESI. The (kernel
// × thread-count) grid runs on the worker pool, then the table prints in
// sweep order.
func (r *Runner) Fig1(w io.Writer, opt Options) ([]Fig1Point, error) {
	cells := r.Run(fig1Jobs(opt))
	if err := firstErr(cells); err != nil {
		return nil, err
	}
	base := [2]uint64{cells[0].Result.Cycles, cells[1].Result.Cycles} // the t=1 runs
	fmt.Fprintf(w, "Fig. 1 — dot-product speedup vs thread count (baseline MESI)\n")
	fmt.Fprintf(w, "%8s %14s %14s\n", "threads", "naive", "privatized")
	var out []Fig1Point
	for i, n := range fig1Threads {
		nc := cells[2*i].Result.Cycles
		pc := cells[2*i+1].Result.Cycles
		p := Fig1Point{
			Threads:          n,
			NaiveCycles:      nc,
			PrivatizedCycles: pc,
			NaiveSpeedup:     float64(base[0]) / float64(nc),
			PrivatizedSpeed:  float64(base[1]) / float64(pc),
		}
		out = append(out, p)
		fmt.Fprintf(w, "%8d %13.2fx %13.2fx\n", n, p.NaiveSpeedup, p.PrivatizedSpeed)
	}
	return out, nil
}

// fig2Dists are the d-distance points reported for the Fig. 2 CDF.
var fig2Dists = []int{0, 1, 2, 4, 8, 12, 16}

// Fig2Row is one application's cumulative d-distance distribution.
type Fig2Row struct {
	App     string
	Suite   string
	CDF     map[int]float64 // d → fraction of stores within d-distance
	Samples uint64
}

// fig2Jobs lays out the Fig. 2 profiler grid: one baseline run per suite
// application with the similarity profiler on.
func fig2Jobs(opt Options) []Job {
	suite := workloads.Suite()
	jobs := make([]Job, 0, len(suite))
	for _, f := range suite {
		jobs = append(jobs, Job{
			Label: "fig2 " + f.Name,
			Spec:  specFor(f.Name, opt, 0, true, ghostwriter.PolicyHybrid),
		})
	}
	return jobs
}

// Fig2 reproduces Fig. 2: the cumulative distribution of d-distances
// between store values and the values they overwrite, per application,
// measured on baseline runs with the similarity profiler enabled.
func (r *Runner) Fig2(w io.Writer, opt Options) ([]Fig2Row, error) {
	suite := workloads.Suite()
	cells := r.Run(fig2Jobs(opt))
	if err := firstErr(cells); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "Fig. 2 — cumulative d-distance distribution of overwritten store values\n")
	fmt.Fprintf(w, "%-18s %-8s", "app", "suite")
	for _, d := range fig2Dists {
		fmt.Fprintf(w, " %7s", fmt.Sprintf("≤%d", d))
	}
	fmt.Fprintln(w)
	var out []Fig2Row
	for i, f := range suite {
		cdf, n := cells[i].Result.Stats.DistCDF()
		row := Fig2Row{App: f.Name, Suite: f.Suite, CDF: map[int]float64{}, Samples: n}
		fmt.Fprintf(w, "%-18s %-8s", f.Name, f.Suite)
		for _, d := range fig2Dists {
			row.CDF[d] = cdf[d]
			fmt.Fprintf(w, " %6.1f%%", cdf[d]*100)
		}
		fmt.Fprintln(w)
		out = append(out, row)
	}
	return out, nil
}

// Fig7 reports the approximate-state utilization of Fig. 7: the share of
// stores that would have missed on S (resp. I) serviced by GS (resp. GI),
// at d-distance 4 and 8.
func Fig7(w io.Writer, suite []SuiteResult) {
	fmt.Fprintf(w, "Fig. 7 — stores serviced by approximate states\n")
	fmt.Fprintf(w, "%-18s %12s %12s %12s %12s\n", "app", "GS d=4", "GS d=8", "GI d=4", "GI d=8")
	var gs4, gs8, gi4, gi8 float64
	for _, s := range suite {
		fmt.Fprintf(w, "%-18s %11.1f%% %11.1f%% %11.1f%% %11.1f%%\n", s.App,
			s.D4.GSFrac()*100, s.D8.GSFrac()*100, s.D4.GIFrac()*100, s.D8.GIFrac()*100)
		gs4 += s.D4.GSFrac()
		gs8 += s.D8.GSFrac()
		gi4 += s.D4.GIFrac()
		gi8 += s.D8.GIFrac()
	}
	n := float64(len(suite))
	fmt.Fprintf(w, "%-18s %11.1f%% %11.1f%% %11.1f%% %11.1f%%\n", "Avg.",
		gs4/n*100, gs8/n*100, gi4/n*100, gi8/n*100)
}

// Fig8 reports normalized coherence traffic by message class at d ∈
// {0, 4, 8}, each application normalized to its baseline total.
func Fig8(w io.Writer, suite []SuiteResult) {
	fmt.Fprintf(w, "Fig. 8 — coherence traffic normalized to baseline MESI\n")
	fmt.Fprintf(w, "%-18s %3s", "app", "d")
	for _, c := range stats.MsgClasses() {
		fmt.Fprintf(w, " %9s", c)
	}
	fmt.Fprintf(w, " %9s\n", "total")
	for _, s := range suite {
		baseTotal := float64(s.Base.Stats.TotalMsgs())
		for _, r := range []*RunResult{&s.Base, &s.D4, &s.D8} {
			fmt.Fprintf(w, "%-18s %3d", s.App, r.DDist)
			for _, c := range stats.MsgClasses() {
				fmt.Fprintf(w, " %9.3f", float64(r.Stats.Msgs[c])/baseTotal)
			}
			fmt.Fprintf(w, " %9.3f\n", float64(r.Stats.TotalMsgs())/baseTotal)
		}
	}
}

// Fig9 reports NoC + memory-hierarchy dynamic energy savings at d ∈ {4, 8}.
func Fig9(w io.Writer, suite []SuiteResult) {
	fmt.Fprintf(w, "Fig. 9 — dynamic energy saved vs baseline MESI\n")
	fmt.Fprintf(w, "%-18s %12s %12s %14s %14s\n",
		"app", "total d=4", "total d=8", "network d=4", "network d=8")
	var t4, t8 float64
	for _, s := range suite {
		fmt.Fprintf(w, "%-18s %11.1f%% %11.1f%% %13.1f%% %13.1f%%\n", s.App,
			s.EnergySavedPct4, s.EnergySavedPct8, s.NetEnergySaved4Pct, s.NetEnergySaved8Pct)
		t4 += s.EnergySavedPct4
		t8 += s.EnergySavedPct8
	}
	n := float64(len(suite))
	fmt.Fprintf(w, "%-18s %11.1f%% %11.1f%%\n", "Avg.", t4/n, t8/n)
}

// Fig10 reports speedup at d ∈ {4, 8}.
func Fig10(w io.Writer, suite []SuiteResult) {
	fmt.Fprintf(w, "Fig. 10 — speedup vs baseline MESI\n")
	fmt.Fprintf(w, "%-18s %12s %12s\n", "app", "d=4", "d=8")
	var t4, t8 float64
	for _, s := range suite {
		fmt.Fprintf(w, "%-18s %11.1f%% %11.1f%%\n", s.App, s.SpeedupPct4, s.SpeedupPct8)
		t4 += s.SpeedupPct4
		t8 += s.SpeedupPct8
	}
	n := float64(len(suite))
	fmt.Fprintf(w, "%-18s %11.1f%% %11.1f%%\n", "Avg.", t4/n, t8/n)
}

// Fig11 reports output error at d ∈ {4, 8}.
func Fig11(w io.Writer, suite []SuiteResult) {
	fmt.Fprintf(w, "Fig. 11 — output error (Table 2 metric per application)\n")
	fmt.Fprintf(w, "%-18s %-7s %12s %12s\n", "app", "metric", "d=4", "d=8")
	var t4, t8 float64
	for _, s := range suite {
		fmt.Fprintf(w, "%-18s %-7s %11.4f%% %11.4f%%\n",
			s.App, s.Base.Metric, s.D4.ErrorPct, s.D8.ErrorPct)
		t4 += s.D4.ErrorPct
		t8 += s.D8.ErrorPct
	}
	n := float64(len(suite))
	fmt.Fprintf(w, "%-18s %-7s %11.4f%% %11.4f%%\n", "Avg.", "", t4/n, t8/n)
}

// Fig12Point is one timeout setting of the Fig. 12 sensitivity study.
type Fig12Point struct {
	Timeout    uint64
	GIFracPct  float64
	ErrorPct   float64
	GITimeouts uint64
}

// fig12Timeouts are the GI timeout periods of Fig. 12.
var fig12Timeouts = []uint64{128, 512, 1024}

// fig12Jobs lays out the Fig. 12 GI-timeout sensitivity grid.
func fig12Jobs(opt Options) []Job {
	jobs := make([]Job, 0, len(fig12Timeouts))
	for _, to := range fig12Timeouts {
		s := specFor("bad_dot_product", opt, 4, false, ghostwriter.PolicyHybrid)
		s.Config.GITimeout = to
		jobs = append(jobs, Job{Label: fmt.Sprintf("fig12 timeout=%d", to), Spec: s})
	}
	return jobs
}

// Fig12 reproduces Fig. 12: GI utilization and output error of the
// bad_dot_product microbenchmark (4-distance scribbles) across GI timeout
// periods.
func (r *Runner) Fig12(w io.Writer, opt Options) ([]Fig12Point, error) {
	cells := r.Run(fig12Jobs(opt))
	if err := firstErr(cells); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "Fig. 12 — GI timeout sensitivity (bad_dot_product, 4-distance)\n")
	fmt.Fprintf(w, "%10s %14s %14s\n", "timeout", "serviced by GI", "output error")
	var out []Fig12Point
	for i, to := range fig12Timeouts {
		res := cells[i].Result
		p := Fig12Point{
			Timeout:    to,
			GIFracPct:  res.GIFrac() * 100,
			ErrorPct:   res.ErrorPct,
			GITimeouts: res.Stats.GITimeouts,
		}
		out = append(out, p)
		fmt.Fprintf(w, "%10d %13.1f%% %13.2f%%\n", to, p.GIFracPct, p.ErrorPct)
	}
	return out, nil
}

// Table1 prints the simulated configuration (the paper's Table 1), for the
// interconnect opt selects.
func Table1(w io.Writer, opt Options) {
	cfg := ghostwriter.Config{Protocol: ghostwriter.Ghostwriter, Topo: opt.Topo, Nodes: opt.Nodes}
	mc := cfg.MachineConfig()
	fmt.Fprintf(w, "Table 1 — simulation configuration\n")
	fmt.Fprintf(w, "%-12s %d in-order cores, blocking, 1 op/issue\n", "Cores", mc.Cores)
	fmt.Fprintf(w, "%-12s private %dkB D-cache, %d-way, %dB blocks, tree PLRU, %d-cycle hit\n",
		"L1", mc.L1.SizeBytes>>10, mc.L1.Ways, mc.L1.BlockSize, mc.L1HitLatency)
	fmt.Fprintf(w, "%-12s shared banks at directory homes, %d-cycle access\n", "L2", mc.L2Latency)
	fmt.Fprintf(w, "%-12s Ghostwriter over MESI directory; GI timeout %d cycles\n",
		"Coherence", mc.GITimeout)
	netDesc := "invalid topology"
	if topo, err := mc.Mesh.Topology(); err == nil {
		netDesc = topo.Describe()
	}
	fmt.Fprintf(w, "%-12s %s, %d-cycle router, %d-cycle link, %d directories at nodes %v\n",
		"Network", netDesc, mc.Mesh.RouterDelay, mc.Mesh.LinkDelay,
		len(mc.DirNodes), mc.DirNodes)
	fmt.Fprintf(w, "%-12s %d-cycle access latency, %d-cycle channel occupancy\n",
		"DRAM", mc.DRAM.AccessLatency, mc.DRAM.Occupancy)
}

// Table2 prints the benchmark suite (the paper's Table 2).
func Table2(w io.Writer, opt Options) {
	fmt.Fprintf(w, "Table 2 — benchmarks\n")
	fmt.Fprintf(w, "%-18s %-8s %-20s %-6s %s\n", "application", "suite", "domain", "error", "input")
	for _, f := range workloads.Suite() {
		fmt.Fprintf(w, "%-18s %-8s %-20s %-6s %s\n", f.Name, f.Suite, f.Domain, f.Metric, f.Input)
	}
}

// Extensions runs the beyond-Table-2 applications (kmeans, sobel, fft) at
// d ∈ {0, 4, 8} and prints the same columns the suite figures use.
func (r *Runner) Extensions(w io.Writer, opt Options) ([]SuiteResult, error) {
	out, err := r.runSuiteApps(workloads.Extensions(), opt)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "Extensions — beyond the paper's Table 2 (same suites)\n")
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s %12s\n",
		"app", "traffic d=8", "speedup d=8", "GS d=8", "GI d=8", "error d=8")
	for _, s := range out {
		fmt.Fprintf(w, "%-10s %12.3f %11.1f%% %11.1f%% %11.1f%% %11.4f%%\n",
			s.App, s.TrafficNorm8, s.SpeedupPct8,
			s.D8.GSFrac()*100, s.D8.GIFrac()*100, s.D8.ErrorPct)
	}
	return out, nil
}

// protoGridNames are the registered protocol tables the ablation grid
// compares, in print order: the pure baseline, the full protocol, and the
// GS-only ablation.
var protoGridNames = []string{"mesi", "ghostwriter", "gw-noGI"}

// protoGridDist is the d-distance the protocol ablation runs at (the
// paper's headline d = 8 column).
const protoGridDist = 8

// ProtocolRow is one (application × protocol) cell of the ablation grid.
type ProtocolRow struct {
	App      string `json:"app"`
	Protocol string `json:"protocol"`
	Cycles   uint64 `json:"cycles"`
	// TrafficNorm is total coherence messages normalized to the
	// application's mesi run.
	TrafficNorm float64 `json:"trafficNorm"`
	GSPct       float64 `json:"gsPct"`
	GIPct       float64 `json:"giPct"`
	ErrorPct    float64 `json:"errorPct"`
}

// protoJobs lays out the (application × protocol) ablation grid. Every
// cell names its protocol explicitly, overriding whatever Options carries.
func protoJobs(opt Options) []Job {
	suite := workloads.Suite()
	jobs := make([]Job, 0, len(suite)*len(protoGridNames))
	for _, f := range suite {
		for _, p := range protoGridNames {
			s := specFor(f.Name, opt, protoGridDist, false, ghostwriter.PolicyHybrid)
			s.Protocol = p
			jobs = append(jobs, Job{
				Label: fmt.Sprintf("protocols %s %s", f.Name, p),
				Spec:  s,
			})
		}
	}
	return jobs
}

// ProtocolGrid compares the registered protocol tables on the Table 2
// suite at d = 8: baseline mesi (scribbles escalate to stores), the full
// Ghostwriter protocol, and the GS-only gw-noGI ablation.
func (r *Runner) ProtocolGrid(w io.Writer, opt Options) ([]ProtocolRow, error) {
	suite := workloads.Suite()
	cells := r.Run(protoJobs(opt))
	if err := firstErr(cells); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "Protocol ablation — registered tables at d=%d\n", protoGridDist)
	fmt.Fprintf(w, "%-18s %-12s %12s %12s %8s %8s %10s\n",
		"app", "protocol", "cycles", "traffic", "GS", "GI", "error")
	var out []ProtocolRow
	for i, f := range suite {
		base := cells[i*len(protoGridNames)].Result // the mesi column
		for j, p := range protoGridNames {
			res := cells[i*len(protoGridNames)+j].Result
			row := ProtocolRow{
				App:         f.Name,
				Protocol:    p,
				Cycles:      res.Cycles,
				TrafficNorm: ratio(res.Stats.TotalMsgs(), base.Stats.TotalMsgs()),
				GSPct:       res.GSFrac() * 100,
				GIPct:       res.GIFrac() * 100,
				ErrorPct:    res.ErrorPct,
			}
			out = append(out, row)
			fmt.Fprintf(w, "%-18s %-12s %12d %12.3f %7.1f%% %7.1f%% %9.4f%%\n",
				row.App, row.Protocol, row.Cycles, row.TrafficNorm,
				row.GSPct, row.GIPct, row.ErrorPct)
		}
	}
	return out, nil
}

// topoGridDist is the d-distance the topology ablation contrasts against
// its own in-topology baseline (the paper's headline d = 8 column).
const topoGridDist = 8

// TopologyRow is one (application × topology) cell of the interconnect
// ablation: the d = 8 run against the same topology's baseline, so the
// columns isolate how much of Ghostwriter's win each network keeps.
type TopologyRow struct {
	App   string `json:"app"`
	Topo  string `json:"topo"`
	Nodes int    `json:"nodes"`
	// BaseCycles and Cycles are the topology's own d = 0 and d = 8 runs.
	BaseCycles uint64 `json:"baseCycles"`
	Cycles     uint64 `json:"cycles"`
	// TrafficNorm is d = 8 total coherence messages normalized to the same
	// topology's baseline (cross-topology cycle counts are not comparable;
	// the within-topology ratios are).
	TrafficNorm       float64 `json:"trafficNorm"`
	SpeedupPct        float64 `json:"speedupPct"`
	NetEnergySavedPct float64 `json:"netEnergySavedPct"`
	ErrorPct          float64 `json:"errorPct"`
}

// topoJobs lays out the (application × topology × {0, d}) ablation grid.
// The mesh cell keeps Topo empty — the canonical spelling of the default —
// so its cells share cache entries (and keys) with the main suite grids.
func topoJobs(opt Options) []Job {
	suite := workloads.Suite()
	topos := ghostwriter.Topologies()
	jobs := make([]Job, 0, len(suite)*len(topos)*2)
	for _, f := range suite {
		for _, tp := range topos {
			o := opt
			o.Topo = tp
			if tp == "mesh" {
				o.Topo = ""
			}
			for _, d := range []int{0, topoGridDist} {
				jobs = append(jobs, Job{
					Label: fmt.Sprintf("topologies %s %s d=%d", f.Name, tp, d),
					Spec:  specFor(f.Name, o, d, false, ghostwriter.PolicyHybrid),
				})
			}
		}
	}
	return jobs
}

// TopologyGrid compares the registered interconnect topologies on the
// Table 2 suite: for each (application, topology) pair it runs d = 0 and
// d = 8 on that network and reports the within-topology gains — whether the
// protocol's traffic reduction still buys speedup when the network is a
// ring (serialized), a torus (shorter routes), or an ideal crossbar (no
// path contention).
func (r *Runner) TopologyGrid(w io.Writer, opt Options) ([]TopologyRow, error) {
	suite := workloads.Suite()
	topos := ghostwriter.Topologies()
	cells := r.Run(topoJobs(opt))
	if err := firstErr(cells); err != nil {
		return nil, err
	}
	nodes := opt.Nodes
	if nodes == 0 {
		nodes = ghostwriter.Config{}.MachineConfig().Mesh.NodeCount()
	}
	fmt.Fprintf(w, "Topology ablation — within-topology gains at d=%d (%d nodes)\n", topoGridDist, nodes)
	fmt.Fprintf(w, "%-18s %-7s %12s %12s %12s %12s %10s\n",
		"app", "topo", "base cycles", "traffic", "speedup", "net energy", "error")
	var out []TopologyRow
	i := 0
	for _, f := range suite {
		for _, tp := range topos {
			base, d8 := cells[i].Result, cells[i+1].Result
			i += 2
			row := TopologyRow{
				App:               f.Name,
				Topo:              tp,
				Nodes:             nodes,
				BaseCycles:        base.Cycles,
				Cycles:            d8.Cycles,
				TrafficNorm:       ratio(d8.Stats.TotalMsgs(), base.Stats.TotalMsgs()),
				SpeedupPct:        pctGain(base.Cycles, d8.Cycles),
				NetEnergySavedPct: pctSaved(base.Energy.NetworkPJ, d8.Energy.NetworkPJ),
				ErrorPct:          d8.ErrorPct,
			}
			out = append(out, row)
			fmt.Fprintf(w, "%-18s %-7s %12d %12.3f %11.1f%% %11.1f%% %9.4f%%\n",
				row.App, row.Topo, row.BaseCycles, row.TrafficNorm,
				row.SpeedupPct, row.NetEnergySavedPct, row.ErrorPct)
		}
	}
	return out, nil
}

// TrendPoint is one input-scale measurement of the headline application.
type TrendPoint struct {
	Scale        int
	TrafficNorm8 float64
	SpeedupPct8  float64
	ErrorPct8    float64
}

// trendJobs lays out the scale-trend (scale × d) grid.
func trendJobs(opt Options, scales []int) []Job {
	var jobs []Job
	for _, sc := range scales {
		o := opt
		o.Scale = sc
		for _, d := range suiteDists {
			jobs = append(jobs, Job{
				Label: fmt.Sprintf("trend scale=%d d=%d", sc, d),
				Spec:  specFor("linear_regression", o, d, false, ghostwriter.PolicyHybrid),
			})
		}
	}
	return jobs
}

// ScaleTrend measures linear_regression across input scales, supporting the
// EXPERIMENTS.md analysis that the reproduction's shapes are stable under
// scaling while residency-window error shrinks with input size. All (scale
// × d) cells run on the pool before the table prints.
func (r *Runner) ScaleTrend(w io.Writer, opt Options, scales []int) ([]TrendPoint, error) {
	cells := r.Run(trendJobs(opt, scales))
	if err := firstErr(cells); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "Scale trend — linear_regression, d=8 vs baseline\n")
	fmt.Fprintf(w, "%6s %14s %12s %12s\n", "scale", "traffic norm", "speedup", "error")
	var out []TrendPoint
	for i, sc := range scales {
		s := deriveSuite(cells[3*i].Result, cells[3*i+1].Result, cells[3*i+2].Result)
		p := TrendPoint{
			Scale:        sc,
			TrafficNorm8: s.TrafficNorm8,
			SpeedupPct8:  s.SpeedupPct8,
			ErrorPct8:    s.D8.ErrorPct,
		}
		out = append(out, p)
		fmt.Fprintf(w, "%6d %14.3f %11.1f%% %11.4f%%\n", sc, p.TrafficNorm8, p.SpeedupPct8, p.ErrorPct8)
	}
	return out, nil
}

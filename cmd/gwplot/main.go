// Command gwplot renders the paper's figures as terminal bar charts, either
// from a JSON report produced by `gwsweep -json` or by running the
// evaluation directly. It draws the sections the report carries, so a report
// of one experiment (`gwsweep -exp fig12 -json`) draws that figure alone.
//
//	gwsweep -json report.json && gwplot -in report.json
//	gwplot -threads 8            # run + plot in one go
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"ghostwriter/internal/harness"
	"ghostwriter/internal/plot"
)

func main() {
	var (
		in      = flag.String("in", "", "JSON report from gwsweep -json (empty = run the evaluation now)")
		scale   = flag.Int("scale", 1, "input scale when running the evaluation")
		threads = flag.Int("threads", 24, "threads when running the evaluation")
	)
	flag.Parse()
	rep, err := load(*in, harness.Options{Scale: *scale, Threads: *threads})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gwplot:", err)
		os.Exit(1)
	}
	render(os.Stdout, rep)
}

func load(path string, opt harness.Options) (*harness.Report, error) {
	if path == "" {
		return harness.NewRunner(0).RunExperiment(io.Discard, "all", opt)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rep harness.Report
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// render draws, blank-line separated, every chart the report has bars
// for, then the sweep cost.
func render(w io.Writer, rep *harness.Report) {
	sep := ""
	draw := func(cfg plot.Config, bars []plot.Bar) {
		if len(bars) > 0 {
			fmt.Fprint(w, sep)
			plot.HBar(w, cfg, bars)
			sep = "\n"
		}
	}

	var naive, priv []plot.Bar
	for _, p := range rep.Fig1 {
		label := fmt.Sprintf("%2d threads", p.Threads)
		naive = append(naive, plot.Bar{Label: label, Value: p.NaiveSpeedup})
		priv = append(priv, plot.Bar{Label: label, Value: p.PrivatizedSpeed})
	}
	draw(plot.Config{Title: "Fig. 1a — naive dot product speedup (Listing 1)", Unit: "x"}, naive)
	draw(plot.Config{Title: "Fig. 1b — privatized dot product speedup (Listing 2)", Unit: "x"}, priv)

	var sim8 []plot.Bar
	for _, r := range rep.Fig2 {
		sim8 = append(sim8, plot.Bar{Label: r.App, Value: r.CDF[8] * 100})
	}
	draw(plot.Config{Title: "Fig. 2 — stores within 8-distance of the overwritten value", Unit: "%", Max: 100}, sim8)

	var gs, gi, traffic, energy, speedup, errBars []plot.Bar
	for _, s := range rep.Suite {
		gs = append(gs, plot.Bar{Label: s.App, Value: s.GSPct8})
		gi = append(gi, plot.Bar{Label: s.App, Value: s.GIPct8})
		traffic = append(traffic, plot.Bar{Label: s.App, Value: (1 - s.TrafficNorm8) * 100})
		energy = append(energy, plot.Bar{Label: s.App, Value: s.EnergySaved8Pct})
		speedup = append(speedup, plot.Bar{Label: s.App, Value: s.Speedup8Pct})
		errBars = append(errBars, plot.Bar{Label: s.App, Value: s.Error8Pct})
	}
	draw(plot.Config{Title: "Fig. 7a — S-store misses serviced by GS (d=8)", Unit: "%", Max: 100}, gs)
	draw(plot.Config{Title: "Fig. 7b — I-store misses serviced by GI (d=8)", Unit: "%", Max: 100}, gi)
	draw(plot.Config{Title: "Fig. 8 — coherence traffic reduction (d=8)", Unit: "%"}, traffic)
	draw(plot.Config{Title: "Fig. 9 — dynamic energy saved (d=8)", Unit: "%"}, energy)
	draw(plot.Config{Title: "Fig. 10 — speedup (d=8)", Unit: "%"}, speedup)
	draw(plot.Config{Title: "Fig. 11 — output error (d=8)", Unit: "%"}, errBars)

	var giUtil, giErr []plot.Bar
	for _, p := range rep.Fig12 {
		label := fmt.Sprintf("timeout %4d", p.Timeout)
		giUtil = append(giUtil, plot.Bar{Label: label, Value: p.GIFracPct})
		giErr = append(giErr, plot.Bar{Label: label, Value: p.ErrorPct})
	}
	draw(plot.Config{Title: "Fig. 12a — GI utilization vs timeout (bad_dot_product, d=4)", Unit: "%"}, giUtil)
	draw(plot.Config{Title: "Fig. 12b — output error vs timeout", Unit: "%"}, giErr)

	if rep.Timing != nil {
		fmt.Fprint(w, sep)
		renderTiming(w, rep)
	}
}

// renderTiming charts the sweep-cost fields of the report: total wall
// clock, the simulated/cached split, and the slowest cells.
func renderTiming(w io.Writer, rep *harness.Report) {
	t := rep.Timing
	fmt.Fprintf(w, "Sweep cost — %.0f ms wall clock on %d workers (%d cells simulated, %d from cache)\n",
		t.WallMS, rep.Jobs, t.Simulated, t.CacheHits)
	if t.SimCyclesPerSec > 0 {
		fmt.Fprintf(w, "Throughput — %.2f cells/sec, %.3g sim-cycles/sec\n",
			t.CellsPerSec, t.SimCyclesPerSec)
	}
	if r := t.Remote; r != nil {
		fmt.Fprintf(w, "Remote cache — %d hits, %d misses, %d puts, %d errors",
			r.Hits, r.Misses, r.Puts, r.Errors)
		if r.Degraded {
			fmt.Fprint(w, " (degraded to local-only)")
		}
		fmt.Fprintln(w)
	}
	cells := append([]harness.CellTiming(nil), t.Cells...)
	sort.SliceStable(cells, func(i, j int) bool { return cells[i].MS > cells[j].MS })
	if len(cells) > 10 {
		cells = cells[:10]
	}
	var bars []plot.Bar
	for _, c := range cells {
		label := c.Label
		if c.Cached {
			label += " (cached)"
		}
		bars = append(bars, plot.Bar{Label: label, Value: c.MS})
	}
	if len(bars) > 0 {
		plot.HBar(w, plot.Config{Title: "Slowest cells", Unit: "ms"}, bars)
	}
}

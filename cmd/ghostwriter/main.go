// Command ghostwriter runs one benchmark on the simulated CMP and prints a
// full measurement report: cycles, coherence traffic by class, approximate
// state utilization, dynamic energy, and output error.
//
// Usage:
//
//	ghostwriter -app linear_regression -d 8 -threads 24
//	ghostwriter -app jpeg -d 4 -protocol gw-resident
//	ghostwriter -app linear_regression -protocol gw-msi   # any registered table
//	ghostwriter -tables -protocol mesi-mig                # print its tables
//	ghostwriter -config            # print the Table 1 configuration
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	ghostwriter "ghostwriter"
	ptable "ghostwriter/internal/coherence/proto"
	"ghostwriter/internal/harness"
	"ghostwriter/internal/prof"
	"ghostwriter/internal/stats"
	"ghostwriter/internal/workloads"
)

// main delegates to realMain so profile flushing (deferred there) survives
// the explicit exit code.
func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the command on args: 0 on success, 1 on a failed run, 2 on a
// usage error (an unknown flag, protocol or topology).
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ghostwriter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		app     = fs.String("app", "linear_regression", "benchmark name (see -list)")
		d       = fs.Int("d", 8, "d-distance (0 = baseline MESI)")
		threads = fs.Int("threads", 24, "worker threads (one per core)")
		scale   = fs.Int("scale", 1, "input scale factor")
		proto   = fs.String("protocol", "", "coherence protocol table: "+strings.Join(ptable.Names(), "|")+" (empty = d-distance decides)")
		topo    = fs.String("topo", "", "interconnect topology: mesh|ring|torus|xbar (empty = the Table 1 mesh)")
		nodes   = fs.Int("nodes", 0, "interconnect node count (0 = the Table 1 24; mesh/torus fold it into the most square grid)")
		timeout = fs.Uint64("gi-timeout", 1024, "GI timeout period in cycles (positive)")
		list    = fs.Bool("list", false, "list available benchmarks")
		config  = fs.Bool("config", false, "print the simulated configuration and exit")
		tables  = fs.Bool("tables", false, "print the selected protocol's transition tables as markdown and exit")
		tune    = fs.Float64("autotune", -1, "auto-tune d for this output-error target (percent)")
		cores   = fs.Bool("cores", false, "print the per-thread utilization breakdown")
		nocHot  = fs.Bool("noc", false, "print the hottest mesh links")
		bound   = fs.Uint("bound", 0, "error-bound monitor: max hidden writes per GS/GI residency (0 = off)")
		adaptGI = fs.Bool("adaptive-gi", false, "let each controller adapt its GI sweep period")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *timeout == 0 {
		fmt.Fprintln(stderr, "ghostwriter: -gi-timeout 0: the GI sweep period must be positive")
		return 2
	}
	if *bound > math.MaxUint32 {
		fmt.Fprintf(stderr, "ghostwriter: -bound %d: must be at most %d\n", *bound, uint32(math.MaxUint32))
		return 2
	}
	if *proto != "" {
		if _, err := ghostwriter.ParseProtocol(*proto); err != nil {
			fmt.Fprintln(stderr, "ghostwriter:", err)
			return 2
		}
	}
	if err := ghostwriter.ValidateTopology(*topo, *nodes); err != nil {
		fmt.Fprintln(stderr, "ghostwriter:", err)
		return 2
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(stderr, "ghostwriter:", err)
		return 1
	}
	defer stopProf()

	if *config {
		harness.Table1(stdout, harness.Options{Topo: *topo, Nodes: *nodes})
		return 0
	}
	if *tables {
		name := *proto
		if name == "" {
			name = string(ghostwriter.Ghostwriter)
		}
		fmt.Fprint(stdout, ptable.Markdown(ptable.MustLookup(name)))
		return 0
	}
	if *list {
		harness.Table2(stdout, harness.Options{Scale: *scale, Threads: *threads})
		fmt.Fprintln(stdout, "plus microbenchmarks: bad_dot_product, priv_dot_product")
		return 0
	}
	if *tune >= 0 {
		if err := autotune(stdout, *app, *scale, *threads, *tune); err != nil {
			fmt.Fprintln(stderr, "ghostwriter:", err)
			return 1
		}
		return 0
	}
	spec := harness.Spec{App: *app, Scale: *scale, Threads: *threads, DDist: *d,
		Config: ghostwriter.Config{
			Protocol:          ghostwriter.Protocol(*proto),
			GITimeout:         *timeout,
			ErrorBound:        uint32(*bound),
			AdaptiveGITimeout: *adaptGI,
			Topo:              *topo,
			Nodes:             *nodes,
		}}
	if err := run(stdout, spec, *cores, *nocHot); err != nil {
		fmt.Fprintln(stderr, "ghostwriter:", err)
		return 1
	}
	return 0
}

// autotune sweeps the d-distance and reports the most aggressive setting
// meeting the error target (the §3.5 PGO/auto-tuning hook).
func autotune(w io.Writer, name string, scale, threads int, targetPct float64) error {
	opt := harness.Options{Scale: scale, Threads: threads}
	best, runs, err := harness.NewRunner(0).AutoTune(name, opt, targetPct)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "auto-tuning %s for <= %.3f%% output error\n", name, targetPct)
	fmt.Fprintf(w, "%4s %12s %12s %12s\n", "d", "cycles", "messages", "error")
	for _, r := range runs {
		marker := " "
		if r.DDist == best {
			marker = "*"
		}
		fmt.Fprintf(w, "%3d%s %12d %12d %11.4f%%\n", r.DDist, marker, r.Cycles, r.Stats.TotalMsgs(), r.ErrorPct)
	}
	if best == 0 {
		fmt.Fprintln(w, "no approximation level met the target; use the baseline protocol")
	} else {
		fmt.Fprintf(w, "chosen d-distance: %d\n", best)
	}
	return nil
}

// run simulates one cell through the harness's one execution path and
// prints its report from the result; the system it ran on supplies only the
// resolved protocol name and the -cores and -noc breakdowns.
func run(w io.Writer, spec harness.Spec, cores, nocHot bool) error {
	res, sys, err := harness.Simulate(spec)
	if err != nil {
		return err
	}
	f, _ := workloads.Lookup(res.App) // Simulate found it
	st, e := &res.Stats, &res.Energy

	fmt.Fprintf(w, "%s (%s, %s) — %s, d-distance %d, %d threads, scale %d\n",
		res.App, res.Suite, f.Domain, sys.Protocol(), res.DDist, res.Threads, spec.Scale)
	fmt.Fprintf(w, "%-26s %d\n", "cycles", res.Cycles)
	fmt.Fprintf(w, "%-26s %d loads, %d stores, %d scribbles\n", "core ops",
		st.Loads, st.Stores, st.Scribbles)
	fmt.Fprintf(w, "%-26s %.2f%% loads, %.2f%% stores\n", "L1 miss rate",
		pct(st.L1LoadMisses, st.Loads), pct(st.L1StoreMisses, st.Stores+st.Scribbles))
	fmt.Fprintf(w, "%-26s", "coherence messages")
	for _, c := range stats.MsgClasses() {
		fmt.Fprintf(w, " %s=%d", c, st.Msgs[c])
	}
	fmt.Fprintf(w, " total=%d\n", st.TotalMsgs())
	fmt.Fprintf(w, "%-26s %d flit-hops\n", "NoC", st.FlitHops)
	if res.DDist > 0 {
		fmt.Fprintf(w, "%-26s %d entries, %d serviced (%.1f%% of S-store misses)\n", "GS",
			st.GSEntries, st.ServicedByGS, pct(st.ServicedByGS, st.StoresOnS))
		fmt.Fprintf(w, "%-26s %d entries, %d serviced (%.1f%% of I-store misses), %d timeouts\n", "GI",
			st.GIEntries, st.ServicedByGI, pct(st.ServicedByGI, st.StoresOnI), st.GITimeouts)
		fmt.Fprintf(w, "%-26s %d\n", "scribble fallbacks", st.ScribbleFallbacks)
	}
	fmt.Fprintf(w, "%-26s %.1f nJ memory + %.1f nJ network = %.1f nJ\n", "dynamic energy",
		e.MemoryPJ/1000, e.NetworkPJ/1000, e.TotalPJ()/1000)
	fmt.Fprintf(w, "%-26s %.4f%% (%s)\n", "output error", res.ErrorPct, res.Metric)
	if cores {
		fmt.Fprintf(w, "\n%6s %6s %10s %12s %12s %12s %12s\n",
			"thread", "core", "ops", "mem cyc", "compute cyc", "barrier cyc", "finish")
		for _, r := range sys.Machine().CoreReport() {
			fmt.Fprintf(w, "%6d %6d %10d %12d %12d %12d %12d\n",
				r.Thread, r.Core, r.Ops, r.MemCycles, r.ComputeCycles, r.BarrierCycles, r.FinishCycle)
		}
	}
	if nocHot {
		fmt.Fprintf(w, "\nhottest interconnect links (flit-cycles):\n")
		for _, l := range sys.Machine().Network().TopLinks(8) {
			fmt.Fprintf(w, "  %2d → %2d: %8d msgs %10d busy cycles\n", l.From, l.To, l.Msgs, l.BusyCycles)
		}
	}
	return nil
}

func pct(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den) * 100
}

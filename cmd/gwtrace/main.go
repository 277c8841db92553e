// Command gwtrace drives the trace frontend: it generates synthetic
// sharing-pattern traces (the §3.3 migratory and producer-consumer
// patterns, false/pathological sharing, or random fuzz), saves them to
// disk, and replays trace files on the simulated machine under either
// protocol and any interconnect topology.
//
//	gwtrace -gen migratory -threads 8 -rounds 500 -o mig.gwtr
//	gwtrace -replay mig.gwtr -d 8
//	gwtrace -gen producer-consumer -replay -            # generate and replay in one go
//	gwtrace -gen false-sharing -replay - -topo ring     # replay on a 24-node ring
//	gwtrace -gen pathological-sharing -replay - -topo torus -nodes 64
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	ghostwriter "ghostwriter"
	"ghostwriter/internal/stats"
	"ghostwriter/internal/trace"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the command on args: 0 on success, 1 on a failed run (a bad
// topology or thread count, an unreadable trace), 2 on an unknown flag.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gwtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		gen     = fs.String("gen", "", "generate a trace: migratory|producer-consumer|false-sharing|pathological-sharing|random")
		out     = fs.String("o", "", "write the generated trace to this file")
		replay  = fs.String("replay", "", "replay a trace file ('-' = the trace just generated)")
		threads = fs.Int("threads", 8, "threads in a generated trace")
		rounds  = fs.Int("rounds", 500, "rounds per thread in a generated trace")
		d       = fs.Int("d", 8, "d-distance for replay (0 = baseline MESI)")
		seed    = fs.Int64("seed", 42, "seed for random traces")
		topo    = fs.String("topo", "", "interconnect topology for replay: mesh|ring|torus|xbar (empty = the Table 1 mesh)")
		nodes   = fs.Int("nodes", 0, "interconnect node count for replay (0 = the Table 1 24)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	err := ghostwriter.ValidateTopology(*topo, *nodes)
	if err == nil {
		err = run(stdout, *gen, *out, *replay, *threads, *rounds, *d, *seed, *topo, *nodes)
	}
	if err != nil {
		fmt.Fprintln(stderr, "gwtrace:", err)
		return 1
	}
	return 0
}

func run(w io.Writer, gen, out, replay string, threads, rounds, d int, seed int64, topo string, nodes int) error {
	// The generated trace targets a fixed block-aligned base; the replay
	// machine allocates the same region, so traces are position-stable.
	const base = 0x2_0000
	const span = 4096

	var tr *trace.Trace
	if gen != "" {
		if threads < 1 {
			return fmt.Errorf("-threads %d: a trace needs at least one thread", threads)
		}
		pc := trace.PatternConfig{
			Threads: threads, Rounds: rounds, Base: base,
			DDist: d, Scribble: d > 0,
		}
		switch gen {
		case "migratory":
			tr = trace.Migratory(pc)
		case "producer-consumer":
			tr = trace.ProducerConsumer(pc)
		case "false-sharing":
			tr = trace.FalseSharing(pc)
		case "pathological-sharing":
			tr = trace.PathologicalSharing(pc)
		case "random":
			tr = trace.Random(pc, seed, span)
		default:
			return fmt.Errorf("unknown pattern %q", gen)
		}
		fmt.Fprintf(w, "generated %s trace: %d threads, %d ops\n", gen, tr.NumThreads(), tr.Ops())
		if out != "" {
			var buf bytes.Buffer
			if err := tr.Save(&buf); err != nil {
				return err
			}
			if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
				return err
			}
			fmt.Fprintln(w, "wrote", out)
		}
	}

	switch {
	case replay == "":
		return nil
	case replay == "-":
		if tr == nil {
			return fmt.Errorf("-replay - requires -gen")
		}
	default:
		data, err := os.ReadFile(replay)
		if err != nil {
			return err
		}
		if tr, err = trace.Load(bytes.NewReader(data)); err != nil {
			return err
		}
		fmt.Fprintf(w, "loaded trace: %d threads, %d ops\n", tr.NumThreads(), tr.Ops())
	}

	cfg := ghostwriter.Config{Topo: topo, Nodes: nodes}
	if d > 0 {
		cfg.Protocol = ghostwriter.Ghostwriter
	}
	sys := ghostwriter.New(cfg)
	// Threads are pinned one per core.
	if n := tr.NumThreads(); n < 1 || n > sys.Cores() {
		return fmt.Errorf("cannot replay a %d-thread trace on %d cores", n, sys.Cores())
	}
	// Reserve the trace's address region.
	sys.Alloc(base+span, 64)
	cycles := sys.Run(tr.NumThreads(), tr.Kernel())
	st := sys.Stats()
	fmt.Fprintf(w, "replayed under %s (d=%d): %d cycles\n", cfg.Protocol, d, cycles)
	fmt.Fprintf(w, "%-20s", "messages:")
	for _, c := range stats.MsgClasses() {
		fmt.Fprintf(w, " %s=%d", c, st.Msgs[c])
	}
	fmt.Fprintf(w, " total=%d\n", st.TotalMsgs())
	if d > 0 {
		fmt.Fprintf(w, "%-20s GS=%d GI=%d fallbacks=%d\n", "approx:",
			st.ServicedByGS, st.ServicedByGI, st.ScribbleFallbacks)
	}
	return nil
}

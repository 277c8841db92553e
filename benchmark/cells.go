package main

import (
	"fmt"
	"time"

	ghostwriter "ghostwriter"
	"ghostwriter/internal/quality"
	"ghostwriter/internal/trace"
	"ghostwriter/internal/workloads"
)

// cell is one in-process evaluation cell: either a registered application
// at a d-distance and scale, or one of the two seeded kernels the
// benchmark owns (Seeded != "").
type cell struct {
	App     string
	DDist   int // 0 = baseline MESI with scribbles demoted to stores
	Scale   int
	Threads int
	Cfg     ghostwriter.Config

	// Seeded names a seeded cell; exactly one of Walk and Trace is set.
	Seeded    string
	Walk      [][]walkStep
	WalkWords int
	Trace     *trace.Trace
	TraceBase ghostwriter.Addr
	TraceSpan int
}

// id names the cell in golden.json, spans and failure messages.
func (c cell) id() string {
	topo := "mesh24"
	if c.Cfg.Topo != "" {
		topo = fmt.Sprintf("%s%d", c.Cfg.Topo, c.Cfg.Nodes)
	}
	if c.Seeded != "" {
		return fmt.Sprintf("%s/t%d/%s", c.Seeded, c.Threads, topo)
	}
	return fmt.Sprintf("%s/d%d/s%d/t%d/%s", c.App, c.DDist, c.Scale, c.Threads, topo)
}

// appCell is an application cell on the Table 1 machine. As in the
// harness, a positive d-distance selects the ghostwriter protocol.
func appCell(app string, ddist, scale int) cell {
	c := cell{App: app, DDist: ddist, Scale: scale, Threads: cellThreads}
	if ddist > 0 {
		c.Cfg.Protocol = ghostwriter.Ghostwriter
	}
	return c
}

// torusCell is appCell on the largest supported grid, one thread per node.
func torusCell(app string, ddist, scale int) cell {
	c := appCell(app, ddist, scale)
	c.Threads = torusNodes
	c.Cfg.Topo, c.Cfg.Nodes = "torus", torusNodes
	return c
}

func traceCell(name string, in *inputs, tr *trace.Trace, sz sizes, p ghostwriter.Protocol) cell {
	return cell{
		Seeded: name, Threads: cellThreads, Cfg: ghostwriter.Config{Protocol: p},
		Trace: tr, TraceBase: in.TraceBase, TraceSpan: sz.TraceSpan,
	}
}

// The four in-process cell workloads. Each list is a constant of the
// benchmark apart from its one seeded cell.

func hitsCells(e *env) []cell {
	s := e.sz.HitsScale
	return []cell{
		appCell("histogram", 0, s), appCell("pca", 0, s),
		appCell("priv_dot_product", 0, s), appCell("sobel", 0, s),
		{Seeded: "priv_walk", Threads: cellThreads, Walk: e.in.Walks, WalkWords: e.sz.WalkWords},
	}
}

func sharingCells(e *env) []cell {
	s := e.sz.SharingScale
	return []cell{
		appCell("bad_dot_product", 0, s), appCell("linear_regression", 0, s),
		appCell("kmeans", 0, s), appCell("fft", 0, s),
		traceCell("random_mesi", e.in, e.in.Sharing, e.sz, ghostwriter.Baseline),
	}
}

func scribbleCells(e *env) []cell {
	s := e.sz.ScribbleScale
	return []cell{
		appCell("bad_dot_product", 4, s), appCell("linear_regression", 8, s),
		appCell("kmeans", 8, s), appCell("jpeg", 8, s), appCell("fft", 8, s),
		traceCell("random_scribble", e.in, e.in.Scribble, e.sz, ghostwriter.Ghostwriter),
	}
}

func torusCells(e *env) []cell {
	s := e.sz.TorusScale
	return []cell{torusCell("histogram", 8, s), torusCell("linear_regression", 0, s)}
}

// prepareWalk allocates one private, block-padded array per thread and
// returns the priv_walk kernel: every thread replays its generated walk
// over its own array, so after the first touches the L1 serves everything
// and the kernel↔engine handoff is all that is left.
func prepareWalk(sys *ghostwriter.System, walks [][]walkStep, words int) ghostwriter.Kernel {
	arrays := make([]*ghostwriter.Uint32Array, len(walks))
	for t := range arrays {
		arrays[t] = sys.NewUint32Array(make([]uint32, words), true)
	}
	return func(t *ghostwriter.Thread) {
		a := arrays[t.ID()]
		var acc uint32
		for _, s := range walks[t.ID()] {
			if s.Store {
				a.Store(t, int(s.Idx), acc)
			} else {
				acc += a.Load(t, int(s.Idx))
			}
		}
	}
}

// cellOutcome is what running one cell measured.
type cellOutcome struct {
	digest  digest
	stats   ghostwriter.Stats
	window  ghostwriter.WindowStats
	run     float64 // host seconds inside System.Run
	mallocs float64 // Go mallocs inside System.Run
	invErr  error   // CheckInvariants(false); seeded cells only
}

// runCell builds, runs and verifies one cell, timing each public call it
// makes (the spans of the traced pass). Shards is left at its zero value:
// every in-process cell runs on the single-wheel fast path.
func runCell(tr *tracer, parent int, c cell) cellOutcome {
	id := c.id()
	root := tr.begin("cell", id, parent)
	defer tr.end(root)
	var (
		out    cellOutcome
		app    workloads.App
		metric quality.MetricKind
		kernel ghostwriter.Kernel
	)
	if c.App != "" {
		f, err := workloads.Lookup(c.App)
		if err != nil {
			panic(err) // the cell lists are constants of this package
		}
		t0 := time.Now()
		app, metric = f.New(c.Scale), f.Metric
		tr.add("workloads.new", id, root, t0, time.Now())
	}

	t0 := time.Now()
	sys := ghostwriter.New(c.Cfg)
	tr.add("machine.new", id, root, t0, time.Now())

	t0 = time.Now()
	switch {
	case app != nil:
		d := c.DDist
		if d == 0 {
			d = -1 // baseline: scribbles execute as conventional stores
		}
		app.SetDDist(d)
		app.Prepare(sys)
		kernel = app.Kernel
	case c.Walk != nil:
		kernel = prepareWalk(sys, c.Walk, c.WalkWords)
	default:
		// The trace was generated at the first padded allocation of a
		// fresh System; this is that allocation.
		if base := sys.AllocPadded(c.TraceSpan); base != c.TraceBase {
			panic(fmt.Sprintf("cell %s: trace generated at %#x but the system allocates at %#x", id, c.TraceBase, base))
		}
		kernel = c.Trace.Kernel()
	}
	tr.add("workloads.prepare", id, root, t0, time.Now())

	m0 := mallocs()
	t0 = time.Now()
	cycles := sys.Run(c.Threads, kernel)
	t1 := time.Now()
	out.mallocs = mallocs() - m0
	out.run = t1.Sub(t0).Seconds()
	tr.add("machine.run", id, root, t0, t1)

	t0 = time.Now()
	errorPct := 0.0
	if app != nil {
		errorPct = quality.Measure(metric, app.Output(sys), app.Golden())
	} else {
		out.invErr = sys.CheckInvariants(false)
	}
	tr.add("workloads.verify", id, root, t0, time.Now())

	out.stats = *sys.Stats()
	out.window = sys.WindowStats()
	out.digest = digestOf(cycles, &out.stats, sys.Energy(), errorPct)
	return out
}

// cellPass returns the pass function of an in-process cell workload.
func cellPass(cells func(e *env) []cell) func(e *env) passResult {
	return func(e *env) passResult {
		var p passResult
		start := time.Now()
		root := e.tr.begin("pass", "", -1)
		var hits, accesses float64
		for _, c := range cells(e) {
			t0 := time.Now()
			o := runCell(e.tr, root, c)
			id := c.id()
			p.unit(id, o.run, time.Since(t0).Seconds())
			p.Mallocs += o.mallocs
			p.Memops += float64(o.digest.memops())
			p.Cells++
			p.Schedules += float64(c.Threads)
			if c.Seeded != "" {
				p.check(o.invErr == nil, func() string { return fmt.Sprintf("cell %s: invariants: %v", id, o.invErr) })
				e.checkRepeat(&p, id, o.digest)
			} else if e.record != nil {
				e.record.Cells[id] = o.digest
			} else {
				msg := e.golden.checkCell(id, o.digest)
				p.check(msg == "", func() string { return msg })
			}

			st := &o.stats
			p.add("machine.memops", float64(o.digest.memops()))
			p.add("sim.events", float64(st.Events))
			p.add("sim.windows", float64(o.window.Windows))
			p.add("sim.merges", float64(o.window.Merges))
			p.add("sim.staged", float64(o.window.Staged))
			p.add("sim.steals", float64(o.window.Steals))
			if o.window.FastPath {
				p.add("sim.fast_path_cells", 1)
			}
			p.add("noc.msgs", float64(st.TotalMsgs()))
			p.add("noc.flit_hops", float64(st.FlitHops))
			p.add("coherence.l1_accesses", float64(st.L1Accesses))
			p.add("coherence.l1_misses", float64(st.L1LoadMisses+st.L1StoreMisses))
			p.add("coherence.dir_accesses", float64(st.DirAccesses))
			p.add("coherence.gs_entries", float64(st.GSEntries))
			p.add("coherence.gi_entries", float64(st.GIEntries))
			p.add("coherence.gi_timeouts", float64(st.GITimeouts))
			p.add("coherence.scribble_fallbacks", float64(st.ScribbleFallbacks))
			p.add("cache.l2_accesses", float64(st.L2Accesses))
			p.add("dram.accesses", float64(st.DRAMAccesses))
			hits += float64(st.L1LoadHits + st.L1StoreHits)
			accesses += float64(st.L1LoadHits + st.L1StoreHits + st.L1LoadMisses + st.L1StoreMisses)
		}
		e.tr.end(root)
		p.Wall = time.Since(start).Seconds()
		p.add("sim.events_per_memop", ratio(p.Layer["sim.events"], p.Memops))
		p.add("noc.msgs_per_memop", ratio(p.Layer["noc.msgs"], p.Memops))
		p.add("coherence.l1_hit_ratio", ratio(hits, accesses))
		return p
	}
}

// checkRepeat requires a seeded cell to give the same digest on every pass
// of a run (there is no golden digest for an input that depends on -seed).
func (e *env) checkRepeat(p *passResult, id string, got digest) {
	if e.seen == nil {
		e.seen = map[string]digest{}
	}
	first, ok := e.seen[id]
	if !ok {
		e.seen[id] = got
		first = got
	}
	d := got.diff(first)
	p.check(len(d) == 0, func() string {
		return fmt.Sprintf("cell %s: digest changed between passes: %v", id, d)
	})
}

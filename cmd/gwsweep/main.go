// Command gwsweep regenerates the paper's evaluation: every figure and
// table of §4, printed as the data series the paper plots. Use -exp to
// select one experiment or "all" (the default) for the whole evaluation.
//
// Cells run in parallel on a bounded worker pool (-jobs) and completed
// cells are stored in a content-addressed on-disk cache (-cache, disable
// with -nocache), so re-running a sweep only simulates cells whose
// configuration changed. Results are independent of -jobs: every simulation
// is a pure function of its configuration and results are reassembled in
// grid order.
//
//	gwsweep                       # everything, paper configuration
//	gwsweep -exp fig9 -threads 24 # one figure
//	gwsweep -scale 4              # larger inputs (slower, tighter shapes)
//	gwsweep -jobs 4 -nocache      # bounded parallelism, no result cache
//	gwsweep -remote http://cachehost:8344   # share results via gwcached
//	gwsweep -remote URL -submit             # post the -exp grid for dispatch
//	gwsweep -remote URL -worker             # claim, simulate, publish cells
//
// With -remote, cells resolve through a tiered backend (memo → local disk
// → gwcached) and completed cells are written through to the server, so a
// fleet of gwsweep hosts pointed at one gwcached shares every result. An
// unreachable server degrades the sweep to local-only; it never fails it.
//
// With -submit and/or -worker the sweep is actively partitioned instead of
// deduplicated: -submit posts the manifest of the selected experiment to
// the server's work dispatcher, and -worker turns this process into a
// fleet worker that leases batches of cells, simulates them, and publishes
// the results (renewing its leases by heartbeat, and backing off with
// jitter when the queue is momentarily empty). A worker that crashes
// simply lets its leases expire; the dispatcher re-queues its cells. Once
// the sweep completes, a plain `gwsweep -remote URL` on any host replays
// the whole evaluation from the shared store with zero simulations.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	ghostwriter "ghostwriter"
	"ghostwriter/internal/harness"
	"ghostwriter/internal/prof"
)

// main delegates to realMain so the deferred profile flush runs before the
// process exits, on every exit path.
func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		exp      = flag.String("exp", "all", "experiment: "+strings.Join(harness.ExperimentNames(), "|"))
		scale    = flag.Int("scale", 1, "input scale factor")
		threads  = flag.Int("threads", 24, "worker threads")
		protocol = flag.String("protocol", "", "coherence protocol table for every cell: mesi|ghostwriter|gw-noGI (empty = d-distance decides)")
		topo     = flag.String("topo", "", "interconnect topology for every cell: mesh|ring|torus|xbar (empty = the Table 1 mesh)")
		nodes    = flag.Int("nodes", 0, "interconnect node count (0 = the Table 1 24; mesh/torus fold it into the most square grid)")
		jobs     = flag.Int("jobs", 0, "parallel simulation workers (0 = GOMAXPROCS)")
		cacheDir = flag.String("cache", harness.DefaultCacheDir, "result cache directory")
		noCache  = flag.Bool("nocache", false, "disable the on-disk result cache")
		remote   = flag.String("remote", "", "comma-separated gwcached base URLs in preference order (e.g. http://primary:8344,http://standby:8344); the client fails over and readopts automatically")
		submit   = flag.Bool("submit", false, "post the -exp grid manifest to -remote for fleet dispatch")
		worker   = flag.Bool("worker", false, "run as a fleet worker: claim cells from -remote, simulate, publish")
		batch    = flag.Int("batch", 4, "cells per claim in -worker mode")
		workerID = flag.String("worker-id", "", "worker identity for lease tracking (default host-pid)")
		idleExit = flag.Duration("idle-exit", 0, "exit -worker mode after this long with no work (0 = wait indefinitely)")
		quiet    = flag.Bool("q", false, "suppress the stderr progress line")
		jsonPath = flag.String("json", "", "also write the full evaluation as JSON to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if err := harness.ValidateExperiment(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "gwsweep:", err)
		return 2
	}
	if *protocol != "" {
		if _, err := ghostwriter.ParseProtocol(*protocol); err != nil {
			fmt.Fprintln(os.Stderr, "gwsweep:", err)
			return 2
		}
	}
	if err := ghostwriter.ValidateTopology(*topo, *nodes); err != nil {
		fmt.Fprintln(os.Stderr, "gwsweep:", err)
		return 2
	}
	opt := harness.Options{Scale: *scale, Threads: *threads, Protocol: *protocol,
		Topo: *topo, Nodes: *nodes}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gwsweep:", err)
		return 1
	}
	defer stopProf()
	start := time.Now()

	r := harness.NewRunner(*jobs)
	if !*quiet {
		r.Progress = os.Stderr
	}
	var disk *harness.Cache
	if !*noCache {
		c, err := harness.OpenCache(*cacheDir)
		if err != nil {
			// An unwritable cache dir degrades to an uncached sweep.
			fmt.Fprintln(os.Stderr, "gwsweep: cache disabled:", err)
		} else {
			disk = c
		}
	}
	var rc *harness.RemoteCache
	if *remote != "" {
		c, err := harness.NewRemoteCache(harness.RemoteConfig{URLs: splitURLs(*remote)})
		if err != nil {
			fmt.Fprintln(os.Stderr, "gwsweep:", err)
			return 2
		}
		rc = c
		defer rc.Close()
	}
	if *submit || *worker {
		if rc == nil {
			fmt.Fprintln(os.Stderr, "gwsweep: -submit and -worker require -remote")
			return 2
		}
		// A fleet worker resolves cells through its local disk tier only:
		// a dispatched cell is by construction absent from the server, and
		// completion is an explicit publish, not cache write-through.
		if disk != nil {
			r.Cache = disk
		}
		if err := fleet(r, rc, *exp, opt, fleetConfig{
			submit:   *submit,
			worker:   *worker,
			batch:    *batch,
			workerID: *workerID,
			idleExit: *idleExit,
			quiet:    *quiet,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "gwsweep:", err)
			return 1
		}
		return 0
	}
	switch {
	case rc != nil:
		// Fastest tier first: a remote hit is backfilled onto local disk so
		// the next local run never leaves the host.
		var tiers []harness.CacheBackend
		if disk != nil {
			tiers = append(tiers, disk)
		}
		tiers = append(tiers, rc)
		r.Cache = harness.NewTieredCache(tiers...)
	case disk != nil:
		r.Cache = disk
	}

	if err := r.RunExperiment(os.Stdout, *exp, opt); err != nil {
		fmt.Fprintln(os.Stderr, "gwsweep:", err)
		return 1
	}
	if *jsonPath != "" {
		if err := writeJSON(r, *jsonPath, opt); err != nil {
			fmt.Fprintln(os.Stderr, "gwsweep:", err)
			return 1
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "gwsweep: %d cells simulated, %d served from cache",
			r.Simulated(), r.CacheHits())
		if f := r.Failures(); f > 0 {
			fmt.Fprintf(os.Stderr, ", %d failed", f)
		}
		fmt.Fprintln(os.Stderr)
		if wall := time.Since(start).Seconds(); wall > 0 && r.Simulated() > 0 {
			fmt.Fprintf(os.Stderr, "gwsweep: %.2f cells/sec, %.3g sim-cycles/sec over %s wall\n",
				float64(r.Simulated())/wall, float64(r.SimCycles())/wall,
				time.Since(start).Round(time.Millisecond))
		}
		if ws := r.WindowSummary(); ws.Windows > 0 {
			fmt.Fprintf(os.Stderr,
				"gwsweep: windows: %d drained, %d merged barriers, %.1f events/window (max %d)\n",
				ws.Windows, ws.Merges, ws.EventsPerWindow(), ws.MaxWindow)
		}
		if rc != nil {
			s, _ := rc.RemoteStats()
			fmt.Fprintf(os.Stderr, "gwsweep: remote cache: %d hits, %d misses, %d puts, %d errors",
				s.Hits, s.Misses, s.Puts, s.Errors)
			if s.Degraded {
				fmt.Fprint(os.Stderr, " (server unreachable — finished local-only)")
			}
			fmt.Fprintln(os.Stderr)
		}
	}
	return 0
}

// fleetConfig bundles the -submit/-worker knobs.
type fleetConfig struct {
	submit, worker bool
	batch          int
	workerID       string
	idleExit       time.Duration
	quiet          bool
}

// fleet runs the active-dispatch modes: post the manifest, work the queue,
// or both (one host typically runs `-submit -worker`, the rest `-worker`).
// ^C lets the in-flight batch's simulations finish but abandons their
// publication, leaving the cells to lease expiry — a stopped worker and a
// crashed one look identical to the dispatcher by design.
func fleet(r *harness.Runner, rc *harness.RemoteCache, exp string, opt harness.Options, cfg fleetConfig) error {
	if cfg.submit {
		manifest, err := harness.Manifest(exp, opt)
		if err != nil {
			return err
		}
		resp, err := rc.SubmitSweep(manifest)
		if err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		fmt.Fprintf(os.Stderr, "gwsweep: submitted %q: %d queued, %d already cached, %d already tracked",
			exp, resp.Queued, resp.Cached, resp.Known)
		if resp.Rejected > 0 {
			fmt.Fprintf(os.Stderr, ", %d REJECTED (client/server code versions differ?)", resp.Rejected)
		}
		fmt.Fprintf(os.Stderr, " · sweep %d/%d done\n", resp.Status.Done, resp.Status.Total)
	}
	if !cfg.worker {
		return nil
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	pool := &harness.WorkerPool{
		Runner:   r,
		Client:   rc,
		ID:       cfg.workerID,
		Batch:    cfg.batch,
		IdleExit: cfg.idleExit,
		Log:      os.Stderr,
	}
	stats, err := pool.Run(ctx)
	if !cfg.quiet {
		fmt.Fprintf(os.Stderr, "gwsweep: worker: %d cells claimed, %d published, %d failed, %d abandoned, %d leases lost\n",
			stats.Claimed, stats.Completed, stats.Failed, stats.Abandoned, stats.LostLeases)
	}
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "gwsweep: worker stopped by signal; unfinished cells will be re-dispatched on lease expiry")
		return nil
	}
	return err
}

// writeJSON dumps the full evaluation for plotting. The runner's in-process
// memo and disk cache mean every cell the text run already resolved is
// reused here instead of being simulated a second time.
func writeJSON(r *harness.Runner, path string, opt harness.Options) error {
	rep, err := r.BuildReport(opt)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := rep.WriteJSON(f); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// splitURLs parses the -remote flag: comma-separated server URLs in
// preference order, blanks dropped.
func splitURLs(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

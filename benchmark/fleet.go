package main

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"ghostwriter/internal/harness"
)

// baseExperiment is the experiment set-up pre-simulates; fleet_wal hands
// its results out as the results of the synthesized cells. What a result
// says is irrelevant to the fleet (it never simulates); only that it is a
// real, full-size RunResult matters.
const baseExperiment = "ext"

// rpcSample is one fleet RPC as the worker saw it.
type rpcSample struct {
	kind       string // "claim", "complete", "heartbeat"
	start, end time.Time
	cells      int
	memops     float64
	threads    float64
	failed     bool
}

// rpcLog collects the RPCs of one pass from every worker and cuts the
// drain into its timed windows as the completions arrive.
type rpcLog struct {
	mu      sync.Mutex
	samples []rpcSample
	// cut is the completion count at which the warm-up ends; completes
	// counts the successful completions so far.
	cut, completes int
	// marks[i] is the process CPU clock at completion cut + i*fleetWindow:
	// consecutive marks bound one window. cutMallocs is the process malloc
	// counter at marks[0].
	marks      []float64
	cutMallocs float64
	// What the completions after the cut carried.
	cells, memops, threads float64
}

// newRPCLog prepares the log of a drain of n cells.
func newRPCLog(n int) *rpcLog {
	l := &rpcLog{cut: fleetCut(n)}
	if l.cut == 0 {
		l.mark()
	}
	return l
}

func (l *rpcLog) mark() {
	if len(l.marks) == 0 {
		l.cutMallocs = mallocs()
	}
	l.marks = append(l.marks, cpuSeconds())
}

func (l *rpcLog) record(s rpcSample) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.samples = append(l.samples, s)
	if s.kind != "complete" || s.failed {
		return
	}
	l.completes++
	if l.completes > l.cut {
		l.cells += float64(s.cells)
		l.memops += s.memops
		l.threads += s.threads
	}
	if n := l.completes - l.cut; n >= 0 && n%fleetWindow == 0 {
		l.mark()
	}
}

// cpuSeconds is the clock fleet_wal is timed on: the CPU time, user plus
// system, this process has used so far, all threads together. Not the
// wall clock: a drain waits on the journal's fsync, and on the reference
// host's shared disk that wait moves the wall-clock rate between 250 and
// 2 200 cells/s from minute to minute, while the CPU the server and the
// workers spend per cell — what a change to this code moves — stays
// within a few per cent. RPC latencies and fleet.wall_cells_per_s, per
// layer, stay on the wall clock.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// timedClient is the timing decorator around the production RemoteCache:
// it implements harness.WorkClient, so the production WorkerPool drives
// it, and records every RPC's boundaries (and a span, when tracing).
type timedClient struct {
	inner  harness.WorkClient
	log    *rpcLog
	tr     *tracer
	parent int
}

func (c *timedClient) done(kind string, start time.Time, cells int, memops, threads float64, err error) {
	end := time.Now()
	c.log.record(rpcSample{kind: kind, start: start, end: end, cells: cells, memops: memops, threads: threads, failed: err != nil})
	c.tr.add("fleet."+kind, "", c.parent, start, end)
}

func (c *timedClient) ClaimWork(worker string, max int) (harness.ClaimResponse, error) {
	t0 := time.Now()
	resp, err := c.inner.ClaimWork(worker, max)
	c.done("claim", t0, len(resp.Items), 0, 0, err)
	return resp, err
}

func (c *timedClient) HeartbeatWork(worker string, keys []string) (harness.HeartbeatResponse, error) {
	t0 := time.Now()
	resp, err := c.inner.HeartbeatWork(worker, keys)
	c.done("heartbeat", t0, 0, 0, 0, err)
	return resp, err
}

func (c *timedClient) CompleteWork(key string, r *harness.RunResult) error {
	t0 := time.Now()
	err := c.inner.CompleteWork(key, r)
	c.done("complete", t0, 1, float64(r.Stats.Loads+r.Stats.Stores+r.Stats.Scribbles), float64(r.Threads), err)
	return err
}

// loadBaseResults reads the pre-simulated results set-up left in baseDir.
func loadBaseResults(baseDir string) ([]*harness.RunResult, error) {
	items, err := harness.Manifest(baseExperiment, harness.DefaultOptions())
	if err != nil {
		return nil, err
	}
	disk, err := harness.OpenCache(baseDir)
	if err != nil {
		return nil, err
	}
	out := make([]*harness.RunResult, 0, len(items))
	for _, it := range items {
		r, ok := disk.Get(it.Key)
		if !ok {
			return nil, fmt.Errorf("pre-simulated result for %s missing from %s", it.Label, baseDir)
		}
		out = append(out, r)
	}
	return out, nil
}

// fleetPass drives one whole fleet sweep through an in-process gwcached
// with the WAL on: submit the synthesized manifest, let fleetWorkers
// production WorkerPools (batch 4) drain it — their Runner finds every
// cell in a pre-loaded MemCache, so they claim and publish with zero
// simulation — then compact, close, recover, and check nothing was lost. It is a closed
// loop: each worker sends its next RPC only when the previous one
// returned. The first tenth of the completions is warm-up and is left out
// of the rates and the latency percentiles.
func fleetPass(e *env) (p passResult) {
	start := cpuSeconds()
	root := e.tr.begin("pass", "", -1)
	// Everything around the measured drain is timed phase by phase, each
	// a unit of its own, so that the units add up to the pass. All of it
	// is on the process CPU clock (see cpuSeconds).
	lapAt := start
	lap := func(id string) {
		now := cpuSeconds()
		p.unit(id, 0, now-lapAt)
		lapAt = now
	}
	defer func() {
		e.tr.end(root)
		lap("fleet.recover")
		p.Wall = cpuSeconds() - start
	}()
	fail := func(what string, err error) passResult {
		p.check(false, func() string { return fmt.Sprintf("%s: %v", what, err) })
		return p
	}

	e.seq++
	dir := filepath.Join(e.dir, fmt.Sprintf("fleet-%d", e.seq))
	defer os.RemoveAll(dir)
	walDir := filepath.Join(dir, "wal")
	store, err := harness.OpenCache(filepath.Join(dir, "store"))
	if err != nil {
		return fail("open store", err)
	}
	cached := func(key string) bool {
		_, ok := store.Get(key)
		return ok
	}
	dd, _, err := harness.OpenDurableDispatcher(walDir, 0, nil, cached)
	if err != nil {
		return fail("open durable dispatcher", err)
	}
	defer func() {
		if dd != nil {
			dd.Close()
		}
	}()
	srv := httptest.NewServer(harness.NewServer(harness.ServerConfig{Backend: store, Durable: dd}))
	defer srv.Close()

	base, err := loadBaseResults(e.baseDir)
	if err != nil {
		return fail("load pre-simulated results", err)
	}
	cells := e.in.Fleet
	n := len(cells)
	mem := harness.NewMemCache()
	for i, it := range cells {
		if err := mem.Put(it.Key, base[i%len(base)]); err != nil {
			return fail("preload", err)
		}
	}

	newClient := func() (*harness.RemoteCache, error) {
		return harness.NewRemoteCache(harness.RemoteConfig{URL: srv.URL, Log: io.Discard})
	}
	submitter, err := newClient()
	if err != nil {
		return fail("remote client", err)
	}
	defer submitter.Close()
	lap("fleet.prepare")
	t0 := time.Now()
	sub, err := submitter.SubmitSweep(cells)
	t1 := time.Now()
	e.tr.add("fleet.submit", "", root, t0, t1)
	p.add("fleet.submit_ms", t1.Sub(t0).Seconds()*1000)
	p.check(err == nil && sub.Queued == n, func() string {
		return fmt.Sprintf("submit: err=%v, %d of %d cells queued (%d rejected)", err, sub.Queued, n, sub.Rejected)
	})
	walLog := filepath.Join(walDir, "wal.log")
	submitBytes := fileSize(walLog) // one record per cell, each carrying its Spec

	clients := make([]*harness.RemoteCache, fleetWorkers)
	for w := range clients {
		if clients[w], err = newClient(); err != nil {
			return fail("remote client", err)
		}
		defer clients[w].Close()
	}
	lap("fleet.submit")
	log := newRPCLog(n)
	drainStart := time.Now()
	stats := make([]harness.WorkerStats, fleetWorkers)
	errs := make([]error, fleetWorkers)
	var wg sync.WaitGroup
	for w := range clients {
		pool := &harness.WorkerPool{
			Runner: &harness.Runner{Jobs: 1, Cache: mem},
			Client: &timedClient{inner: clients[w], log: log, tr: e.tr, parent: root},
			ID:     fmt.Sprintf("bench-%d", w),
			Batch:  4,
			// A worker that finds the queue empty while another still
			// holds the last leases polls again; keep that tail short so
			// it does not blur the pass's wall time.
			Poll: 2 * time.Millisecond, MaxPoll: 10 * time.Millisecond,
			Log: io.Discard,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[w], errs[w] = pool.Run(context.Background())
		}()
	}
	wg.Wait()
	drainWall := time.Since(drainStart).Seconds()
	p.Mallocs = mallocs() - log.cutMallocs

	// rpcErrs counts what the clients gave up on and, below, every RPC
	// that returned an error to its worker.
	var claimed, completed, lost, rpcErrs float64
	for w := range stats {
		p.check(errs[w] == nil && stats[w].Failed == 0 && stats[w].Abandoned == 0, func() string {
			return fmt.Sprintf("worker %d: err=%v, %d failed, %d abandoned", w, errs[w], stats[w].Failed, stats[w].Abandoned)
		})
		claimed += float64(stats[w].Claimed)
		completed += float64(stats[w].Completed)
		lost += float64(stats[w].LostLeases)
		rs, _ := clients[w].RemoteStats()
		rpcErrs += float64(rs.Errors)
	}
	st := dd.Status()
	p.check(st.Done == n && int(completed) == n, func() string {
		return fmt.Sprintf("sweep ended with %d of %d cells done (%d published)", st.Done, n, int(completed))
	})

	if e.tr.enabled() {
		// The workers finish every batch long before a lease needs
		// renewing, so heartbeat latency is sampled explicitly.
		hb := &timedClient{inner: submitter, log: log, tr: e.tr, parent: root}
		keys := []string{cells[0].Key, cells[n/2].Key, cells[n-1].Key}
		for i := 0; i < 100; i++ {
			hb.HeartbeatWork("bench-0", keys) // a failure is counted from the log below
		}
	}
	// Every window of fleetWindow completions is one sample of the drain.
	for i := 1; i < len(log.marks); i++ {
		d := log.marks[i] - log.marks[i-1]
		p.unit("fleet.drain", d, d)
	}
	p.Cells, p.Memops, p.Schedules = log.cells, log.memops, log.threads
	// The warm-up tenth and the last workers' empty polls: the drain
	// outside its timed windows.
	now := cpuSeconds()
	p.unit("fleet.edges", 0, now-lapAt-p.busy())
	lapAt = now
	p.add("fleet.wall_cells_per_s", ratio(float64(n), drainWall))
	fleetLatencies(&p, log)

	// One record per submit, lease and completion. Compaction truncates
	// the log while the workers run, so the bytes are an estimate: the
	// submit records as measured after submission, plus the lease and
	// completion records at the mean frame size of the tail still on disk.
	appends := float64(n) + claimed + completed
	tailFrame := ratio(fileSize(walLog), float64(dd.Journal().Appends()))
	bytes := submitBytes + (claimed+completed)*tailFrame
	p.add("wal.appends", appends)
	p.add("wal.bytes", bytes)
	p.add("wal.mean_record_bytes", ratio(bytes, appends)-8) // minus the frame header
	for _, s := range log.samples {
		if s.failed {
			rpcErrs++
		}
	}
	p.add("fleet.rpc_errors", rpcErrs)
	p.add("fleet.lost_leases", lost)
	p.add("fleet.rpcs", float64(len(log.samples)+1))
	p.check(rpcErrs == 0, func() string { return fmt.Sprintf("%v fleet RPC errors", rpcErrs) })

	t0 = time.Now()
	err = dd.Compact()
	t1 = time.Now()
	e.tr.add("wal.compact", "", root, t0, t1)
	p.add("wal.compact_ms", t1.Sub(t0).Seconds()*1000)
	lap("fleet.compact")
	p.check(err == nil, func() string { return fmt.Sprintf("compact: %v", err) })

	// Close, then recover the way a restarted gwcached does: the done set
	// must come back whole.
	srv.Close()
	err = dd.Close()
	dd = nil
	if err != nil {
		return fail("close journal", err)
	}
	t0 = time.Now()
	dd2, rec, err := harness.OpenDurableDispatcher(walDir, 0, nil, cached)
	t1 = time.Now()
	if err != nil {
		return fail("recover", err)
	}
	defer dd2.Close()
	e.tr.add("wal.recover", "", root, t0, t1)
	p.add("wal.recover_ms", t1.Sub(t0).Seconds()*1000)
	again := dd2.Submit(cells, cached)
	p.check(rec.Cells == n && rec.Done == n && again.Known == n, func() string {
		return fmt.Sprintf("recovery rebuilt %d cells, %d done, %d known on resubmission; want %d each", rec.Cells, rec.Done, again.Known, n)
	})
	return p
}

func fileSize(path string) float64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}

// fleetWorkers is how many production WorkerPools drain the queue, each a
// closed loop on its own connection. Sixteen, not nproc: with one worker
// per CPU both vCPUs fall idle between RPCs and the drain mostly times how
// fast an idle vCPU is woken — 250 to 2 200 cells/s from one minute to the
// next on the reference host. Sixteen keep the server saturated, which is
// also what a coordination ceiling means.
const fleetWorkers = 16

// fleetWindow is how many completions one timed window of the drain holds
// (about 9 ms of wall time, 14 ms of CPU); each window is one sample of
// the unit "fleet.drain".
const fleetWindow = 16

// fleetCut returns how many of n completions are warm-up: a tenth, plus
// the remainder that would not fill a window, so that the windows cover
// every measured cell.
func fleetCut(n int) int { return n - (n-n/10)/fleetWindow*fleetWindow }

// fleetLatencies fills the RPC latency percentiles from the log, leaving
// out each kind's first tenth as warm-up.
func fleetLatencies(p *passResult, log *rpcLog) {
	byKind := map[string][]rpcSample{}
	for _, s := range log.samples {
		if !s.failed {
			byKind[s.kind] = append(byKind[s.kind], s)
		}
	}
	for _, ss := range byKind {
		sort.Slice(ss, func(i, j int) bool { return ss[i].end.Before(ss[j].end) })
	}
	ms := func(kind string) []float64 {
		ss := byKind[kind]
		ss = ss[len(ss)/10:]
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = s.end.Sub(s.start).Seconds() * 1000
		}
		return out
	}
	for _, kind := range []string{"claim", "complete"} {
		lat := ms(kind)
		p.add("fleet."+kind+"_ms_p50", percentile(lat, 50))
		p.add("fleet."+kind+"_ms_p99", percentile(lat, 99))
		// The highest percentile this many samples can support, for the
		// human table: a smoke-size run has too few RPCs for a p99.
		tail := tailPercentile(len(lat))
		p.add("fleet."+kind+"_tail_pct", tail)
		p.add("fleet."+kind+"_ms_tail", percentile(lat, tail))
	}
	p.add("fleet.heartbeat_ms_p50", percentile(ms("heartbeat"), 50))
}

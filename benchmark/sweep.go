package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ghostwriter/internal/harness"
)

// sweepOptions is the evaluation gwsweep runs with its default flags:
// scale 1, 24 threads, and -shards auto, which resolves to GOMAXPROCS in
// the gwsweep process — the same value this process sees.
func sweepOptions() harness.Options {
	opt := harness.DefaultOptions()
	opt.Shards = runtime.GOMAXPROCS(0)
	return opt
}

// execSweep runs `gwsweep -exp all -q -cache dir` — the only flags the
// benchmark ever passes — and returns its standard output and wall time.
// With watchRSS it also polls the process's VmHWM while it runs and returns
// the last reading, in kB (a warm replay is over before the first poll).
func execSweep(e *env, cacheDir string, watchRSS bool) (stdout []byte, wall time.Duration, rssKB float64, err error) {
	cmd := exec.Command(e.gwsweep, "-exp", "all", "-q", "-cache", cacheDir)
	cmd.Dir = e.dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	if err = cmd.Start(); err == nil {
		peak := func() float64 { return 0 }
		if watchRSS {
			peak = watchPeakRSS(cmd.Process.Pid)
		}
		err = cmd.Wait()
		wall = time.Since(t0)
		rssKB = peak()
	}
	if err != nil {
		return nil, wall, 0, fmt.Errorf("gwsweep: %w: %s", err, bytes.TrimSpace(errb.Bytes()))
	}
	return out.Bytes(), wall, rssKB, nil
}

// watchPeakRSS polls pid's VmHWM every 20 ms until the returned function
// is called; that call stops the polling and returns the highest reading.
func watchPeakRSS(pid int) (stop func() float64) {
	done, result := make(chan struct{}), make(chan float64)
	go func() {
		var peak float64
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				result <- peak
				return
			case <-tick.C:
				peak = max(peak, peakRSSKB(fmt.Sprint(pid)))
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-result
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// sweepPass is one pass of the sweep workload: one cold `gwsweep -exp all`
// into a fresh cache directory, then the warm replays against it. The cold
// exec is the timed region of the rate metrics.
func sweepPass(e *env) (p passResult) {
	start := time.Now()
	root := e.tr.begin("pass", "", -1)
	defer e.tr.end(root)
	// The pass ends before the in-process layer measurements of a traced
	// pass, so that traced and untraced walls compare like with like.
	defer func() {
		if p.Wall == 0 {
			p.Wall = time.Since(start).Seconds()
		}
	}()
	e.seq++
	cacheDir := filepath.Join(e.dir, fmt.Sprintf("sweep-%d", e.seq))
	defer os.RemoveAll(cacheDir)

	t0 := time.Now()
	cold, wall, rss, err := execSweep(e, cacheDir, true)
	e.tr.add("sweep.cold", "", root, t0, time.Now())
	p.check(err == nil, func() string { return fmt.Sprintf("cold sweep: %v", err) })
	if err != nil {
		return p
	}
	p.unit("sweep.cold", wall.Seconds(), wall.Seconds())
	p.PeakKB = rss
	sum := sha256Hex(cold)
	if e.record != nil {
		e.record.SweepSHA256 = sum
	} else {
		p.check(sum == e.golden.SweepSHA256, func() string {
			return fmt.Sprintf("cold sweep stdout sha256 %s, golden %s", sum, e.golden.SweepSHA256)
		})
	}

	// What the cold run left in its cache is what it simulated: every cell
	// of the `all` manifest must be there, and their memops are the work
	// the cold wall time bought.
	manifest, err := harness.Manifest("all", sweepOptions())
	if err != nil {
		panic(err)
	}
	disk, err := harness.OpenCache(cacheDir)
	p.check(err == nil, func() string { return fmt.Sprintf("open sweep cache: %v", err) })
	if err != nil {
		return p
	}
	// gwsweep's heap cannot be seen from outside: reading its results back
	// is all of this workload that allocs_per_memop can count.
	t0 = time.Now()
	missing, m0 := 0, mallocs()
	for _, it := range manifest {
		r, ok := disk.Get(it.Key)
		if !ok {
			missing++
			continue
		}
		p.Cells++
		p.Memops += float64(r.Stats.Loads + r.Stats.Stores + r.Stats.Scribbles)
		p.Schedules += float64(r.Threads)
	}
	p.Mallocs = mallocs() - m0
	p.unit("sweep.readback", 0, time.Since(t0).Seconds())
	p.check(missing == 0, func() string {
		return fmt.Sprintf("cold sweep left %d of %d manifest cells out of its cache", missing, len(manifest))
	})

	for i := 0; i < e.sz.WarmReplays; i++ {
		t0 := time.Now()
		warm, wall, _, err := execSweep(e, cacheDir, false)
		e.tr.add("sweep.warm", "", root, t0, time.Now())
		p.check(err == nil && bytes.Equal(warm, cold), func() string {
			return fmt.Sprintf("warm replay %d: err=%v, stdout identical to cold: %v", i, err, bytes.Equal(warm, cold))
		})
		p.unit(warmUnit, 0, wall.Seconds())
	}
	p.Wall = time.Since(start).Seconds()
	if e.tr.enabled() {
		sweepLayers(e, &p, root)
	}
	return p
}

// timedBackend times a harness.CacheBackend from outside; the Runner calls
// it from every worker.
type timedBackend struct {
	inner      harness.CacheBackend
	mu         sync.Mutex
	getS, putS float64
	gets, puts int
}

func (b *timedBackend) Get(key string) (*harness.RunResult, bool) {
	t0 := time.Now()
	r, ok := b.inner.Get(key)
	d := time.Since(t0).Seconds()
	b.mu.Lock()
	b.getS += d
	b.gets++
	b.mu.Unlock()
	return r, ok
}

func (b *timedBackend) Put(key string, r *harness.RunResult) error {
	t0 := time.Now()
	err := b.inner.Put(key, r)
	d := time.Since(t0).Seconds()
	b.mu.Lock()
	b.putS += d
	b.puts++
	b.mu.Unlock()
	return err
}

// sweepLayers is the in-process half of the traced sweep pass. gwsweep
// itself cannot be seen into from outside, so the harness layers are
// measured by driving the same public functions it calls: a cold
// harness.Runner over the `all` manifest into a fresh disk cache
// (simulate, cache put, idle share), then the full report rendered from a
// second Runner that finds every cell cached (cache get, render). Cells
// run with Shards at zero — the fast path — so sim.windows/merges/steals
// describe this in-process run, not the exec'd `-shards auto` one.
func sweepLayers(e *env, p *passResult, parent int) {
	opt := harness.DefaultOptions()
	manifest, err := harness.Manifest("all", opt)
	if err != nil {
		panic(err)
	}
	jobs := make([]harness.Job, len(manifest))
	for i, it := range manifest {
		jobs[i] = harness.Job{Label: it.Label, Spec: it.Spec}
	}
	e.seq++
	dir := filepath.Join(e.dir, fmt.Sprintf("sweep-inproc-%d", e.seq))
	defer os.RemoveAll(dir)
	disk, err := harness.OpenCache(dir)
	if err != nil {
		p.check(false, func() string { return fmt.Sprintf("open in-process sweep cache: %v", err) })
		return
	}

	cold := &timedBackend{inner: disk}
	r := &harness.Runner{Cache: cold}
	t0 := time.Now()
	cells := r.Run(jobs)
	wall := time.Since(t0)
	e.tr.add("harness.run", "", parent, t0, time.Now())
	var simS float64
	for _, ct := range r.CellTimings() {
		if !ct.Cached {
			simS += ct.MS / 1000
		}
	}
	for _, c := range cells {
		p.check(c.Err == nil, func() string { return fmt.Sprintf("in-process cell %s: %v", c.Job.Label, c.Err) })
	}
	nproc := float64(runtime.NumCPU())
	ws := r.WindowSummary()
	p.add("harness.simulate_s", simS)
	p.add("harness.idle_frac", 1-ratio(simS, nproc*wall.Seconds()))
	p.add("harness.cache_put_ms", ratio(cold.putS*1000, float64(cold.puts)))
	p.add("harness.cells_simulated", float64(r.Simulated()))
	p.add("sim.windows", float64(ws.Windows))
	p.add("sim.merges", float64(ws.Merges))
	p.add("sim.steals", float64(ws.Steals))
	p.add("sim.fast_path_cells", float64(ws.FastCells))
	p.add("sim.events", float64(ws.Events))

	warm := &timedBackend{inner: disk}
	r2 := &harness.Runner{Cache: warm}
	t0 = time.Now()
	err = renderAll(r2, io.Discard, opt)
	e.tr.add("harness.render", "", parent, t0, time.Now())
	p.check(err == nil, func() string { return fmt.Sprintf("in-process render: %v", err) })
	p.add("harness.cache_get_ms", ratio(warm.getS*1000, float64(warm.gets)))
	p.add("harness.cache_hits", float64(r2.CacheHits()))
	p.add("harness.cache_hit_ratio", ratio(float64(r2.CacheHits()), float64(r2.CacheHits()+r2.Simulated())))
}

// renderAll renders the whole evaluation the way `gwsweep -exp all` does.
func renderAll(r *harness.Runner, w io.Writer, opt harness.Options) error {
	harness.Table1(w, opt)
	harness.Table2(w, opt)
	if _, err := r.Fig1(w, opt); err != nil {
		return err
	}
	if _, err := r.Fig2(w, opt); err != nil {
		return err
	}
	suite, err := r.RunSuite(opt)
	if err != nil {
		return err
	}
	harness.Fig7(w, suite)
	harness.Fig8(w, suite)
	harness.Fig9(w, suite)
	harness.Fig10(w, suite)
	harness.Fig11(w, suite)
	if _, err := r.Fig12(w, opt); err != nil {
		return err
	}
	if _, err := r.ProtocolGrid(w, opt); err != nil {
		return err
	}
	if _, err := r.TopologyGrid(w, opt); err != nil {
		return err
	}
	_, err = r.Extensions(w, opt)
	return err
}

package harness

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ghostwriter"
)

// Job is one cell of an evaluation grid: a Spec plus a human-readable label
// used in progress output and timing reports.
type Job struct {
	Label string
	Spec  Spec
}

// CellResult is the outcome of one Job.
type CellResult struct {
	Job    Job
	Result RunResult
	// Err is non-nil when the cell failed — including when its simulation
	// panicked (the Runner recovers per-job, so one crashing cell cannot
	// kill a sweep).
	Err error
	// Cached reports that Result came from the memo or the on-disk cache
	// rather than a fresh simulation.
	Cached bool
	// Elapsed is the cell's wall-clock time (near zero for cache hits).
	Elapsed time.Duration
}

// CellTiming is the report-facing slice of a CellResult.
type CellTiming struct {
	Label  string  `json:"label"`
	MS     float64 `json:"ms"`
	Cached bool    `json:"cached"`
}

// Runner executes evaluation grids on a bounded worker pool. Results are
// always returned in grid order regardless of completion order, and every
// simulation is a pure function of its Spec, so a parallel sweep is
// byte-identical to a serial one.
//
// Two cache tiers sit in front of the simulator:
//
//   - an in-process memo (always on) so one process never simulates the
//     same Spec twice — e.g. `gwsweep -exp all` resolves the mesh cells
//     the suite and topology grids share once;
//   - an optional CacheBackend shared across processes: the on-disk Cache,
//     or a TieredCache stacking disk in front of a RemoteCache so a fleet
//     of hosts shares one result store.
//
// Identical Specs submitted concurrently are additionally deduplicated
// in-flight: one worker simulates, the rest wait for its result, so a grid
// with repeated cells costs one simulation per distinct Spec even before
// the memo is populated.
//
// The zero value runs on GOMAXPROCS workers with no disk cache and no
// progress output.
type Runner struct {
	// Jobs is the worker count; values <= 0 select runtime.GOMAXPROCS(0).
	Jobs int
	// Cache, when non-nil, persists results across processes (and, for
	// remote-backed tiers, across hosts).
	Cache CacheBackend
	// Progress, when non-nil, receives a one-line progress/ETA ticker
	// (typically os.Stderr).
	Progress io.Writer

	// execute lets tests stub the simulation (nil → Simulate).
	execute func(Spec) (RunResult, error)

	simulated atomic.Uint64
	cacheHits atomic.Uint64
	failures  atomic.Uint64
	simCycles atomic.Uint64

	// Window-occupancy aggregates over the cells this Runner simulated
	// (cache hits drain no windows and contribute nothing).
	winWindows   atomic.Uint64
	winMerges    atomic.Uint64
	winEvents    atomic.Uint64
	winMaxWindow atomic.Uint64

	mu       sync.Mutex
	memo     map[string]RunResult
	inflight map[string]*inflightCell
	timings  []CellTiming
}

// inflightCell is one in-progress simulation other workers can wait on.
// res/err are written exactly once, before done is closed.
type inflightCell struct {
	done chan struct{}
	res  RunResult
	err  error
}

// NewRunner returns a Runner with the given worker count (0 = GOMAXPROCS).
func NewRunner(jobs int) *Runner { return &Runner{Jobs: jobs} }

// workers returns the effective worker-pool size.
func (r *Runner) workers() int {
	if r.Jobs > 0 {
		return r.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// Simulated returns how many cells this Runner simulated to completion.
// Cells that errored or panicked are counted by Failures, not here.
func (r *Runner) Simulated() uint64 { return r.simulated.Load() }

// CacheHits returns how many cells were served from the memo or disk cache.
func (r *Runner) CacheHits() uint64 { return r.cacheHits.Load() }

// Failures returns how many cells returned an error (panics included).
func (r *Runner) Failures() uint64 { return r.failures.Load() }

// SimCycles returns the aggregate simulated cycles across every cell this
// Runner simulated to completion (cache hits excluded — they cost no host
// time, so counting them would inflate throughput figures).
func (r *Runner) SimCycles() uint64 { return r.simCycles.Load() }

// WindowSummary aggregates the window-scheduling counters of every cell a
// sweep actually simulated: how many lookahead windows were drained, how
// many of their barriers merged cross-tile effects, and how densely windows
// were packed. Pure observability — never part of a fingerprint or cached
// result. Steals and FastCells are constants kept for benchmark/, which
// reads them (ROADMAP item 2(e)).
type WindowSummary struct {
	Windows   uint64 `json:"windows"`   // lookahead windows drained
	Merges    uint64 `json:"merges"`    // barriers that applied staged effects
	Events    uint64 `json:"events"`    // events fired inside window drains
	MaxWindow uint64 `json:"maxWindow"` // most events fired in one window
	Steals    uint64 `json:"steals"`    // always 0
	FastCells uint64 `json:"fastCells"` // always Cells
	Cells     uint64 `json:"cells"`     // simulated cells contributing
}

// EventsPerWindow returns the sweep-wide mean events per drained window.
func (w WindowSummary) EventsPerWindow() float64 {
	if w.Windows == 0 {
		return 0
	}
	return float64(w.Events) / float64(w.Windows)
}

// WindowSummary returns the aggregated window counters for this Runner's
// simulated cells.
func (r *Runner) WindowSummary() WindowSummary {
	cells := r.simulated.Load()
	return WindowSummary{
		Windows:   r.winWindows.Load(),
		Merges:    r.winMerges.Load(),
		Events:    r.winEvents.Load(),
		MaxWindow: r.winMaxWindow.Load(),
		FastCells: cells,
		Cells:     cells,
	}
}

// since brackets a cumulative summary against an earlier snapshot. The
// sums become deltas; MaxWindow stays the cumulative maximum (a maximum
// cannot be un-folded, and a Runner-lifetime max is still the honest
// answer to "how hot did a window get").
func (w WindowSummary) since(prev WindowSummary) WindowSummary {
	return WindowSummary{
		Windows:   w.Windows - prev.Windows,
		Merges:    w.Merges - prev.Merges,
		Events:    w.Events - prev.Events,
		MaxWindow: w.MaxWindow,
		FastCells: w.FastCells - prev.FastCells,
		Cells:     w.Cells - prev.Cells,
	}
}

// addWindowStats folds one simulated cell's window counters into the
// sweep aggregates.
func (r *Runner) addWindowStats(w ghostwriter.WindowStats) {
	r.winWindows.Add(w.Windows)
	r.winMerges.Add(w.Merges)
	r.winEvents.Add(w.Events)
	for {
		cur := r.winMaxWindow.Load()
		if w.MaxWindow <= cur || r.winMaxWindow.CompareAndSwap(cur, w.MaxWindow) {
			return
		}
	}
}

// Run executes every job and returns one CellResult per job, in job order.
// Cells run concurrently on the worker pool; a failing or panicking cell
// yields an error in its slot without affecting the others.
func (r *Runner) Run(jobs []Job) []CellResult {
	return r.RunContext(context.Background(), jobs)
}

// RunContext is Run with cooperative cancellation: once ctx is done, no
// further cell is dispatched and every undispatched cell comes back with
// ctx's error in its slot. Cells already simulating run to completion —
// simulations are not interruptible — so RunContext returns promptly after
// in-flight cells finish. The fleet WorkerPool leans on this to abandon a
// claimed batch when its process is asked to die, leaving the abandoned
// cells to lease expiry and redispatch.
func (r *Runner) RunContext(ctx context.Context, jobs []Job) []CellResult {
	out := make([]CellResult, len(jobs))
	if len(jobs) == 0 {
		return out
	}
	n := r.workers()
	if n > len(jobs) {
		n = len(jobs)
	}
	var (
		wg    sync.WaitGroup
		done  int // cells finished, counted by progress under r.mu
		start = time.Now()
		idx   = make(chan int)
	)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = r.runCell(jobs[i])
				r.progress(&done, len(jobs), start)
			}
		}()
	}
dispatch:
	for i := range jobs {
		select {
		case <-ctx.Done():
			// Distinct slots: the workers only ever write indices that were
			// sent on idx, and i onward never are.
			for j := i; j < len(jobs); j++ {
				out[j] = CellResult{Job: jobs[j], Err: ctx.Err()}
			}
			break dispatch
		case idx <- i:
		}
	}
	close(idx)
	wg.Wait()
	// Record timings in grid order so reports are stable across runs.
	r.mu.Lock()
	for _, c := range out {
		r.timings = append(r.timings, CellTiming{
			Label:  c.Job.Label,
			MS:     float64(c.Elapsed.Microseconds()) / 1000,
			Cached: c.Cached,
		})
	}
	r.mu.Unlock()
	return out
}

// RunSpec executes a single cell through the same memo/cache path.
func (r *Runner) RunSpec(s Spec) (RunResult, error) {
	c := r.runCell(Job{Label: s.App, Spec: s})
	return c.Result, c.Err
}

// runCell resolves one job: memo, then in-flight dedup, then the cache
// backend, then simulation.
func (r *Runner) runCell(j Job) (cr CellResult) {
	cr.Job = j
	start := time.Now()
	defer func() { cr.Elapsed = time.Since(start) }()

	key := j.Spec.Key()
	r.mu.Lock()
	if res, ok := r.memo[key]; ok {
		r.mu.Unlock()
		cr.Result, cr.Cached = res, true
		r.cacheHits.Add(1)
		return cr
	}
	// Singleflight: if another worker is already resolving this key, wait
	// for its result instead of simulating the same Spec a second time and
	// double-writing the cache.
	if in, ok := r.inflight[key]; ok {
		r.mu.Unlock()
		<-in.done
		if in.err != nil {
			// Errors are not memoized (a later identical Spec retries), but
			// this concurrent duplicate shares its leader's fate.
			cr.Err = in.err
			r.failures.Add(1)
			return cr
		}
		cr.Result, cr.Cached = in.res, true
		r.cacheHits.Add(1)
		return cr
	}
	in := &inflightCell{done: make(chan struct{})}
	if r.inflight == nil {
		r.inflight = make(map[string]*inflightCell)
	}
	r.inflight[key] = in
	r.mu.Unlock()
	defer func() {
		in.res, in.err = cr.Result, cr.Err
		r.mu.Lock()
		delete(r.inflight, key)
		r.mu.Unlock()
		close(in.done)
	}()

	if r.Cache != nil {
		if res, ok := r.Cache.Get(key); ok {
			cr.Result, cr.Cached = *res, true
			r.memoize(key, *res)
			r.cacheHits.Add(1)
			return cr
		}
	}

	func() {
		defer func() {
			if p := recover(); p != nil {
				cr.Err = fmt.Errorf("harness: cell %q panicked: %v", j.Label, p)
			}
		}()
		cr.Result, cr.Err = r.simulate(j.Spec)
	}()
	if cr.Err != nil {
		// A failed cell is not a simulated cell: the epilogue's "N
		// simulated" counts completed simulations only.
		r.failures.Add(1)
		return cr
	}
	r.simulated.Add(1)
	r.simCycles.Add(cr.Result.Cycles)
	r.addWindowStats(cr.Result.Window)
	r.memoize(key, cr.Result)
	if r.Cache != nil {
		// A failed write only costs a resimulation next process; the sweep
		// itself must not fail on cache I/O.
		_ = r.Cache.Put(key, &cr.Result)
	}
	return cr
}

func (r *Runner) simulate(s Spec) (RunResult, error) {
	if r.execute != nil {
		return r.execute(s)
	}
	res, _, err := Simulate(s)
	return res, err
}

func (r *Runner) memoize(key string, res RunResult) {
	r.mu.Lock()
	if r.memo == nil {
		r.memo = make(map[string]RunResult)
	}
	r.memo[key] = res
	r.mu.Unlock()
}

// timingLog returns a copy of the timing log from index from on.
func (r *Runner) timingLog(from int) []CellTiming {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]CellTiming, len(r.timings)-from)
	copy(out, r.timings[from:])
	return out
}

// CellTimings returns every cell timing recorded by this Runner, in the
// order the grids were submitted.
func (r *Runner) CellTimings() []CellTiming { return r.timingLog(0) }

// progress counts one more finished cell in *done and emits the ticker
// line: completed/total, percent, elapsed, ETA, and the simulated/cached
// split. It starts with \r so the line overwrites itself, and ends with a
// newline once the grid completes. The count is taken under the lock that
// orders the writes, so the lines count up and the newline comes last.
func (r *Runner) progress(done *int, total int, start time.Time) {
	if r.Progress == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	*done++
	n := *done
	elapsed := time.Since(start)
	eta := elapsed / time.Duration(n) * time.Duration(total-n)
	fmt.Fprintf(r.Progress, "\rsweep %d/%d (%d%%) · elapsed %s · eta %s · %d simulated · %d cached ",
		n, total, n*100/total, elapsed.Round(time.Second), eta.Round(time.Second),
		r.simulated.Load(), r.cacheHits.Load())
	if f := r.failures.Load(); f > 0 {
		fmt.Fprintf(r.Progress, "· %d failed ", f)
	}
	if n == total {
		fmt.Fprintln(r.Progress)
	}
}

// firstErr returns the first cell error in grid order, wrapped with its
// label, or nil.
func firstErr(cells []CellResult) error {
	for _, c := range cells {
		if c.Err != nil {
			return fmt.Errorf("harness: %s: %w", c.Job.Label, c.Err)
		}
	}
	return nil
}

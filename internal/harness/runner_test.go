package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ghostwriter/internal/workloads"
)

// cellFingerprint is the byte-comparable projection of one cell the
// determinism contract covers: every cycle count, every counter, and the
// output-quality metric.
func cellFingerprint(t *testing.T, r RunResult) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Cycles   uint64
		Stats    interface{}
		ErrorPct float64
	}{r.Cycles, r.Stats, r.ErrorPct})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunnerDeterminismParallel is the determinism regression test: the
// same grid run twice at 8 workers — and once serially — must produce
// byte-identical Cycles, Stats, and ErrorPct for every cell. This guards
// the "simulation is a pure function of its inputs" contract in
// internal/sim/sim.go; a violation here means hidden shared state between
// concurrently executing sim.Engine instances.
func TestRunnerDeterminismParallel(t *testing.T) {
	opt := Options{Scale: 1, Threads: 8}
	jobs := suiteJobs(workloads.Suite(), opt)
	first := NewRunner(8).Run(jobs)
	second := NewRunner(8).Run(jobs)
	serial := NewRunner(1).Run(jobs)
	if err := firstErr(first); err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if second[i].Err != nil || serial[i].Err != nil {
			t.Fatalf("%s: reruns errored: %v / %v", jobs[i].Label, second[i].Err, serial[i].Err)
		}
		a := cellFingerprint(t, first[i].Result)
		if b := cellFingerprint(t, second[i].Result); !bytes.Equal(a, b) {
			t.Errorf("%s: two 8-worker runs diverged:\n  %s\n  %s", jobs[i].Label, a, b)
		}
		if b := cellFingerprint(t, serial[i].Result); !bytes.Equal(a, b) {
			t.Errorf("%s: parallel and serial runs diverged:\n  %s\n  %s", jobs[i].Label, a, b)
		}
	}
}

// TestRunnerWarmCacheZeroSims asserts the headline cache property: a
// second Runner pointed at a warm cache completes the same grid with zero
// simulations executed, returning byte-identical results.
func TestRunnerWarmCacheZeroSims(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Scale: 1, Threads: 4}
	jobs := suiteJobs(workloads.Suite()[:2], opt)

	cold, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := &Runner{Jobs: 8, Cache: cold}
	first := r1.Run(jobs)
	if err := firstErr(first); err != nil {
		t.Fatal(err)
	}
	if got, want := r1.Simulated(), uint64(len(jobs)); got != want {
		t.Fatalf("cold run simulated %d cells, want %d", got, want)
	}
	if r1.CacheHits() != 0 {
		t.Fatalf("cold run reported %d cache hits", r1.CacheHits())
	}

	warm, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := &Runner{Jobs: 8, Cache: warm}
	second := r2.Run(jobs)
	if err := firstErr(second); err != nil {
		t.Fatal(err)
	}
	if r2.Simulated() != 0 {
		t.Errorf("warm run simulated %d cells, want 0", r2.Simulated())
	}
	if got, want := r2.CacheHits(), uint64(len(jobs)); got != want {
		t.Errorf("warm run had %d cache hits, want %d", got, want)
	}
	for i := range jobs {
		if !second[i].Cached {
			t.Errorf("%s: warm cell not marked cached", jobs[i].Label)
		}
		a, b := cellFingerprint(t, first[i].Result), cellFingerprint(t, second[i].Result)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: cached result differs from simulated:\n  %s\n  %s", jobs[i].Label, a, b)
		}
	}
	if s := warm.Stats(); s.Hits != uint64(len(jobs)) || s.Misses != 0 {
		t.Errorf("warm cache stats %+v, want %d hits / 0 misses", s, len(jobs))
	}
}

// stubJobs builds n distinct synthetic jobs for hook-based tests.
func stubJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Label: fmt.Sprintf("stub-%d", i),
			Spec:  Spec{App: "stub", Scale: i + 1, Threads: 1},
		}
	}
	return jobs
}

// TestRunnerWorkersFollowGOMAXPROCS: the default pool is one simulation per
// schedulable P, not per physical core — under GOMAXPROCS=1 (or a CPU
// quota) a sweep must not start NumCPU cells on one P.
func TestRunnerWorkersFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := NewRunner(0).workers(); got != 1 {
		t.Errorf("workers() = %d under GOMAXPROCS=1, want 1", got)
	}
	if got := NewRunner(3).workers(); got != 3 {
		t.Errorf("workers() = %d with Jobs=3, want 3", got)
	}
}

// TestRunnerPanicRecovery: a panicking cell must surface as that cell's
// error without killing the sweep or poisoning its neighbours.
func TestRunnerPanicRecovery(t *testing.T) {
	r := NewRunner(4)
	r.execute = func(s Spec) (RunResult, error) {
		if s.Scale == 3 {
			panic("injected crash")
		}
		return RunResult{App: s.App, Cycles: uint64(s.Scale)}, nil
	}
	cells := r.Run(stubJobs(6))
	for i, c := range cells {
		if i == 2 {
			if c.Err == nil || !strings.Contains(c.Err.Error(), "panicked") {
				t.Fatalf("crashing cell error = %v, want a panic report", c.Err)
			}
			continue
		}
		if c.Err != nil {
			t.Errorf("healthy cell %d errored: %v", i, c.Err)
		}
	}
	if r.Failures() != 1 {
		t.Errorf("Failures() = %d, want 1", r.Failures())
	}
}

// TestRunnerGridOrder: results come back in grid order even when later
// cells finish first.
func TestRunnerGridOrder(t *testing.T) {
	r := NewRunner(8)
	r.execute = func(s Spec) (RunResult, error) {
		if s.Scale%2 == 1 {
			time.Sleep(3 * time.Millisecond) // odd cells finish last
		}
		return RunResult{Cycles: uint64(s.Scale)}, nil
	}
	cells := r.Run(stubJobs(16))
	for i, c := range cells {
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		if got, want := c.Result.Cycles, uint64(i+1); got != want {
			t.Fatalf("cell %d holds result %d — grid order violated", i, got)
		}
	}
}

// TestRunnerMemo: one process never simulates the same Spec twice, even
// without a disk cache.
func TestRunnerMemo(t *testing.T) {
	var executions atomic.Uint64
	r := NewRunner(4)
	r.execute = func(s Spec) (RunResult, error) {
		executions.Add(1)
		return RunResult{Cycles: 7}, nil
	}
	spec := Spec{App: "stub", Scale: 1, Threads: 1}
	if _, err := r.RunSpec(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunSpec(spec); err != nil {
		t.Fatal(err)
	}
	cells := r.Run([]Job{{Label: "again", Spec: spec}})
	if err := firstErr(cells); err != nil {
		t.Fatal(err)
	}
	if got := executions.Load(); got != 1 {
		t.Errorf("spec executed %d times, want 1 (memo broken)", got)
	}
	if got := r.CacheHits(); got != 2 {
		t.Errorf("CacheHits() = %d, want 2", got)
	}
}

// TestRunnerSingleflight: identical Specs submitted concurrently must
// resolve with exactly one simulation — the duplicates wait for the
// in-flight leader instead of racing past the not-yet-populated memo.
func TestRunnerSingleflight(t *testing.T) {
	var executions atomic.Uint64
	r := NewRunner(8)
	r.execute = func(s Spec) (RunResult, error) {
		executions.Add(1)
		time.Sleep(20 * time.Millisecond) // hold the grid's workers in the window
		return RunResult{Cycles: 31}, nil
	}
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = Job{Label: "dup", Spec: Spec{App: "stub", Scale: 1, Threads: 1}}
	}
	cells := r.Run(jobs)
	if err := firstErr(cells); err != nil {
		t.Fatal(err)
	}
	if got := executions.Load(); got != 1 {
		t.Errorf("identical specs executed %d times, want 1", got)
	}
	if got := r.Simulated(); got != 1 {
		t.Errorf("Simulated() = %d, want 1", got)
	}
	if got := r.CacheHits(); got != uint64(len(jobs)-1) {
		t.Errorf("CacheHits() = %d, want %d", got, len(jobs)-1)
	}
	uncached := 0
	for i, c := range cells {
		if c.Result.Cycles != 31 {
			t.Fatalf("cell %d result %d, want 31", i, c.Result.Cycles)
		}
		if !c.Cached {
			uncached++
		}
	}
	if uncached != 1 {
		t.Errorf("%d uncached cells, want exactly 1 (the leader)", uncached)
	}
}

// TestRunnerSingleflightSharesErrors: concurrent duplicates of a failing
// cell all see the leader's error, but the failure is not memoized — a
// later retry simulates afresh.
func TestRunnerSingleflightSharesErrors(t *testing.T) {
	var executions atomic.Uint64
	// One worker per job: every duplicate is in flight while the leader
	// sleeps, so none arrives after the (unmemoized) failure and retries.
	r := NewRunner(8)
	r.execute = func(s Spec) (RunResult, error) {
		executions.Add(1)
		time.Sleep(100 * time.Millisecond)
		return RunResult{}, fmt.Errorf("injected")
	}
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Label: "dup", Spec: Spec{App: "stub", Scale: 1, Threads: 1}}
	}
	cells := r.Run(jobs)
	for i, c := range cells {
		if c.Err == nil {
			t.Fatalf("cell %d missing the shared error", i)
		}
	}
	if got := executions.Load(); got != 1 {
		t.Errorf("failing spec executed %d times within one window, want 1", got)
	}
	if got := r.Failures(); got != uint64(len(jobs)) {
		t.Errorf("Failures() = %d, want %d (one per errored cell)", got, len(jobs))
	}
	if r.Simulated() != 0 {
		t.Errorf("Simulated() = %d, want 0 — failed cells are not simulations", r.Simulated())
	}
	// The error was not memoized: a fresh call retries.
	if _, err := r.RunSpec(jobs[0].Spec); err == nil {
		t.Fatal("retry unexpectedly succeeded")
	}
	if got := executions.Load(); got != 2 {
		t.Errorf("retry after shared failure executed %d times total, want 2", got)
	}
}

// TestRunnerFailedCellsNotCountedSimulated: the epilogue's "N simulated"
// must count completed simulations only; errored and panicked cells land
// in Failures.
func TestRunnerFailedCellsNotCountedSimulated(t *testing.T) {
	r := NewRunner(4)
	r.execute = func(s Spec) (RunResult, error) {
		switch s.Scale % 3 {
		case 0:
			return RunResult{}, fmt.Errorf("boom")
		case 1:
			panic("kaboom")
		}
		return RunResult{Cycles: 1}, nil
	}
	r.Run(stubJobs(9)) // scales 1..9: three each of panic/ok/error
	if got := r.Simulated(); got != 3 {
		t.Errorf("Simulated() = %d, want 3", got)
	}
	if got := r.Failures(); got != 6 {
		t.Errorf("Failures() = %d, want 6", got)
	}
}

// TestRunnerProgressLine: the ticker reaches 100% and terminates the line.
func TestRunnerProgressLine(t *testing.T) {
	var buf bytes.Buffer
	r := &Runner{Jobs: 2, Progress: &buf}
	r.execute = func(s Spec) (RunResult, error) { return RunResult{}, nil }
	r.Run(stubJobs(3))
	out := buf.String()
	if !strings.Contains(out, "3/3 (100%)") {
		t.Errorf("progress output never reached 100%%: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Errorf("progress output does not end the line: %q", out)
	}
}

// TestBuildReportReusesCells guards the gwsweep -json fix: building the
// report twice on one Runner must not simulate anything the second time,
// and both reports must agree on every data series.
func TestBuildReportReusesCells(t *testing.T) {
	r := NewRunner(8)
	opt := Options{Scale: 1, Threads: 4}
	rep1, err := r.BuildReport(opt)
	if err != nil {
		t.Fatal(err)
	}
	simAfterFirst := r.Simulated()
	if simAfterFirst == 0 {
		t.Fatal("first report simulated nothing")
	}
	rep2, err := r.BuildReport(opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Simulated() != simAfterFirst {
		t.Errorf("second report simulated %d extra cells, want 0", r.Simulated()-simAfterFirst)
	}
	if rep2.Timing == nil || rep2.Timing.Simulated != 0 {
		t.Errorf("second report timing %+v, want 0 simulated", rep2.Timing)
	}
	// The data series must be identical; only Timing may differ.
	rep1.Timing, rep2.Timing = nil, nil
	var b1, b2 bytes.Buffer
	if err := rep1.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := rep2.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("reports built from fresh and memoized cells differ")
	}
}

// TestCacheCorruptEntryResimulated: a truncated/garbage cache file must be
// treated as a miss, dropped, and replaced by a fresh simulation.
func TestCacheCorruptEntryResimulated(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var executions atomic.Uint64
	r := &Runner{Jobs: 2, Cache: c}
	r.execute = func(s Spec) (RunResult, error) {
		executions.Add(1)
		return RunResult{Cycles: 42}, nil
	}
	spec := Spec{App: "stub", Scale: 1, Threads: 1}
	if _, err := r.RunSpec(spec); err != nil {
		t.Fatal(err)
	}
	// Corrupt the entry on disk, then resolve through a fresh Runner.
	if err := os.WriteFile(c.path(spec.Key()), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := &Runner{Jobs: 2, Cache: c2}
	r2.execute = r.execute
	res, err := r2.RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 42 || r2.Simulated() != 1 {
		t.Errorf("corrupt entry not resimulated: cycles=%d simulated=%d", res.Cycles, r2.Simulated())
	}
}

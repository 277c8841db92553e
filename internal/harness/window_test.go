package harness

import (
	"testing"
)

// TestWindowStatsFlow pins the observability plumbing from the simulator
// to the harness: a fresh (uncached) run carries live window counters in
// RunResult.Window, the shard count selects the scheduler, and the
// runner-level summary aggregates across cells. The counters are
// host-dependent by design, so nothing here asserts magnitudes — only
// liveness and mode selection. The two shard modes share one cache key, so
// each gets its own Runner (one Runner would memo-hit the second) and the
// summary is asserted on their sum.
func TestWindowStatsFlow(t *testing.T) {
	r, rs := NewRunner(1), NewRunner(1)

	opt := fastOptions()
	res, err := r.RunApp("bad_dot_product", opt, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Window.FastPath {
		t.Error("default (unsharded) run did not take the fast path")
	}
	if res.Window.Windows == 0 || res.Window.Events == 0 {
		t.Errorf("window counters dead on a fresh run: %+v", res.Window)
	}

	opt.Shards = 4
	sharded, err := rs.RunApp("bad_dot_product", opt, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Window.FastPath {
		t.Error("shards=4 run reports FastPath")
	}
	// The schedule is shard-invariant: same windows, merges, and events.
	if sharded.Window.Windows != res.Window.Windows || sharded.Window.Merges != res.Window.Merges ||
		sharded.Window.Events != res.Window.Events {
		t.Errorf("schedule counters differ across shard modes:\n fast    %+v\n sharded %+v",
			res.Window, sharded.Window)
	}

	fast, win := r.WindowSummary(), rs.WindowSummary()
	if got := fast.Cells + win.Cells; got != 2 {
		t.Fatalf("WindowSummary.Cells sum to %d, want 2", got)
	}
	if fast.FastCells != 1 || win.FastCells != 0 {
		t.Errorf("WindowSummary.FastCells = %d (unsharded) + %d (shards=4), want 1 + 0", fast.FastCells, win.FastCells)
	}
	if want := res.Window.Windows + sharded.Window.Windows; fast.Windows+win.Windows != want {
		t.Errorf("WindowSummary.Windows sum to %d, want %d", fast.Windows+win.Windows, want)
	}
	if win.Events == 0 || win.MaxWindow == 0 {
		t.Errorf("summary counters dead: %+v", win)
	}
	if win.EventsPerWindow() <= 0 {
		t.Errorf("EventsPerWindow = %v, want > 0", win.EventsPerWindow())
	}

	// A memoized re-run must not inflate the aggregate: the cache hit
	// reports a zero Window (no simulation happened), which is accurate —
	// and the memo is keyed shard-free, so the other mode's Spec hits too.
	for _, run := range []*Runner{r, rs} {
		before := run.WindowSummary()
		if _, err := run.RunApp("bad_dot_product", opt, 4, false); err != nil {
			t.Fatal(err)
		}
		if again := run.WindowSummary(); again != before {
			t.Errorf("cache hit changed the summary:\n before %+v\n after  %+v", before, again)
		}
	}
}

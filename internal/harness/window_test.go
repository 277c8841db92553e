package harness

import (
	"testing"
)

// TestWindowStatsFlow pins the observability plumbing from the simulator
// to the harness: a fresh (uncached) run carries live window counters in
// RunResult.Window and the runner-level summary aggregates them. Nothing
// here asserts magnitudes — only liveness.
func TestWindowStatsFlow(t *testing.T) {
	r := NewRunner(1)

	opt := fastOptions()
	res, err := r.RunApp("bad_dot_product", opt, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Window.Windows == 0 || res.Window.Events == 0 {
		t.Errorf("window counters dead on a fresh run: %+v", res.Window)
	}

	ws := r.WindowSummary()
	if ws.Cells != 1 || ws.FastCells != 1 {
		t.Fatalf("WindowSummary.Cells/FastCells = %d/%d, want 1/1", ws.Cells, ws.FastCells)
	}
	if ws.Windows != res.Window.Windows {
		t.Errorf("WindowSummary.Windows = %d, want %d", ws.Windows, res.Window.Windows)
	}
	if ws.Events == 0 || ws.MaxWindow == 0 {
		t.Errorf("summary counters dead: %+v", ws)
	}
	if ws.EventsPerWindow() <= 0 {
		t.Errorf("EventsPerWindow = %v, want > 0", ws.EventsPerWindow())
	}

	// A memoized re-run must not inflate the aggregate: the cache hit
	// reports a zero Window (no simulation happened), which is accurate.
	if _, err := r.RunApp("bad_dot_product", opt, 4, false); err != nil {
		t.Fatal(err)
	}
	if again := r.WindowSummary(); again != ws {
		t.Errorf("cache hit changed the summary:\n before %+v\n after  %+v", ws, again)
	}
}

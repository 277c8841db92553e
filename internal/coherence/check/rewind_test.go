package check_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ghostwriter/internal/cache"
	"ghostwriter/internal/coherence/check"
	"ghostwriter/internal/coherence/mutate"
	"ghostwriter/internal/coherence/proto"
	"ghostwriter/internal/mem"
)

// matrixProtocols are the registered tables the matrix and the benchmark's
// checker workload sweep over the whole kill grid.
var matrixProtocols = []string{"mesi", "ghostwriter", "gw-noGI"}

// switchBug is the seeded bug the table-switch differential runs between
// two sound tables. It is a directory bug, so the switch changes the L1 table
// (ghostwriter to mesi) and the directory table (in and out of the bug). Its
// dropped upgrade leaves the line busy and the upgrading core hung: a
// testbed that failed is half-run, the kind a free list must never hand out
// again.
const switchBug = "dropped-upgrade"

// atProcs runs f once at each of GOMAXPROCS 1, 2 and 4, restoring the
// setting afterwards: Explore must return the same Result whichever number
// of workers it deals its chunks to. Under -short (the race detector's run)
// it runs f at 2 only, the smallest count that starts a goroutine.
func atProcs(f func(procs int)) {
	counts := []int{1, 2, 4}
	if testing.Short() {
		counts = []int{2}
	}
	for _, procs := range counts {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(procs)
		}()
	}
}

// TestRewindDifferential pins what Explore's carried testbeds rest on: over
// the whole mutation kill grid, under every protocol the matrix mutates, a
// testbed rewound after the previous schedule is indistinguishable from a
// new one — same fingerprint, statistics, energy, final cycle and event
// count on every schedule. The switch subtests carry one testbed across
// tables, as the free list does: a ghostwriter sweep parks it, a seeded-bug
// sweep takes it back and fails schedules (each failure drops the testbed,
// which must not be parked), and a mesi sweep takes the last one parked.
func TestRewindDifferential(t *testing.T) {
	for _, name := range matrixProtocols {
		for _, g := range mutate.Grid(proto.MustLookup(name)) {
			t.Run(name+"/"+g.Name, func(t *testing.T) {
				if n := check.RewindDifferential(t, g.Cfg); n != 0 {
					t.Errorf("%d schedules failed under a registered table", n)
				}
			})
		}
	}
	failed := 0
	for _, g := range mutate.Grid(proto.MustLookup("ghostwriter")) {
		t.Run("switch/"+g.Name, func(t *testing.T) {
			bug, mesi := g.Cfg, g.Cfg
			bug.Protocol = check.SeededBug(switchBug)
			mesi.Protocol = proto.MustLookup("mesi")
			failed += check.RewindDifferential(t, g.Cfg, bug, mesi)
		})
	}
	if failed == 0 {
		t.Errorf("no schedule failed under %s: the drop-after-failure path never ran", switchBug)
	}
}

// TestExploreMatchesReference holds Explore's chunked, parallel loop to the
// sequential reference on every stage of the kill grid, under every
// protocol the matrix mutates, at 1, 2 and 4 workers: the fold of the
// fingerprints and the merge of the chunks' counters and rows happen in
// index order, so the Result is identical field for field.
func TestExploreMatchesReference(t *testing.T) {
	for _, name := range matrixProtocols {
		for _, g := range mutate.Grid(proto.MustLookup(name)) {
			want := check.ExploreFresh(g.Cfg)
			atProcs(func(procs int) {
				if got := check.Explore(g.Cfg); !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s at GOMAXPROCS=%d: Explore differs from the sequential reference:\n got %s\nwant %s",
						name, g.Name, procs, summary(got), summary(want))
				}
			})
		}
	}
}

func summary(r check.Result) string {
	return fmt.Sprintf("%d schedules, %d violations, GS=%d GI=%d fallbacks=%d fingerprint %#x",
		r.Schedules, len(r.Violations), r.GSEntries, r.GIEntries, r.Fallbacks, r.Fingerprint)
}

// TestWarmExploreAllocations guards what parking testbeds buys: once the
// free list holds a warm testbed per worker, an exploration of any grid
// stage on two workers builds none (a testbed is about a hundred objects).
// What it still allocates is its own bookkeeping — the shared record, the
// fingerprint and chunk slices, the schedule buffers — and the closure of
// the one goroutine it starts: six to seven objects measured, ten allowed.
func TestWarmExploreAllocations(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const want = 10
	for _, name := range matrixProtocols {
		for _, g := range mutate.Grid(proto.MustLookup(name)) {
			check.ParkWarm(t, g.Cfg, 2)
			const runs = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				check.Explore(g.Cfg)
			}
			runtime.ReadMemStats(&after)
			if n := float64(after.Mallocs-before.Mallocs) / runs; n > want {
				t.Errorf("%s/%s: a warm Explore allocates %.1f objects, want <= %d", name, g.Name, n, want)
			}
		}
	}
	check.ParkedAreClean(t)
}

// TestRewoundSchedulesAllocationFree guards the count the checker's speed
// rests on: on a rewound testbed a schedule sends from the testbed's message
// pool, completes through callbacks bound once per core, and fills directory
// lines through bound handlers into the buffers the last rewind handed back
// — a whole pass over any stage of the kill grid allocates nothing. Each of
// the old costs (a message, a completion closure, a fill's three closures
// and buffer, a grant closure per invalidation round) was at least one
// allocation per schedule that has the operation.
func TestRewoundSchedulesAllocationFree(t *testing.T) {
	for _, name := range matrixProtocols {
		for _, g := range mutate.Grid(proto.MustLookup(name)) {
			if n := check.RewoundAllocs(t, g.Cfg); n != 0 {
				t.Errorf("%s/%s: a pass over the stage's rewound schedules allocates %v objects, want 0", name, g.Name, n)
			}
		}
	}
}

// TestReachOfSeqMixed pins what Result.Reach means on the stage whose
// coverage counters are the easiest to misread: seq-mixed scribbles on
// Shared copies, and it counts GS entries — but at depth 3 a block is in GS
// after the last step at the earliest, so no GS row is ever looked up.
func TestReachOfSeqMixed(t *testing.T) {
	for _, g := range mutate.Grid(proto.MustLookup("ghostwriter")) {
		if g.Name != "seq-mixed" {
			continue
		}
		res := check.Explore(g.Cfg)
		if res.GSEntries == 0 {
			t.Error("seq-mixed no longer enters GS")
		}
		if !res.Reach.L1[cache.Shared][proto.EvScribble] {
			t.Error("seq-mixed does not report S/Scribble as dispatched")
		}
		if res.Reach.L1[cache.GS][proto.EvLoad] {
			t.Error("seq-mixed reports GS/Load as dispatched")
		}
		if !res.Reach.Dir[proto.DirInvalid][0] { // directory events count from GETS
			t.Error("seq-mixed does not report DI/GETS as dispatched")
		}
		return
	}
	t.Fatal("the kill grid has no seq-mixed stage")
}

// TestRewindAfterViolation covers the other half of the testbed's lifecycle:
// a failed schedule may leave events pending, a line busy or a message out
// of the pool, so a worker drops its testbed and takes another. Every seeded
// bug's exploration of every grid config — violations in order with their
// schedules, kinds and details, coverage counters, reach, fingerprint — must
// equal the exploration that builds a new testbed for every schedule in one
// loop, at 1, 2 and 4 workers, and with the violation cap at 1, 2, 8 and out
// of reach. A cap inside the space lands mid-chunk, so the merge must cut
// the chunk that reached it at exactly that schedule, however far its worker
// ran past it. (Depth 3 is too shallow to catch every bug — check_test.go's
// demonstrations do that — but most make an exploration both fail and pass,
// so the drop and the rewinds that follow it run.)
func TestRewindAfterViolation(t *testing.T) {
	mixed := 0 // explorations with failing and passing schedules
	for _, bugName := range check.SeededBugNames() {
		t.Run(bugName, func(t *testing.T) {
			bug := check.SeededBug(bugName)
			for _, g := range mutate.Grid(bug) {
				limits := []int{1, 2, 8, 1 << 30}
				for li, want := range check.ExploreFreshAtCaps(g.Cfg, limits...) {
					cfg, limit := g.Cfg, limits[li]
					cfg.MaxViolations = limit
					atProcs(func(procs int) {
						got := check.Explore(cfg)
						if reflect.DeepEqual(got, want) {
							return
						}
						t.Errorf("%s, cap %d, GOMAXPROCS=%d: Explore differs from the testbed-per-schedule reference:\n got %s\nwant %s",
							g.Name, limit, procs, summary(got), summary(want))
						for i := range got.Violations {
							if i >= len(want.Violations) || !reflect.DeepEqual(got.Violations[i], want.Violations[i]) {
								t.Errorf("%s: first differing violation, #%d: %s", g.Name, i, got.Violations[i])
								break
							}
						}
					})
					if n := len(want.Violations); limit > 8 && n > 0 && n < want.Schedules {
						mixed++
					}
				}
			}
			check.ParkedAreClean(t)
		})
	}
	if mixed < len(check.SeededBugNames()) {
		t.Errorf("only %d explorations both failed and passed schedules: the drop-then-rewind path barely ran", mixed)
	}
}

// TestExplorePanicSurfaces: a panic outside a schedule's run — here building
// or re-pointing a testbed for a config with no protocol — reaches
// Explore's caller with its value intact, and only after every worker has
// stopped: no goroutine outlives the call.
func TestExplorePanicSurfaces(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("Explore of a config with no protocol returned")
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, "nil") {
				t.Errorf("Explore panicked with %q, not the nil-protocol panic", msg)
			}
		}()
		check.Explore(check.Config{Cores: 2, Addrs: []mem.Addr{0x000}, Depth: 3, DDist: 8})
	}()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the panic, %d before Explore", n, before)
	}
}

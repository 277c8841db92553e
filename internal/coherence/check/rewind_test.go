package check_test

import (
	"reflect"
	"testing"

	"ghostwriter/internal/cache"
	"ghostwriter/internal/coherence/check"
	"ghostwriter/internal/coherence/mutate"
	"ghostwriter/internal/coherence/proto"
)

// TestRewindDifferential pins what Explore's build-once testbed rests on:
// over the whole mutation kill grid, under every protocol the matrix
// mutates, a testbed rewound after the previous schedule is
// indistinguishable from a new one — same fingerprint, statistics, energy,
// final cycle and event count on every schedule.
func TestRewindDifferential(t *testing.T) {
	for _, name := range []string{"mesi", "ghostwriter", "gw-noGI"} {
		for _, g := range mutate.Grid(proto.MustLookup(name)) {
			t.Run(name+"/"+g.Name, func(t *testing.T) {
				check.RewindDifferential(t, g.Cfg)
			})
		}
	}
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
	for _, name := range []string{"mesi", "ghostwriter", "gw-noGI"} {
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

// TestRewindAfterViolation covers the other half of the testbed's
// lifecycle: a failed schedule may leave events pending, a line busy or a
// forward deferred, so Explore drops the testbed and builds a new one. With
// the violation cap out of reach, every seeded bug's exploration of every
// grid config — violations in order with their schedules, kinds and
// details, coverage counters, fingerprint — must equal the exploration that
// builds a new testbed for every schedule. (Depth 3 is too shallow to catch
// every bug — check_test.go's demonstrations do that — but most make an
// exploration both fail and pass, so the rebuild and the rewinds that
// follow it run.)
func TestRewindAfterViolation(t *testing.T) {
	mixed := 0 // explorations with failing and passing schedules
	for _, bugName := range check.SeededBugNames() {
		t.Run(bugName, func(t *testing.T) {
			bug := check.SeededBug(bugName)
			for _, g := range mutate.Grid(bug) {
				cfg := g.Cfg
				cfg.MaxViolations = 1 << 30
				got, want := check.Explore(cfg), check.ExploreFresh(cfg)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: Explore differs from the testbed-per-schedule reference:\n got %d violations, GS=%d GI=%d fallbacks=%d fingerprint %#x\nwant %d violations, GS=%d GI=%d fallbacks=%d fingerprint %#x",
						g.Name, len(got.Violations), got.GSEntries, got.GIEntries, got.Fallbacks, got.Fingerprint,
						len(want.Violations), want.GSEntries, want.GIEntries, want.Fallbacks, want.Fingerprint)
					for i := range got.Violations {
						if i >= len(want.Violations) || !reflect.DeepEqual(got.Violations[i], want.Violations[i]) {
							t.Errorf("%s: first differing violation, #%d: %s", g.Name, i, got.Violations[i])
							break
						}
					}
				}
				if n := len(got.Violations); n > 0 && n < got.Schedules {
					mixed++
				}
			}
		})
	}
	if mixed < len(check.SeededBugNames()) {
		t.Errorf("only %d explorations both failed and passed schedules: the rebuild-then-rewind path barely ran", mixed)
	}
}

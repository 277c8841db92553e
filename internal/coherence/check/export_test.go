package check

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ghostwriter/internal/coherence/proto"
)

// Helpers for the rewind tests. The exported ones serve rewind_test.go,
// which lives in package check_test because it sweeps mutate.Grid and
// mutate imports this package.

// testbedDiff names the first observable difference between two testbeds
// that ran the same schedule ("" when there is none): the architectural
// fingerprint plus everything the fingerprint leaves out on purpose —
// every statistics counter, the energy meter, the final cycle and the
// event count.
func testbedDiff(a, b *harness) string {
	switch {
	case a.fingerprint() != b.fingerprint():
		return fmt.Sprintf("fingerprint %#x vs %#x", a.fingerprint(), b.fingerprint())
	case *a.st != *b.st:
		return fmt.Sprintf("stats %+v vs %+v", *a.st, *b.st)
	case *a.meter != *b.meter:
		return fmt.Sprintf("energy %+v vs %+v", *a.meter, *b.meter)
	case a.eng.Now() != b.eng.Now():
		return fmt.Sprintf("final cycle %d vs %d", a.eng.Now(), b.eng.Now())
	case a.eng.Fired() != b.eng.Fired():
		return fmt.Sprintf("events fired %d vs %d", a.eng.Fired(), b.eng.Fired())
	}
	return ""
}

// RewindDifferential runs every schedule of each cfg in turn on a new
// testbed and on one testbed carried the way Explore's workers carry
// theirs: taken from the free list, rewound before every later schedule,
// dropped after a failed one (the next schedule takes another), and parked
// after the config's last schedule — to be taken back, under the next
// config's table, by the next config. It fails on the first schedule where
// the two sides differ (in violation, in outcome, or in the table rows
// dispatched so far), if the parked testbed does not come back, or if a
// testbed that failed a schedule is parked. It returns how many schedules
// failed.
func RewindDifferential(t *testing.T, cfgs ...Config) (failed int) {
	t.Helper()
	var parked *harness
	for _, cfg := range cfgs {
		steps := make([]Step, cfg.Depth)
		var freshReach, rewoundReach Reach
		var rewound *harness
		for idx, total := 0, cfg.schedules(); idx < total; idx++ {
			cfg.schedule(idx, steps)
			if rewound == nil {
				rewound = takeHarness(cfg, &rewoundReach)
				if parked != nil && rewound != parked {
					t.Fatalf("%s: the testbed parked after the previous config was not taken back", cfg.Protocol.Name)
				}
				parked = nil
			} else {
				rewound.reset()
			}
			fresh := newHarness(cfg, &freshReach)
			vf, vr := fresh.run(steps), rewound.run(steps)
			if !reflect.DeepEqual(vf, vr) {
				t.Fatalf("%s [%s]: violation on the new testbed: %v, on the rewound one: %v",
					cfg.Protocol.Name, formatSchedule(steps), vf, vr)
			}
			if d := testbedDiff(fresh, rewound); d != "" {
				t.Fatalf("%s [%s] (schedule %d): new vs rewound testbed: %s",
					cfg.Protocol.Name, formatSchedule(steps), idx, d)
			}
			if freshReach != rewoundReach {
				t.Fatalf("%s [%s] (schedule %d): new and rewound testbeds dispatched different rows:\n%+v\n%+v",
					cfg.Protocol.Name, formatSchedule(steps), idx, freshReach, rewoundReach)
			}
			if vr != nil {
				failed++
				rewound = nil
			}
		}
		if rewound != nil {
			rewound.park()
			parked = rewound
		}
	}
	ParkedAreClean(t)
	return failed
}

// ParkedAreClean fails if a parked testbed ran a failed schedule last, or
// was not left quiesced by its last schedule: nothing half-run is parked.
func ParkedAreClean(t *testing.T) {
	t.Helper()
	testbeds.Lock()
	defer testbeds.Unlock()
	for cores, free := range testbeds.free {
		for i, h := range free {
			if h.spoiled || h.eng.Pending() != 0 || !h.fab.Quiesced() {
				t.Errorf("parked %d-core testbed #%d is not clean: spoiled %v, %d events pending, quiesced %v",
					cores, i, h.spoiled, h.eng.Pending(), h.fab.Quiesced())
			}
		}
	}
}

// ParkWarm parks n testbeds that have each run every schedule of cfg, which
// must be violation-free: an exploration of cfg on up to n workers then
// takes only warm testbeds, whichever workers get chunks.
func ParkWarm(t *testing.T, cfg Config, n int) {
	t.Helper()
	steps := make([]Step, cfg.Depth)
	hs := make([]*harness, n)
	for i := range hs {
		hs[i] = takeHarness(cfg, &Reach{})
		for idx := 0; idx < cfg.schedules(); idx++ {
			if idx > 0 {
				hs[i].reset()
			}
			cfg.schedule(idx, steps)
			if v := hs[i].run(steps); v != nil {
				t.Fatalf("[%s]: %v", formatSchedule(steps), v)
			}
		}
	}
	for _, h := range hs {
		h.park()
	}
}

// RewoundAllocs runs every schedule of cfg, which must be violation-free,
// on one testbed rewound between schedules — a first pass so its pools and
// free lists hold what the schedules need, then a measured one — and returns
// the measured pass's heap allocations.
func RewoundAllocs(t *testing.T, cfg Config) float64 {
	t.Helper()
	steps := make([]Step, cfg.Depth)
	h := newHarness(cfg, &Reach{})
	total := cfg.schedules()
	pass := func() {
		for idx := 0; idx < total; idx++ {
			cfg.schedule(idx, steps)
			h.reset()
			if v := h.run(steps); v != nil {
				t.Fatalf("[%s]: %v", formatSchedule(steps), v)
			}
		}
	}
	return testing.AllocsPerRun(1, pass)
}

// ExploreFresh is the reference Explore is compared against: the same
// enumeration in one loop, in index order, with a new testbed for every
// schedule.
func ExploreFresh(cfg Config) Result {
	return ExploreFreshAtCaps(cfg, cfg.MaxViolations)[0]
}

// ExploreFreshAtCaps returns ExploreFresh's Result under each violation cap
// in limits (0 = 8), from one loop: the Result under a cap is the loop's
// state right after the schedule that reached it, or at the end if none
// did.
func ExploreFreshAtCaps(cfg Config, limits ...int) []Result {
	out := make([]Result, len(limits))
	open := len(limits)
	limits = slices.Clone(limits)
	for i, limit := range limits {
		if limit == 0 {
			limits[i] = 8
		}
	}
	res := Result{Schedules: cfg.schedules(), Fingerprint: fnvOffset}
	done := make([]bool, len(limits))
	snapshot := func(i int) {
		out[i] = res
		out[i].Violations = slices.Clone(res.Violations)
		done[i] = true
		open--
	}
	steps := make([]Step, cfg.Depth)
	for idx := 0; idx < res.Schedules && open > 0; idx++ {
		cfg.schedule(idx, steps)
		h := newHarness(cfg, &res.Reach)
		v := h.run(steps)
		res.GSEntries += h.st.GSEntries
		res.GIEntries += h.st.GIEntries
		res.Fallbacks += h.st.ScribbleFallbacks
		if v == nil {
			res.Fingerprint = mix(res.Fingerprint, h.fingerprint())
			continue
		}
		v.Schedule = append([]Step(nil), steps...)
		res.Violations = append(res.Violations, *v)
		for i, limit := range limits {
			if !done[i] && len(res.Violations) >= limit {
				snapshot(i)
			}
		}
	}
	for i := range limits {
		if !done[i] {
			snapshot(i)
		}
	}
	return out
}

// SeededBugNames lists check_test.go's seeded table bugs.
func SeededBugNames() []string {
	var names []string
	for _, b := range seededBugs {
		names = append(names, b.name)
	}
	return names
}

// SeededBug returns a ghostwriter clone with the named bug planted.
func SeededBug(name string) *proto.Protocol { return seededBug(name) }

package check

import (
	"fmt"
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

// RewindDifferential runs every schedule of cfg, which must be
// violation-free, on a new testbed and on one testbed rewound between
// schedules, and fails on the first schedule where the two differ — in
// outcome, or in the table rows the two sides have dispatched so far.
func RewindDifferential(t *testing.T, cfg Config) {
	t.Helper()
	steps := make([]Step, cfg.Depth)
	var freshReach, rewoundReach Reach
	rewound := newHarness(cfg, &rewoundReach)
	for idx, total := 0, cfg.schedules(); idx < total; idx++ {
		cfg.schedule(idx, steps)
		if idx > 0 {
			rewound.reset()
		}
		fresh := newHarness(cfg, &freshReach)
		if vf, vr := fresh.run(steps), rewound.run(steps); vf != nil || vr != nil {
			t.Fatalf("[%s]: violation on the new testbed: %v, on the rewound one: %v",
				formatSchedule(steps), vf, vr)
		}
		if d := testbedDiff(fresh, rewound); d != "" {
			t.Fatalf("[%s] (schedule %d): new vs rewound testbed: %s", formatSchedule(steps), idx, d)
		}
		if freshReach != rewoundReach {
			t.Fatalf("[%s] (schedule %d): new and rewound testbeds dispatched different rows:\n%+v\n%+v",
				formatSchedule(steps), idx, freshReach, rewoundReach)
		}
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
// enumeration with a new testbed for every schedule.
func ExploreFresh(cfg Config) Result {
	if cfg.MaxViolations == 0 {
		cfg.MaxViolations = 8
	}
	res := Result{Schedules: cfg.schedules(), Fingerprint: fnvOffset}
	steps := make([]Step, cfg.Depth)
	for idx := 0; idx < res.Schedules; idx++ {
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
		if len(res.Violations) >= cfg.MaxViolations {
			break
		}
	}
	return res
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

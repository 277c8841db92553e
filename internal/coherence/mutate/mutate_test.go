package mutate

import (
	"slices"
	"strings"
	"testing"

	"ghostwriter/internal/cache"
	"ghostwriter/internal/coherence/check"
	"ghostwriter/internal/coherence/proto"
)

// TestEnumerateDeterministic: the factory must be a pure function of the
// table — the runner's outcome indexing, the fuzzer's corpus, and the CI
// report all assume a stable order.
func TestEnumerateDeterministic(t *testing.T) {
	p := proto.MustLookup("ghostwriter")
	a, b := Enumerate(p), Enumerate(p)
	if len(a) != len(b) {
		t.Fatalf("enumeration size changed between calls: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("enumeration order changed at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) < 200 {
		t.Fatalf("suspiciously small mutation space for ghostwriter: %d", len(a))
	}
}

// TestApplyIsolated: applying a mutation must leave the registered protocol
// untouched (Clone depth) and produce a structurally valid mutant.
func TestApplyIsolated(t *testing.T) {
	for _, name := range proto.Names() {
		p := proto.MustLookup(name)
		before := Enumerate(p)
		for _, m := range before {
			mut, ok := m.Apply(p)
			if !ok {
				t.Fatalf("%s: enumerated mutation not applicable: %+v (%s)", name, m, m.Describe(p))
			}
			if err := Validate(mut); err != nil {
				t.Fatalf("%s: mutant %s structurally invalid: %v", name, m.Describe(p), err)
			}
		}
		after := Enumerate(p)
		if len(after) != len(before) {
			t.Fatalf("%s: applying mutants changed the registered table (%d -> %d mutations)",
				name, len(before), len(after))
		}
	}
}

// TestMutantsDiffer: every enumerated mutant must actually change the
// table — a factory bug that clones without perturbing would classify as
// equivalent and silently hollow out the whole matrix. The rendered tables
// are a convenient canonical form to compare.
func TestMutantsDiffer(t *testing.T) {
	for _, name := range proto.Names() {
		p := proto.MustLookup(name)
		golden := proto.Markdown(p)
		for _, m := range Enumerate(p) {
			mut, ok := m.Apply(p)
			if !ok {
				t.Fatalf("%s: enumerated mutation not applicable: %s", name, m.Describe(p))
			}
			if proto.Markdown(mut) == golden {
				t.Errorf("%s: mutant %s renders identically to the original table", name, m.Describe(p))
			}
		}
	}
}

// TestApplyRejectsInvalid: out-of-range coordinates must be refused, not
// trusted — the fuzzer routes arbitrary bytes through Apply.
func TestApplyRejectsInvalid(t *testing.T) {
	p := proto.MustLookup("ghostwriter")
	bad := []Mutation{
		{Op: OpDropRow, S: -1},
		{Op: OpDropRow, S: proto.NumL1States, E: 0},
		{Op: OpSwapNext, S: int(cache.Invalid), E: int(proto.EvLoad), R: 99},
		{Op: OpSwapNext, S: int(proto.Absent), E: int(proto.EvInv), R: 0, Arg: int(cache.Modified)},
		{Op: OpDelAction, S: int(cache.Invalid), E: int(proto.EvLoad), R: 0, I: 99},
		{Op: OpCorruptSharer, S: int(cache.Invalid), E: int(proto.EvLoad), R: 0}, // L1 side
		{Op: OpDropRow, Dir: true, S: 7, E: 0},
		{Op: OpDelGuard, Dir: true, S: 0, E: 0, R: 0, I: 42},
	}
	for _, m := range bad {
		if _, ok := m.Apply(p); ok {
			t.Errorf("Apply accepted invalid mutation %+v", m)
		}
	}
}

// TestDecodeAppliesCleanly: every decodable chunk either applies or is
// rejected without panicking, and applied mutants stay structurally valid.
func TestDecodeAppliesCleanly(t *testing.T) {
	p := proto.MustLookup("ghostwriter")
	data := make([]byte, 0, 7*64)
	for i := 0; i < 7*64; i++ {
		data = append(data, byte(i*37+11))
	}
	applied := 0
	for _, m := range Decode(data) {
		mut, ok := m.Apply(p)
		if !ok {
			continue
		}
		applied++
		if err := Validate(mut); err != nil {
			t.Fatalf("decoded mutant %s invalid: %v", m.Describe(p), err)
		}
	}
	if applied == 0 {
		t.Fatal("no decoded mutation applied; the byte interpreter is miscalibrated")
	}
}

// TestMutationMatrix is the tentpole gate: every non-equivalent mutant of
// every registered protocol must be killed by the checker grid. A survivor
// is a checker gap — fix the checker (or, if the mutant is genuinely
// sound-but-different, the classification), never this test.
func TestMutationMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("mutation matrix is about ten seconds of CPU, several times that under -race; run without -short (CI runs it via gwcheck -mutate)")
	}
	for _, name := range proto.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(proto.MustLookup(name), Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("\n%s", rep.Matrix())
			killed, _, survived, skipped := rep.Counts()
			if survived > 0 {
				for _, o := range rep.Survivors() {
					t.Errorf("survivor: %s", o.Desc)
				}
			}
			if skipped > 0 {
				t.Errorf("%d mutants skipped without a budget", skipped)
			}
			if killed == 0 {
				t.Error("no mutant killed; the grid is not running")
			}
		})
	}
}

// TestPruneMatchesFullGrid holds classify's pruning to the grid it prunes:
// a sample of every protocol's mutants — every 8th in enumeration order,
// plus every mutant of a row the grid dispatches (S/Scribble) and of one it
// never does (GS/Load) — must classify the same, killer included, when every
// stage is told it reaches every row and so runs in full.
func TestPruneMatchesFullGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a few hundred mutants through the unpruned grid")
	}
	var everywhere check.Reach
	for s := range everywhere.L1 {
		for e := range everywhere.L1[s] {
			everywhere.L1[s][e] = true
		}
	}
	for s := range everywhere.Dir {
		for e := range everywhere.Dir[s] {
			everywhere.Dir[s][e] = true
		}
	}
	inRow := func(m Mutation, s cache.State, ev proto.Event) bool {
		return !m.Dir && m.S == int(s) && m.E == int(ev)
	}
	for _, name := range proto.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := proto.MustLookup(name)
			grid := Grid(p)
			golden, err := goldenRuns(p, grid)
			if err != nil {
				t.Fatal(err)
			}
			full := slices.Clone(golden)
			for i := range full {
				full[i].Reach = everywhere
			}
			sampled, skippedStages := 0, 0
			for i, m := range Enumerate(p) {
				if i%8 != 0 && !inRow(m, cache.Shared, proto.EvScribble) && !inRow(m, cache.GS, proto.EvLoad) {
					continue
				}
				sampled++
				for gi := range golden {
					if !m.reached(&golden[gi].Reach) {
						skippedStages++
					}
				}
				class, by := classify(p, m, grid, golden)
				wantClass, wantBy := classify(p, m, grid, full)
				if class != wantClass || by != wantBy {
					t.Errorf("%s: pruned grid says %s %q, full grid %s %q", m.Describe(p), class, by, wantClass, wantBy)
				}
			}
			if skippedStages == 0 {
				t.Error("no sampled mutant had a stage pruned: the comparison is vacuous")
			}
			t.Logf("%d mutants, %d of %d stage sweeps pruned", sampled, skippedStages, sampled*len(grid))
		})
	}
}

// neverDispatched pins, per protocol, the table rows no sweep of the kill
// grid dispatches — every mutant there classifies as equivalent unseen. The
// grid is depth 3 with an unbounded L2: a block enters GS or GI on a
// schedule's last step at the earliest, so the resident rows of the paper's
// own two states are all here, next to the capacity recalls and the races
// that need a fourth step or a second block in flight.
var neverDispatched = map[string]string{
	"mesi": "E/RecallOwn M/RecallOwn IS_D/Inv IM_D/FwdGETS IM_D/FwdGETX" +
		" SM_A/Inv SM_A/FwdGETS SM_A/FwdGETX SM_A/DataM SM_A/DataC2C" +
		" EV_A/Inv EV_A/RecallOwn EV_A/FwdGETS EV_A/FwdGETX" +
		" DI/UPGRADE DI/PUTS DI/PUTE DI/PUTM DS/PUTS DS/PUTE DS/PUTM DM/UPGRADE DM/PUTS",
	"gw-noGI": "E/RecallOwn M/RecallOwn GS/Load GS/Store GS/Scribble GS/Inv" +
		" IS_D/Inv IM_D/FwdGETS IM_D/FwdGETX" +
		" SM_A/Inv SM_A/FwdGETS SM_A/FwdGETX SM_A/DataM SM_A/DataC2C" +
		" EV_A/Inv EV_A/RecallOwn EV_A/FwdGETS EV_A/FwdGETX" +
		" DI/UPGRADE DI/PUTS DI/PUTE DI/PUTM DS/PUTS DS/PUTE DS/PUTM DM/UPGRADE DM/PUTS",
	"ghostwriter": "E/RecallOwn M/RecallOwn GS/Load GS/Store GS/Scribble GS/Inv" +
		" GI/Load GI/Store GI/Scribble IS_D/Inv IM_D/FwdGETS IM_D/FwdGETX" +
		" SM_A/Inv SM_A/FwdGETS SM_A/FwdGETX SM_A/DataM SM_A/DataC2C" +
		" EV_A/Inv EV_A/RecallOwn EV_A/FwdGETS EV_A/FwdGETX" +
		" DI/UPGRADE DI/PUTS DI/PUTE DI/PUTM DS/PUTS DS/PUTE DS/PUTM DM/UPGRADE DM/PUTS",
}

// TestKillGridRowCoverage fails when the grid stops dispatching a row it
// used to (coverage shrank silently) and when it starts dispatching one
// (coverage grew: take the row off the list, so the gain is recorded and
// defended from then on).
func TestKillGridRowCoverage(t *testing.T) {
	for _, name := range proto.Names() {
		p := proto.MustLookup(name)
		golden, err := goldenRuns(p, Grid(p))
		if err != nil {
			t.Fatal(err)
		}
		reach := gridReach(golden)
		got, _ := reach.Unreached(p)
		want := strings.Fields(neverDispatched[name])
		for _, row := range got {
			if !slices.Contains(want, row) {
				t.Errorf("%s: the grid no longer dispatches %s", name, row)
			}
		}
		for _, row := range want {
			if !slices.Contains(got, row) {
				t.Errorf("%s: the grid now dispatches %s: drop it from neverDispatched", name, row)
			}
		}
	}
}

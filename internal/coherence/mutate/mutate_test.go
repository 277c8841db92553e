package mutate

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"ghostwriter/internal/cache"
	"ghostwriter/internal/coherence/check"
	"ghostwriter/internal/coherence/proto"
	"ghostwriter/internal/mem"
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
// a sample of a protocol's mutants — every 8th in enumeration order, plus
// every mutant of a row the grid dispatches (S/Scribble) and of one it never
// does (GS/Load) — must classify the same, killer included, when every stage
// is told it reaches every row and so runs in full.
//
// The pruning argument is per row, not per table: a sweep that never
// dispatches a row runs identically under any rewrite of it, whatever the
// other rows say. So the sample is drawn from the three base tables and from
// gw-escalate, whose edited row (GI/Scribble) no stage dispatches, and each
// other variant — its base with one row edited — is sampled only in the rows
// it does not share with one of those four; its shared rows are checked
// there.
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
	sampledInFull := []string{"mesi", "ghostwriter", "gw-noGI", "gw-escalate"}
	// row returns the rules of the row m rewrites, in p.
	row := func(p *proto.Protocol, m Mutation) any {
		if m.Dir {
			return p.Dir[m.S][m.E]
		}
		return p.L1[m.S][m.E]
	}
	checkedElsewhere := func(p *proto.Protocol, m Mutation) bool {
		return slices.ContainsFunc(sampledInFull, func(name string) bool {
			return reflect.DeepEqual(row(p, m), row(proto.MustLookup(name), m))
		})
	}
	for _, name := range proto.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := proto.MustLookup(name)
			inFull := slices.Contains(sampledInFull, name)
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
				if inFull && i%8 != 0 && !inRow(m, cache.Shared, proto.EvScribble) && !inRow(m, cache.GS, proto.EvLoad) {
					continue
				}
				if !inFull && checkedElsewhere(p, m) {
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
			if sampled == 0 {
				t.Error("no mutant sampled: the variant shares every row with a table sampled in full")
			}
			if inFull && skippedStages == 0 {
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
// that need a fourth step or a second block in flight. Under gw-msi a cold
// load is granted S, so the E rows go unused while GS residency starts a
// step earlier and its rows are reached.
//
// Row coverage overstates two variants: their extra rule sits in a row the
// grid dispatches but never fires there, so its mutants are equivalent
// unseen too. mesi-mig's migratory grant (DM/GETS r0) needs the detector to
// see two read-then-write generations, which depth 3 cannot build; the stale
// loads' hit rule (I/Load r0) needs a load inside an approximate region, and
// checker loads carry d-distance -1.
var neverDispatched = map[string]string{
	"mesi":        neverMESI,
	"mesi-mig":    neverMESI,
	"mesi-stale":  neverMESI,
	"ghostwriter": neverGhostwriter,
	"gw-stale":    neverGhostwriter,
	"gw-resident": neverGhostwriter,
	"gw-escalate": neverGhostwriter,
	"gw-noGI": "E/RecallOwn M/RecallOwn GS/Load GS/Store GS/Scribble GS/Inv" +
		" IS_D/Inv IM_D/FwdGETS IM_D/FwdGETX" +
		" SM_A/Inv SM_A/FwdGETS SM_A/FwdGETX SM_A/DataM SM_A/DataC2C" +
		" EV_A/Inv EV_A/RecallOwn EV_A/FwdGETS EV_A/FwdGETX" +
		" DI/UPGRADE DI/PUTS DI/PUTE DI/PUTM DS/PUTS DS/PUTE DS/PUTM DM/UPGRADE DM/PUTS",
	"gw-msi": "E/Load E/Store E/Scribble E/RecallOwn E/FwdGETS E/FwdGETX M/RecallOwn" +
		" GI/Load GI/Store GI/Scribble IS_D/Inv IS_D/DataE IM_D/FwdGETS IM_D/FwdGETX" +
		" SM_A/FwdGETS SM_A/FwdGETX SM_A/DataM" +
		" EV_A/Inv EV_A/RecallOwn EV_A/FwdGETS EV_A/FwdGETX" +
		" DI/UPGRADE DI/PUTS DI/PUTE DI/PUTM DS/PUTE DS/PUTM DM/PUTS DM/PUTE",
}

const (
	neverMESI = "E/RecallOwn M/RecallOwn IS_D/Inv IM_D/FwdGETS IM_D/FwdGETX" +
		" SM_A/Inv SM_A/FwdGETS SM_A/FwdGETX SM_A/DataM SM_A/DataC2C" +
		" EV_A/Inv EV_A/RecallOwn EV_A/FwdGETS EV_A/FwdGETX" +
		" DI/UPGRADE DI/PUTS DI/PUTE DI/PUTM DS/PUTS DS/PUTE DS/PUTM DM/UPGRADE DM/PUTS"
	neverGhostwriter = "E/RecallOwn M/RecallOwn GS/Load GS/Store GS/Scribble GS/Inv" +
		" GI/Load GI/Store GI/Scribble IS_D/Inv IM_D/FwdGETS IM_D/FwdGETX" +
		" SM_A/Inv SM_A/FwdGETS SM_A/FwdGETX SM_A/DataM SM_A/DataC2C" +
		" EV_A/Inv EV_A/RecallOwn EV_A/FwdGETS EV_A/FwdGETX" +
		" DI/UPGRADE DI/PUTS DI/PUTE DI/PUTM DS/PUTS DS/PUTE DS/PUTM DM/UPGRADE DM/PUTS"
)

// TestResidentIsDeclared: the ghostwriter mutant that drops GS/Scribble's
// comparator guard has exactly gw-resident's L1 rows, but not its declared
// Resident, so the checker still holds its GS copies to the d-distance bound.
// The kill grid never dispatches GS/Scribble; the depth-4 sequential sweep
// that check.TestScribblePolicies passes gw-resident through does, and
// kills the mutant. Were residency read off the rows, the mutant would pass
// too.
func TestResidentIsDeclared(t *testing.T) {
	gw, resident := proto.MustLookup("ghostwriter"), proto.MustLookup("gw-resident")
	m := Mutation{Op: OpDelGuard, S: int(cache.GS), E: int(proto.EvScribble)}
	if d := m.Describe(gw); d != "l1 GS/Scribble r0: drop guard within" {
		t.Fatalf("mutation is %q", d)
	}
	mut, ok := m.Apply(gw)
	if !ok {
		t.Fatal("mutation does not apply")
	}
	if mut.Resident || !reflect.DeepEqual(mut.L1, resident.L1) {
		t.Fatal("the mutant is not gw-resident's rows without its declaration")
	}
	res := check.Explore(check.Config{Protocol: mut, Cores: 2, Addrs: []mem.Addr{0x000}, Depth: 4,
		DDist: 8, Sequential: true, MaxViolations: 1})
	if len(res.Violations) == 0 {
		t.Fatal("the mutant passed the sweep that dispatches GS/Scribble")
	}
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
		pinned, ok := neverDispatched[name]
		if !ok {
			t.Errorf("%s: no never-dispatched list pinned", name)
		}
		want := strings.Fields(pinned)
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

package check

import (
	"strings"
	"testing"

	"ghostwriter/internal/cache"
	"ghostwriter/internal/coherence"
	"ghostwriter/internal/coherence/proto"
	"ghostwriter/internal/mem"
)

// twoBlocks maps to the 2-set test cache's two sets: no conflict misses.
var twoBlocks = []mem.Addr{0x000, 0x040}

// sameSet forces conflict evictions: three blocks, two ways, one set.
var sameSet = []mem.Addr{0x000, 0x080, 0x100}

func explore(t *testing.T, cfg Config) Result {
	t.Helper()
	res := Explore(cfg)
	for _, v := range res.Violations {
		t.Errorf("%s: %s", cfg.Protocol.Name, v)
	}
	t.Logf("%s: %d schedules, GS=%d GI=%d fallbacks=%d",
		cfg.Protocol.Name, res.Schedules, res.GSEntries, res.GIEntries, res.Fallbacks)
	return res
}

// TestRegisteredProtocols sweeps every registered table over all depth-3
// schedules of two cores on two non-conflicting blocks, in both issue
// modes, and pins the expected coverage on the sequential sweep (whose
// scribbles cannot be outrun by in-flight invalidations): ghostwriter
// enters both GS and GI, the ablation only GS, and mesi neither (its
// scribbles all escalate).
func TestRegisteredProtocols(t *testing.T) {
	for _, tc := range []struct {
		name   string
		wantGS bool
		wantGI bool
	}{
		{"mesi", false, false},
		{"ghostwriter", true, true},
		{"gw-noGI", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Protocol: proto.MustLookup(tc.name),
				Cores:    2,
				Addrs:    twoBlocks,
				Depth:    3,
				DDist:    8,
				Policy:   coherence.PolicyHybrid,
			}
			explore(t, cfg)
			cfg.Sequential = true
			res := explore(t, cfg)
			if got := res.GSEntries > 0; got != tc.wantGS {
				t.Errorf("GS entries = %d, want >0: %v", res.GSEntries, tc.wantGS)
			}
			if got := res.GIEntries > 0; got != tc.wantGI {
				t.Errorf("GI entries = %d, want >0: %v", res.GIEntries, tc.wantGI)
			}
			// Hard coverage gate: a sweep that never reaches a defined
			// approximate state checks nothing about it.
			if err := CoverageErr(cfg.Protocol, res); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestThreeCores concentrates three cores on a single block — the densest
// contention the invariants (single writer, sharer-list agreement) face.
func TestThreeCores(t *testing.T) {
	explore(t, Config{
		Protocol: proto.MustLookup("ghostwriter"),
		Cores:    3,
		Addrs:    []mem.Addr{0x000},
		Depth:    3,
		DDist:    8,
		Policy:   coherence.PolicyHybrid,
	})
}

// TestEvictionPressure maps three blocks onto one two-way set, so schedules
// force the eviction transaction (PUTS/PUTE/PUTM, EV_A, deferred installs)
// through the same invariants.
func TestEvictionPressure(t *testing.T) {
	explore(t, Config{
		Protocol: proto.MustLookup("ghostwriter"),
		Cores:    2,
		Addrs:    sameSet,
		Depth:    3,
		DDist:    8,
		Policy:   coherence.PolicyHybrid,
	})
}

// TestScribblePolicies re-runs the contention sweep under the resident and
// escalate policies, which flip which comparator guards fire during GS/GI
// residencies.
func TestScribblePolicies(t *testing.T) {
	for _, p := range []coherence.ScribblePolicy{coherence.PolicyResident, coherence.PolicyEscalate} {
		t.Run(p.String(), func(t *testing.T) {
			explore(t, Config{
				Protocol: proto.MustLookup("ghostwriter"),
				Cores:    2,
				Addrs:    []mem.Addr{0x000},
				Depth:    4,
				DDist:    8,
				Policy:   p,
			})
		})
	}
}

// TestDepth4 is the deeper smoke sweep: every depth-4 schedule of two cores
// on two blocks (160k schedules). Skipped under -short so the race-enabled
// CI job stays fast; the full run is the protocol-check CI step.
func TestDepth4(t *testing.T) {
	if testing.Short() {
		t.Skip("bounded-depth smoke only under -short")
	}
	explore(t, Config{
		Protocol: proto.MustLookup("ghostwriter"),
		Cores:    2,
		Addrs:    twoBlocks,
		Depth:    4,
		DDist:    8,
		Policy:   coherence.PolicyHybrid,
	})
}

// seededBugs are the one-rule table bugs the demonstrations below plant in
// a ghostwriter clone; each demonstration says what its bug breaks and
// which invariant catches it.
var seededBugs = []struct {
	name  string
	plant func(bug *proto.Protocol)
}{
	{"dropped-inv", func(bug *proto.Protocol) {
		bug.L1[cache.Shared][proto.EvInv] = nil
	}},
	{"dropped-upgrade", func(bug *proto.Protocol) {
		bug.Dir[proto.DirShared][proto.EvUPGRADE-proto.EvGETS] = nil
	}},
	{"wrong-completion-value", func(bug *proto.Protocol) {
		bug.L1[cache.Exclusive][proto.EvLoad][0].Actions =
			[]proto.Action{proto.ACountLoadHit, proto.AMeterRead, proto.ATouch, proto.ACompleteWrite}
	}},
	{"lost-writeback", func(bug *proto.Protocol) {
		bug.L1[cache.Exclusive][proto.EvStore][0].Next = proto.Stay
	}},
	{"stuck-deferred-forward", func(bug *proto.Protocol) {
		bug.L1[cache.Modified][proto.EvFwdGETS][0].Actions =
			[]proto.Action{proto.AServeFwd, proto.ADeferFwd}
	}},
	{"phantom-sharer", func(bug *proto.Protocol) {
		rules := bug.Dir.Rules(proto.DirShared, proto.EvPUTS)
		bug.Dir[proto.DirShared][proto.EvPUTS-proto.EvGETS] = rules[1:] // keep only the stale-ack rule
	}},
	{"dirty-exclusive", func(bug *proto.Protocol) {
		bug.L1[cache.Modified][proto.EvLoad][0].Next = cache.Exclusive
	}},
	{"uncounted-residency", func(bug *proto.Protocol) {
		bug.L1[cache.Shared][proto.EvLoad][0].Next = cache.GS
	}},
	{"unguarded-entry", func(bug *proto.Protocol) {
		bug.L1[cache.Invalid][proto.EvScribble][0].Guards = nil
	}},
	{"double-inv-ack", func(bug *proto.Protocol) {
		r := &bug.L1[cache.Shared][proto.EvInv][0]
		r.Actions = append(r.Actions[:len(r.Actions):len(r.Actions)], proto.AAckInv)
	}},
}

// seededBug returns a ghostwriter clone with the named bug planted.
func seededBug(name string) *proto.Protocol {
	for _, b := range seededBugs {
		if b.name == name {
			bug := proto.MustLookup("ghostwriter").Clone()
			b.plant(bug)
			return bug
		}
	}
	panic("no seeded bug named " + name)
}

func violationsMention(res Result, substr string) bool {
	for _, v := range res.Violations {
		if strings.Contains(v.Detail, substr) {
			return true
		}
	}
	return false
}

// TestSeededL1BugDetected demonstrates the checker catches a table bug: a
// ghostwriter clone missing the (S, Inv) transition drops the directory's
// invalidation, so the invalidating store never collects its ack — the
// checker reports the deadlock and names the dropped pair.
func TestSeededL1BugDetected(t *testing.T) {
	bug := seededBug("dropped-inv")
	res := Explore(Config{
		Protocol: bug,
		Cores:    2,
		Addrs:    []mem.Addr{0x000},
		Depth:    3,
		DDist:    8,
		Policy:   coherence.PolicyHybrid,
	})
	if len(res.Violations) == 0 {
		t.Fatal("removing the (S, Inv) transition went undetected")
	}
	if !violationsMention(res, "S/Inv") {
		t.Errorf("no violation names the dropped S/Inv pair:\n%s", res.Violations[0])
	}
}

// TestSeededDirBugDetected seeds the directory side: without the
// (DS, UPGRADE) row the upgrade request is dropped with the line busy, and
// the upgrading core hangs.
func TestSeededDirBugDetected(t *testing.T) {
	bug := seededBug("dropped-upgrade")
	res := Explore(Config{
		Protocol: bug,
		Cores:    2,
		Addrs:    []mem.Addr{0x000},
		Depth:    3,
		DDist:    8,
		Policy:   coherence.PolicyHybrid,
	})
	if len(res.Violations) == 0 {
		t.Fatal("removing the (DS, UPGRADE) row went undetected")
	}
	if !violationsMention(res, "DS/UPGRADE") {
		t.Errorf("no violation names the dropped DS/UPGRADE pair:\n%s", res.Violations[0])
	}
}

// seqCfg is the explicit-schedule config the seeded-bug demonstrations
// share: one protocol clone, sequential issue, eviction-capable address set.
func seqCfg(p *proto.Protocol, cores int) Config {
	return Config{
		Protocol:   p,
		Cores:      cores,
		Addrs:      sameSet,
		Depth:      5,
		DDist:      8,
		Policy:     coherence.PolicyHybrid,
		Sequential: true,
	}
}

// wantViolation runs one schedule and asserts it fails with the given kind
// and a detail mentioning substr.
func wantViolation(t *testing.T, cfg Config, steps []Step, kind, substr string) {
	t.Helper()
	v := RunSchedule(cfg, steps)
	if v == nil {
		t.Fatalf("schedule [%s] passed; want a %q violation mentioning %q",
			formatSchedule(steps), kind, substr)
	}
	if v.Kind != kind || !strings.Contains(v.Detail, substr) {
		t.Fatalf("schedule [%s] failed as [%s] %s; want kind %q mentioning %q",
			formatSchedule(steps), v.Kind, v.Detail, kind, substr)
	}
}

// TestSeededBugWrongCompletionValue rewires the (E, Load) hit to complete
// through the write path's value register (stale zero) instead of the
// cached word. The cache contents, the states, and the directory are all
// untouched — the pre-existing invariants only audited what is *in* the
// caches at quiescence, never what a load *returned* — so only the in-run
// load-value membership check (new invariant: data-value coherence)
// catches it.
func TestSeededBugWrongCompletionValue(t *testing.T) {
	bug := seededBug("wrong-completion-value")
	wantViolation(t, seqCfg(bug, 1),
		[]Step{
			{Core: 0, Op: Load, Addr: 0}, // miss: a0 granted Exclusive
			{Core: 0, Op: Load, Addr: 0}, // hit: completes with actVal (0)
		},
		"value", "never written")
}

// TestSeededBugLostWriteback keeps (E, Store) in Exclusive instead of moving
// to Modified: the write lands in the cache but the eviction later sends a
// dataless PUTE, silently dropping it. At quiescence every state and every
// surviving copy is consistent — the stale value in L2 is a legitimate
// member of the write log — so only the precise-sequential linearity audit
// (new invariant: the coherent word must equal the last store) catches the
// lost write, at the eviction step.
func TestSeededBugLostWriteback(t *testing.T) {
	bug := seededBug("lost-writeback")
	wantViolation(t, seqCfg(bug, 1),
		[]Step{
			{Core: 0, Op: Load, Addr: 0},  // a0 granted Exclusive
			{Core: 0, Op: Store, Addr: 0}, // mutant: writes but stays E (clean)
			{Core: 0, Op: Load, Addr: 1},  // fill the set's second way
			{Core: 0, Op: Load, Addr: 2},  // evict a0 via dataless PUTE
		},
		"value", "want last store")
}

// TestSeededBugStuckDeferredForward makes (M, FwdGETS) both serve and
// retain the forward: the requestor is answered, the directory's
// transaction completes, the machine quiesces — but the owner's deferred
// slot holds the message forever, poisoning the next rule that touches it.
// The pre-existing invariants audit only states and words, so this leak was
// invisible; the no-stuck-pending check (new invariant: liveness) fails it.
func TestSeededBugStuckDeferredForward(t *testing.T) {
	bug := seededBug("stuck-deferred-forward")
	wantViolation(t, seqCfg(bug, 2),
		[]Step{
			{Core: 0, Op: Store, Addr: 0}, // c0 owns a0 in M
			{Core: 1, Op: Load, Addr: 0},  // FwdGETS to c0: serves AND retains
		},
		"invariant", "deferred forward")
}

// TestSeededBugPhantomSharer drops the (DS, PUTS) drop-sharer rule: the
// eviction is acknowledged but the evictor stays on the sharer list. The
// pre-existing agreement invariant only checked one direction (every S/GS
// copy is listed), so a list entry with no copy behind it passed; the
// phantom-sharer check (new invariant: directory/cache state agreement)
// fails it.
func TestSeededBugPhantomSharer(t *testing.T) {
	bug := seededBug("phantom-sharer")
	wantViolation(t, seqCfg(bug, 2),
		[]Step{
			{Core: 0, Op: Load, Addr: 0}, // c0: a0 Exclusive
			{Core: 1, Op: Load, Addr: 0}, // downgrade: both Shared, both listed
			{Core: 0, Op: Load, Addr: 1}, // fill c0's second way
			{Core: 0, Op: Load, Addr: 2}, // evict a0: PUTS acked, bit kept
		},
		"invariant", "as sharer")
}

// TestSeededBugDirtyExclusive relabels the (M, Load) hit back to Exclusive:
// the dirty word stays in the cache under a clean-state label, so the
// eventual eviction sends a dataless PUTE and the write is lost — but only
// *after* the schedule ends, so every value audit inside the run passes.
// The clean-exclusivity check (new invariant: an E copy must match the
// line it was granted from) catches the latent loss at quiescence.
func TestSeededBugDirtyExclusive(t *testing.T) {
	bug := seededBug("dirty-exclusive")
	wantViolation(t, seqCfg(bug, 1),
		[]Step{
			{Core: 0, Op: Store, Addr: 0}, // a0 Modified, word dirty
			{Core: 0, Op: Load, Addr: 0},  // mutant hit: relabelled Exclusive
		},
		"invariant", "dirty data in a clean state")
}

// TestSeededBugUncountedResidency teleports a Shared hit into GS: the
// block acquires an approximate residency without ever passing the
// scribe-comparator entry path, so no GS entry is counted. States, words,
// and the sharer list all stay consistent — only the counter/structure
// agreement check (new invariant: residency accounting) notices the copy
// that no entry accounts for.
func TestSeededBugUncountedResidency(t *testing.T) {
	bug := seededBug("uncounted-residency")
	wantViolation(t, seqCfg(bug, 2),
		[]Step{
			{Core: 0, Op: Load, Addr: 0}, // c0: a0 Exclusive
			{Core: 1, Op: Load, Addr: 0}, // downgrade: both Shared
			{Core: 0, Op: Load, Addr: 0}, // mutant hit: Shared -> GS, uncounted
		},
		"invariant", "no GS entry was ever counted")
}

// TestSeededBugUnguardedEntry deletes the GWithin guard from the
// (I, Scribble) entry rule: every scribble — however far from the resident
// value — is silently absorbed into GI. The hidden value is a legitimate
// GI divergence to the state and word audits, so the old checker passed;
// the entry audit (new invariant: entering a residency always runs the
// comparator) rejects a far scribble that neither published nor landed on
// a pre-existing residency.
func TestSeededBugUnguardedEntry(t *testing.T) {
	bug := seededBug("unguarded-entry")
	wantViolation(t, seqCfg(bug, 2),
		[]Step{
			{Core: 0, Op: Load, Addr: 0},        // c0: a0 Exclusive
			{Core: 1, Op: Store, Addr: 0},       // c1 takes M; c0's copy -> Invalid
			{Core: 0, Op: ScribbleFar, Addr: 0}, // absorbed into GI unchecked
		},
		"invariant", "neither published")
}

// TestSeededBugDoubleAck makes (S, Inv) acknowledge twice: the directory
// counts the first ack, grants, and panics on the stray second one with the
// grant still in flight. The run reports the panic as a violation instead
// of crashing the sweep (invariant 7), and leaves events pending — the
// failed testbed Explore must not rewind.
func TestSeededBugDoubleAck(t *testing.T) {
	bug := seededBug("double-inv-ack")
	wantViolation(t, seqCfg(bug, 2),
		[]Step{
			{Core: 0, Op: Load, Addr: 0},  // c0: a0 Exclusive
			{Core: 1, Op: Load, Addr: 0},  // downgrade: both Shared
			{Core: 1, Op: Store, Addr: 0}, // UPGRADE: Inv to c0, acked twice
		},
		"panic", "stray InvAck")
}

// TestResetKeepsStorage pins the point of rewinding: after a schedule that
// filled caches, created directory lines and evicted, reset allocates
// nothing — every component rewinds in place.
func TestResetKeepsStorage(t *testing.T) {
	h := newHarness(seqCfg(proto.MustLookup("ghostwriter"), 2), &Reach{})
	v := h.run([]Step{
		{Core: 0, Op: Store, Addr: 0},
		{Core: 1, Op: ScribbleNear, Addr: 0},
		{Core: 0, Op: Load, Addr: 1},
		{Core: 0, Op: Load, Addr: 2}, // evicts a0 from c0
	})
	if v != nil {
		t.Fatal(v)
	}
	if n := testing.AllocsPerRun(10, h.reset); n != 0 {
		t.Errorf("reset allocates %v objects, want 0", n)
	}
}

// TestFingerprintDeterministic pins the classification oracle: the same
// sweep twice hashes identically, and protocols with different memory
// behaviour (mesi escalates every scribble; ghostwriter hides them) hash
// differently.
func TestFingerprintDeterministic(t *testing.T) {
	cfg := Config{
		Protocol:   proto.MustLookup("ghostwriter"),
		Cores:      2,
		Addrs:      []mem.Addr{0x000},
		Depth:      3,
		DDist:      8,
		Policy:     coherence.PolicyHybrid,
		Sequential: true,
	}
	a, b := Explore(cfg), Explore(cfg)
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprint not deterministic: %#x vs %#x", a.Fingerprint, b.Fingerprint)
	}
	cfg.Protocol = proto.MustLookup("mesi")
	if c := Explore(cfg); c.Fingerprint == a.Fingerprint {
		t.Fatal("mesi and ghostwriter hash identically; the oracle cannot separate protocols")
	}
}

// TestOpsRestriction checks the alphabet restriction: a Load/Store-only
// sweep must issue no scribbles (fallback and GS counters stay zero).
func TestOpsRestriction(t *testing.T) {
	res := explore(t, Config{
		Protocol:   proto.MustLookup("ghostwriter"),
		Cores:      2,
		Addrs:      sameSet,
		Depth:      3,
		DDist:      8,
		Policy:     coherence.PolicyHybrid,
		Ops:        []Opcode{Load, Store},
		Sequential: true,
	})
	if res.GSEntries != 0 || res.GIEntries != 0 || res.Fallbacks != 0 {
		t.Fatalf("precise sweep touched approximate states: GS=%d GI=%d fb=%d",
			res.GSEntries, res.GIEntries, res.Fallbacks)
	}
}

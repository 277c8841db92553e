package proto

import (
	"fmt"
	"testing"

	"ghostwriter/internal/cache"
)

// TestTableCompleteness asserts, for every registered protocol, that the
// transition tables and the unreachable allowlists partition the full
// (state, event) space: each pair either has table rules or a documented
// reason it can never occur — never both, never neither. A protocol change
// that forgets a pair therefore fails here at enumeration time instead of
// panicking (or silently dropping an event) deep inside a simulation.
func TestTableCompleteness(t *testing.T) {
	for _, name := range Names() {
		p := MustLookup(name)
		t.Run(name, func(t *testing.T) {
			for si := 0; si < NumL1States; si++ {
				for ei := 0; ei < NumL1Events; ei++ {
					s, ev := cache.State(si), Event(ei)
					why, listed := p.L1Unreachable[L1Key{State: s, Event: ev}]
					switch covered := p.L1[si][ei] != nil; {
					case covered && listed:
						t.Errorf("L1 %s/%v: in the table AND allowlisted as unreachable (%q)",
							L1StateName(s), ev, why)
					case !covered && !listed:
						t.Errorf("L1 %s/%v: neither in the table nor allowlisted", L1StateName(s), ev)
					case listed && why == "":
						t.Errorf("L1 %s/%v: allowlisted without a reason", L1StateName(s), ev)
					}
				}
			}
			for si := 0; si < int(NumDirStates); si++ {
				for ev := EvGETS; ev < NumEvents; ev++ {
					s := DirState(si)
					why, listed := p.DirUnreachable[DirKey{State: s, Event: ev}]
					switch covered := p.Dir.Rules(s, ev) != nil; {
					case covered && listed:
						t.Errorf("dir %v/%v: in the table AND allowlisted as unreachable (%q)", s, ev, why)
					case !covered && !listed:
						t.Errorf("dir %v/%v: neither in the table nor allowlisted", s, ev)
					case listed && why == "":
						t.Errorf("dir %v/%v: allowlisted without a reason", s, ev)
					}
				}
			}
		})
	}
}

// TestBlockingDirectoryRacesAreAllowlisted: the directory holds a line busy
// until the requestor's Unblock, so no table has a row for an Inv reaching
// IS_D or a forward reaching IM_D or SM_A; every table allowlists the five
// pairs with that reason, and a message that broke the rule would fail as a
// missing transition instead of being absorbed.
func TestBlockingDirectoryRacesAreAllowlisted(t *testing.T) {
	const why = "the directory holds the line busy until this requestor's Unblock, which only its fill sends"
	pairs := []L1Key{
		{State: cache.ISD, Event: EvInv},
		{State: cache.IMD, Event: EvFwdGETS},
		{State: cache.IMD, Event: EvFwdGETX},
		{State: cache.SMA, Event: EvFwdGETS},
		{State: cache.SMA, Event: EvFwdGETX},
	}
	for _, name := range Names() {
		p := MustLookup(name)
		for _, k := range pairs {
			if got := p.L1Unreachable[k]; got != why || p.L1[k.State][k.Event] != nil {
				t.Errorf("%s: %s/%v is allowlisted as %q, want %q and no row",
					name, L1StateName(k.State), k.Event, got, why)
			}
		}
	}
}

// TestAllowlistKeysInRange rejects allowlist entries that name pairs outside
// the tables' index space (a directory event in the L1 allowlist, a state
// past Absent): such an entry can never pair with a table hole, so it would
// silently document nothing.
func TestAllowlistKeysInRange(t *testing.T) {
	for _, name := range Names() {
		p := MustLookup(name)
		for k := range p.L1Unreachable {
			if int(k.State) >= NumL1States || int(k.Event) >= NumL1Events {
				t.Errorf("%s: L1 allowlist key %s/%v is outside the L1 table", name, L1StateName(k.State), k.Event)
			}
		}
		for k := range p.DirUnreachable {
			if int(k.State) >= int(NumDirStates) || k.Event < EvGETS || k.Event >= NumEvents {
				t.Errorf("%s: dir allowlist key %v/%v is outside the directory table", name, k.State, k.Event)
			}
		}
	}
}

// TestTableStructure lints the rule lists the interpreters execute blindly:
// every entry must hold at least one rule (a present-but-empty list would
// fall through to the missing-pair path while counting as covered), every
// guard/action/next value must be in range, and Absent rows must keep Stay —
// there is no block to write a next state into, so the interpreter would
// dereference nil.
func TestTableStructure(t *testing.T) {
	for _, name := range Names() {
		p := MustLookup(name)
		for si := 0; si < NumL1States; si++ {
			for ei := 0; ei < NumL1Events; ei++ {
				rules := p.L1[si][ei]
				if rules == nil {
					continue
				}
				s, ev := cache.State(si), Event(ei)
				at := func() string { return name + " L1 " + L1StateName(s) + "/" + ev.String() }
				if len(rules) == 0 {
					t.Errorf("%s: empty rule list (covered but unexecutable)", at())
				}
				for ri, r := range rules {
					if r.Next != Stay && int(r.Next) >= NumL1States-1 { // Absent is not a settable state
						t.Errorf("%s rule %d: next state %d out of range", at(), ri, r.Next)
					}
					if s == Absent && r.Next != Stay {
						t.Errorf("%s rule %d: Absent row must keep Stay (no block to update)", at(), ri)
					}
					for _, g := range r.Guards {
						if g >= NumGuards {
							t.Errorf("%s rule %d: guard %d out of range", at(), ri, g)
						}
					}
					for _, g := range r.NegGuards {
						if g >= NumGuards {
							t.Errorf("%s rule %d: neg-guard %d out of range", at(), ri, g)
						}
					}
					if len(r.Actions) == 0 {
						t.Errorf("%s rule %d: no actions", at(), ri)
					}
					for _, a := range r.Actions {
						if a >= NumActions {
							t.Errorf("%s rule %d: action %d out of range", at(), ri, a)
						}
					}
				}
			}
		}
		for si := 0; si < int(NumDirStates); si++ {
			for ev := EvGETS; ev < NumEvents; ev++ {
				s := DirState(si)
				rules := p.Dir.Rules(s, ev)
				if rules == nil {
					continue
				}
				at := func() string { return name + " dir " + s.String() + "/" + ev.String() }
				if len(rules) == 0 {
					t.Errorf("%s: empty rule list (covered but unexecutable)", at())
				}
				for ri, r := range rules {
					if r.Next >= NumDirStates {
						t.Errorf("%s rule %d: next state %d out of range", at(), ri, r.Next)
					}
					for _, g := range r.Guards {
						if g >= NumDirGuards {
							t.Errorf("%s rule %d: guard %d out of range", at(), ri, g)
						}
					}
					for _, g := range r.NegGuards {
						if g >= NumDirGuards {
							t.Errorf("%s rule %d: neg-guard %d out of range", at(), ri, g)
						}
					}
					if len(r.Actions) == 0 {
						t.Errorf("%s rule %d: no actions", at(), ri)
					}
					for _, a := range r.Actions {
						if a >= NumDirActions {
							t.Errorf("%s rule %d: action %d out of range", at(), ri, a)
						}
					}
				}
			}
		}
	}
}

// grantNext is the state each directory action that grants, forwards or
// evicts leaves its line in: an ownership grant or a forwarded write DM, a
// read grant or a forwarded read DS, an eviction DI.
var grantNext = map[DirAction]DirState{
	DGrantFreshE: DirOwned, DGrantFreshM: DirOwned, DFwdGETXOwner: DirOwned,
	DMigratoryGrant: DirOwned, DInvAndGrant: DirOwned,
	DGrantFreshS: DirShared, DGrantSharedS: DirShared, DFwdGETSOwner: DirShared,
	DEvict: DirInvalid, DInvEvict: DirInvalid, DRecallEvict: DirInvalid,
}

// grantNextErrs lists the directory rules of p whose Next is not the state
// one of their actions leaves the line in.
func grantNextErrs(p *Protocol) []string {
	var errs []string
	for si := range p.Dir {
		for ei, rules := range p.Dir[si] {
			for ri, r := range rules {
				for _, a := range r.Actions {
					if want, ok := grantNext[a]; ok && r.Next != want {
						errs = append(errs, fmt.Sprintf("dir %v/%v r%d: %v leaves %v, Next is %v",
							DirState(si), EvGETS+Event(ei), ri, a, want, r.Next))
					}
				}
			}
		}
	}
	return errs
}

// TestGrantActionsImplyNext checks every directory rule's Next against its
// grant, forward or evict action without running the table. It is the only
// check on the rows no checker sweep dispatches — DI/UPGRADE, DM/UPGRADE
// and the Evict rows (the checker's L2 is unbounded) — so it is shown to
// fire on a hand-made bad table too.
func TestGrantActionsImplyNext(t *testing.T) {
	for _, name := range Names() {
		for _, e := range grantNextErrs(MustLookup(name)) {
			t.Errorf("%s: %s", name, e)
		}
	}
	bad := MustLookup("ghostwriter").Clone()
	bad.Dir[DirInvalid][EvUPGRADE-EvGETS][0].Next = DirShared
	want := "dir DI/UPGRADE r0: grant M leaves DM, Next is DS"
	if got := grantNextErrs(bad); len(got) != 1 || got[0] != want {
		t.Errorf("lint of a table with DI/UPGRADE -> DS = %q, want [%q]", got, want)
	}
}

// TestCloneIsDeep mutates every layer of a clone and checks the registered
// original is untouched — the model checker's seeded-bug tests depend on it.
func TestCloneIsDeep(t *testing.T) {
	orig := MustLookup("ghostwriter")
	c := orig.Clone()
	c.L1[cache.Shared][EvInv] = nil
	c.Dir[0][0] = nil
	c.L1Unreachable[L1Key{State: cache.Shared, Event: EvInv}] = "seeded"
	c.DirUnreachable[DirKey{State: DirInvalid, Event: EvGETS}] = "seeded"
	if orig.L1[cache.Shared][EvInv] == nil || orig.Dir[0][0] == nil {
		t.Fatal("Clone shares table storage with the registered protocol")
	}
	if _, ok := orig.L1Unreachable[L1Key{State: cache.Shared, Event: EvInv}]; ok {
		t.Fatal("Clone shares the L1 allowlist map")
	}
	if _, ok := orig.DirUnreachable[DirKey{State: DirInvalid, Event: EvGETS}]; ok {
		t.Fatal("Clone shares the dir allowlist map")
	}
	// Rule-slice internals too: mutating a cloned rule's action list must not
	// reach the original.
	c2 := orig.Clone()
	c2.L1[cache.Shared][EvLoad][0].Actions[0] = AFinishEviction
	if orig.L1[cache.Shared][EvLoad][0].Actions[0] == AFinishEviction {
		t.Fatal("Clone shares action slices with the registered protocol")
	}
}

// TestHasGIArmsSweep pins which registered tables arm the periodic GI
// sweep: exactly those with GI rows, every table built on ghostwriter's.
func TestHasGIArmsSweep(t *testing.T) {
	want := map[string]bool{
		"ghostwriter": true, "gw-escalate": true, "gw-msi": true, "gw-resident": true, "gw-stale": true,
		"gw-noGI": false, "mesi": false, "mesi-mig": false, "mesi-stale": false,
	}
	if len(Names()) != len(want) {
		t.Fatalf("registered %v, want the %d tables pinned here", Names(), len(want))
	}
	for name, w := range want {
		if got := MustLookup(name).HasGI(); got != w {
			t.Errorf("%s: HasGI() = %v, want %v", name, got, w)
		}
	}
	// Read off the rows: a clone with its GI rows cleared stops arming.
	c := MustLookup("ghostwriter").Clone()
	for ev := range c.L1[cache.GI] {
		c.L1[cache.GI][ev] = nil
	}
	if c.HasGI() {
		t.Error("a table without GI rows reports HasGI")
	}
}

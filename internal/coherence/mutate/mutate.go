// Package mutate is a mutation-testing factory for the table-driven
// coherence protocols in internal/coherence/proto. Enumerate derives, from
// any registered protocol, the full set of single-point semantic
// perturbations a maintainer could plausibly introduce by hand — dropped
// rows, typo'd next states, lost or reordered actions, weakened or negated
// guards, duplicated rules with conflicting effects, corrupted sharer-list
// bookkeeping — and the runner (Run) pushes every mutant through the model
// checker in internal/coherence/check, classifying each as killed,
// equivalent (bit-identical golden fingerprint on every sequential sweep),
// or survived. A surviving non-equivalent mutant is by construction a
// checker gap: an unsound table the invariants cannot distinguish from the
// real protocol.
package mutate

import (
	"fmt"

	"ghostwriter/internal/cache"
	"ghostwriter/internal/coherence/check"
	"ghostwriter/internal/coherence/proto"
)

// Op is a mutation operator family.
type Op uint8

// Mutation operators.
const (
	// OpDropRow removes an entire (state, event) rule list, turning every
	// dispatch of that pair into a missing transition.
	OpDropRow Op = iota
	// OpSwapNext replaces one rule's next state with another stable state
	// (or Stay).
	OpSwapNext
	// OpDelAction deletes one semantic action from a rule.
	OpDelAction
	// OpSwapActions swaps two adjacent semantic actions (bookkeeping
	// actions between them keep their positions).
	OpSwapActions
	// OpDelGuard deletes one guard, weakening the rule so it fires on
	// inputs it was written to reject.
	OpDelGuard
	// OpNegGuard negates one guard (moves it to the rule's NegGuards), so
	// the rule fires exactly when it should not.
	OpNegGuard
	// OpDupConflict prepends a copy of the rule with a conflicting next
	// state, shadowing the original with wrong effects.
	OpDupConflict
	// OpCorruptSharer substitutes one directory sharer-list bookkeeping
	// action for a wrong-but-plausible neighbour (grant-and-track becomes
	// grant-and-reset, invalidate-then-grant becomes grant, ...).
	OpCorruptSharer

	NumOps
)

// String names the operator.
func (o Op) String() string {
	switch o {
	case OpDropRow:
		return "drop-row"
	case OpSwapNext:
		return "swap-next"
	case OpDelAction:
		return "del-action"
	case OpSwapActions:
		return "swap-actions"
	case OpDelGuard:
		return "del-guard"
	case OpNegGuard:
		return "neg-guard"
	case OpDupConflict:
		return "dup-conflict"
	case OpCorruptSharer:
		return "corrupt-sharer"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Mutation is one semantic perturbation, identified by table coordinates:
// operator, table side, (state, event) row, rule index, and an
// operator-specific index/argument pair. A Mutation is pure data so the
// fuzzer can synthesize them from bytes and the runner can report them
// stably.
type Mutation struct {
	Op  Op
	Dir bool // directory table (false: L1 table)
	S   int  // state index (L1: cache state incl. Absent; dir: DirState)
	E   int  // event index (L1: 0..NumL1Events; dir: 0..NumDirEvents)
	R   int  // rule index within the row
	I   int  // guard/action index within the rule (operator-specific)
	Arg int  // swap-next target state / dup-conflict state / substitute action
}

// reached reports whether r marks the table row m rewrites.
func (m Mutation) reached(r *check.Reach) bool {
	if m.Dir {
		return r.Dir[m.S][m.E]
	}
	return r.L1[m.S][m.E]
}

// The enumerator deliberately skips mutation targets whose perturbation is
// invisible or meaningless under the checker's configurations, so the
// matrix measures checker power over *semantic* mutants:
//
//   - statistics counters, energy-meter calls, and the LRU touch are not
//     architectural (the fingerprint excludes them by design);
//   - GUnderBound, DGNoExclusive, and DGMigratory are configuration knobs
//     (drift bound, MSI ablation, migratory optimization) that the
//     checker's testbed leaves disabled — mutating them selects a
//     different, but still sound, configuration;
//   - EvRecallOwn rows require L2 capacity recalls, which the checker's
//     unbounded L2 never issues (the machine-level tests exercise them).
func semanticAction(a proto.Action) bool {
	switch a {
	case proto.ACountLoadHit, proto.ACountStaleHit, proto.ACountLoadMiss,
		proto.ACountStoreMiss, proto.ACountStoresOnS, proto.ACountStoresOnI,
		proto.ACountServicedGS, proto.ACountServicedGI, proto.ACountGSEntry,
		proto.ACountGIEntry, proto.ACountFallback, proto.ACountGSInv,
		proto.AMeterRead, proto.AMeterTag, proto.AMeterWrite,
		proto.ATouch:
		return false
	}
	return true
}

func mutableGuard(g proto.Guard) bool { return g != proto.GUnderBound }
func mutableDirGuard(g proto.DirGuard) bool {
	return g != proto.DGNoExclusive && g != proto.DGMigratory
}

// swapTargets are the next-state candidates for OpSwapNext: the stable
// states plus Stay. A typo'd transient target dies trivially (transient at
// quiescence); restricting to stable states keeps the matrix focused on
// mutants that plausibly survive.
var swapTargets = []cache.State{
	cache.Invalid, cache.Shared, cache.Exclusive, cache.Modified,
	cache.GS, cache.GI, proto.Stay,
}

var dirSwapTargets = []proto.DirState{
	proto.DirInvalid, proto.DirShared, proto.DirOwned, proto.DirStay,
}

// sharerSubs maps each directory sharer-bookkeeping action to a
// wrong-but-plausible substitute for OpCorruptSharer.
var sharerSubs = map[proto.DirAction]proto.DirAction{
	proto.DGrantSharedS: proto.DGrantFreshS, // reset the list instead of appending
	proto.DDropSharer:   proto.DClearOwner,  // drop the whole line instead of one sharer
	proto.DInvAndGrant:  proto.DGrantFreshM, // grant ownership without invalidating sharers
	proto.DFwdGETSOwner: proto.DGrantFreshS, // serve stale L2 data instead of the owner's copy
	proto.DFwdGETXOwner: proto.DGrantFreshM, // hand out a second M copy from stale L2 data
	proto.DClearOwner:   proto.DDropSharer,  // treat the owner record as a sharer bit
}

// Enumerate returns every mutation of p, in a deterministic order (L1 table
// row-major, then directory table row-major; operators in declaration order
// within a rule).
func Enumerate(p *proto.Protocol) []Mutation {
	var ms []Mutation
	for si := 0; si < proto.NumL1States; si++ {
		for ei := 0; ei < proto.NumL1Events; ei++ {
			if proto.Event(ei) == proto.EvRecallOwn {
				continue
			}
			rules := p.L1[si][ei]
			if rules == nil {
				continue
			}
			ms = append(ms, Mutation{Op: OpDropRow, S: si, E: ei})
			for ri, r := range rules {
				ms = append(ms, enumerateL1Rule(si, ei, ri, r)...)
			}
		}
	}
	for si := 0; si < int(proto.NumDirStates); si++ {
		for ei := 0; ei < proto.NumDirEvents; ei++ {
			rules := p.Dir[si][ei]
			if rules == nil {
				continue
			}
			ms = append(ms, Mutation{Op: OpDropRow, Dir: true, S: si, E: ei})
			for ri, r := range rules {
				ms = append(ms, enumerateDirRule(si, ei, ri, r)...)
			}
		}
	}
	return ms
}

func enumerateL1Rule(si, ei, ri int, r proto.Transition) []Mutation {
	var ms []Mutation
	eff := r.Next
	if eff == proto.Stay {
		eff = cache.State(si)
	}
	if cache.State(si) != proto.Absent {
		// Absent rows have no block to write a next state into; the
		// interpreter requires Stay there.
		for _, nxt := range swapTargets {
			effN := nxt
			if effN == proto.Stay {
				effN = cache.State(si)
			}
			if nxt == r.Next || effN == eff {
				continue // identical or behaviourally identical next
			}
			ms = append(ms, Mutation{Op: OpSwapNext, S: si, E: ei, R: ri, Arg: int(nxt)})
		}
		conflict := cache.Invalid
		if eff == cache.Invalid {
			conflict = cache.Modified
		}
		ms = append(ms, Mutation{Op: OpDupConflict, S: si, E: ei, R: ri, Arg: int(conflict)})
	}
	for gi, g := range r.Guards {
		if !mutableGuard(g) {
			continue
		}
		ms = append(ms,
			Mutation{Op: OpDelGuard, S: si, E: ei, R: ri, I: gi},
			Mutation{Op: OpNegGuard, S: si, E: ei, R: ri, I: gi})
	}
	var sem []int
	for ai, a := range r.Actions {
		if semanticAction(a) {
			sem = append(sem, ai)
		}
	}
	for _, ai := range sem {
		ms = append(ms, Mutation{Op: OpDelAction, S: si, E: ei, R: ri, I: ai})
	}
	for k := 0; k+1 < len(sem); k++ {
		ms = append(ms, Mutation{Op: OpSwapActions, S: si, E: ei, R: ri, I: sem[k], Arg: sem[k+1]})
	}
	return ms
}

func enumerateDirRule(si, ei, ri int, r proto.DirTransition) []Mutation {
	var ms []Mutation
	eff := r.Next
	if eff == proto.DirStay {
		eff = proto.DirState(si)
	}
	for _, nxt := range dirSwapTargets {
		effN := nxt
		if effN == proto.DirStay {
			effN = proto.DirState(si)
		}
		if nxt == r.Next || effN == eff {
			continue
		}
		ms = append(ms, Mutation{Op: OpSwapNext, Dir: true, S: si, E: ei, R: ri, Arg: int(nxt)})
	}
	conflict := proto.DirInvalid
	if eff == proto.DirInvalid {
		conflict = proto.DirOwned
	}
	ms = append(ms, Mutation{Op: OpDupConflict, Dir: true, S: si, E: ei, R: ri, Arg: int(conflict)})
	for gi, g := range r.Guards {
		if !mutableDirGuard(g) {
			continue
		}
		ms = append(ms,
			Mutation{Op: OpDelGuard, Dir: true, S: si, E: ei, R: ri, I: gi},
			Mutation{Op: OpNegGuard, Dir: true, S: si, E: ei, R: ri, I: gi})
	}
	for ai, a := range r.Actions {
		ms = append(ms, Mutation{Op: OpDelAction, Dir: true, S: si, E: ei, R: ri, I: ai})
		if sub, ok := sharerSubs[a]; ok {
			ms = append(ms, Mutation{Op: OpCorruptSharer, Dir: true, S: si, E: ei, R: ri, I: ai, Arg: int(sub)})
		}
	}
	for k := 0; k+1 < len(r.Actions); k++ {
		ms = append(ms, Mutation{Op: OpSwapActions, Dir: true, S: si, E: ei, R: ri, I: k, Arg: k + 1})
	}
	return ms
}

// Apply clones p and applies m to the clone. It returns (nil, false) when
// m's coordinates do not name a valid target in p — the fuzzer feeds
// arbitrary coordinates through here, so every index is bounds-checked
// rather than trusted.
func (m Mutation) Apply(p *proto.Protocol) (*proto.Protocol, bool) {
	if m.Dir {
		return m.applyDir(p)
	}
	if m.S < 0 || m.S >= proto.NumL1States || m.E < 0 || m.E >= proto.NumL1Events {
		return nil, false
	}
	if p.L1[m.S][m.E] == nil {
		return nil, false
	}
	q := p.Clone()
	if m.Op == OpDropRow {
		q.L1[m.S][m.E] = nil
		return q, true
	}
	rules := q.L1[m.S][m.E]
	if m.R < 0 || m.R >= len(rules) {
		return nil, false
	}
	r := &rules[m.R]
	switch m.Op {
	case OpSwapNext:
		nxt := cache.State(m.Arg)
		if cache.State(m.S) == proto.Absent || !validL1Next(nxt) || nxt == r.Next {
			return nil, false
		}
		r.Next = nxt
	case OpDelAction:
		if m.I < 0 || m.I >= len(r.Actions) {
			return nil, false
		}
		r.Actions = append(r.Actions[:m.I:m.I], r.Actions[m.I+1:]...)
	case OpSwapActions:
		if m.I < 0 || m.Arg <= m.I || m.Arg >= len(r.Actions) {
			return nil, false
		}
		r.Actions[m.I], r.Actions[m.Arg] = r.Actions[m.Arg], r.Actions[m.I]
	case OpDelGuard:
		if m.I < 0 || m.I >= len(r.Guards) {
			return nil, false
		}
		r.Guards = append(r.Guards[:m.I:m.I], r.Guards[m.I+1:]...)
	case OpNegGuard:
		if m.I < 0 || m.I >= len(r.Guards) {
			return nil, false
		}
		g := r.Guards[m.I]
		r.Guards = append(r.Guards[:m.I:m.I], r.Guards[m.I+1:]...)
		r.NegGuards = append(r.NegGuards, g)
	case OpDupConflict:
		nxt := cache.State(m.Arg)
		if cache.State(m.S) == proto.Absent || !validL1Next(nxt) {
			return nil, false
		}
		dup := proto.Transition{
			Guards:    append([]proto.Guard(nil), r.Guards...),
			NegGuards: append([]proto.Guard(nil), r.NegGuards...),
			Next:      nxt,
			Actions:   append([]proto.Action(nil), r.Actions...),
		}
		q.L1[m.S][m.E] = append([]proto.Transition{dup}, rules...)
	default:
		return nil, false // OpCorruptSharer is directory-only
	}
	return q, true
}

func (m Mutation) applyDir(p *proto.Protocol) (*proto.Protocol, bool) {
	if m.S < 0 || m.S >= int(proto.NumDirStates) || m.E < 0 || m.E >= proto.NumDirEvents {
		return nil, false
	}
	if p.Dir[m.S][m.E] == nil {
		return nil, false
	}
	q := p.Clone()
	if m.Op == OpDropRow {
		q.Dir[m.S][m.E] = nil
		return q, true
	}
	rules := q.Dir[m.S][m.E]
	if m.R < 0 || m.R >= len(rules) {
		return nil, false
	}
	r := &rules[m.R]
	switch m.Op {
	case OpSwapNext:
		nxt := proto.DirState(m.Arg)
		if !validDirNext(nxt) || nxt == r.Next {
			return nil, false
		}
		r.Next = nxt
	case OpDelAction:
		if m.I < 0 || m.I >= len(r.Actions) {
			return nil, false
		}
		r.Actions = append(r.Actions[:m.I:m.I], r.Actions[m.I+1:]...)
	case OpSwapActions:
		if m.I < 0 || m.Arg <= m.I || m.Arg >= len(r.Actions) {
			return nil, false
		}
		r.Actions[m.I], r.Actions[m.Arg] = r.Actions[m.Arg], r.Actions[m.I]
	case OpDelGuard:
		if m.I < 0 || m.I >= len(r.Guards) {
			return nil, false
		}
		r.Guards = append(r.Guards[:m.I:m.I], r.Guards[m.I+1:]...)
	case OpNegGuard:
		if m.I < 0 || m.I >= len(r.Guards) {
			return nil, false
		}
		g := r.Guards[m.I]
		r.Guards = append(r.Guards[:m.I:m.I], r.Guards[m.I+1:]...)
		r.NegGuards = append(r.NegGuards, g)
	case OpDupConflict:
		nxt := proto.DirState(m.Arg)
		if !validDirNext(nxt) {
			return nil, false
		}
		dup := proto.DirTransition{
			Guards:    append([]proto.DirGuard(nil), r.Guards...),
			NegGuards: append([]proto.DirGuard(nil), r.NegGuards...),
			Next:      nxt,
			Actions:   append([]proto.DirAction(nil), r.Actions...),
		}
		q.Dir[m.S][m.E] = append([]proto.DirTransition{dup}, rules...)
	case OpCorruptSharer:
		if m.I < 0 || m.I >= len(r.Actions) {
			return nil, false
		}
		sub := proto.DirAction(m.Arg)
		if sub >= proto.NumDirActions || sub == r.Actions[m.I] {
			return nil, false
		}
		r.Actions[m.I] = sub
	default:
		return nil, false
	}
	return q, true
}

func validL1Next(s cache.State) bool {
	return s == proto.Stay || int(s) < proto.NumL1States-1 // Absent is not settable
}

func validDirNext(s proto.DirState) bool {
	return s == proto.DirStay || s < proto.NumDirStates
}

// Describe renders m against its original protocol, e.g.
// "l1 GS/Scribble r0: next GS->I" or "dir DS/PUTS r1: drop action drop sharer".
func (m Mutation) Describe(p *proto.Protocol) string {
	side, row := "l1", ""
	if m.Dir {
		side = "dir"
		row = fmt.Sprintf("%v/%v", proto.DirState(m.S), proto.Event(m.E)+proto.EvGETS)
	} else {
		row = fmt.Sprintf("%s/%v", proto.L1StateName(cache.State(m.S)), proto.Event(m.E))
	}
	at := fmt.Sprintf("%s %s r%d", side, row, m.R)
	detail := "?"
	switch m.Op {
	case OpDropRow:
		return fmt.Sprintf("%s %s: drop row", side, row)
	case OpSwapNext:
		if m.Dir {
			detail = fmt.Sprintf("next -> %s", dirNextName(proto.DirState(m.Arg)))
		} else {
			detail = fmt.Sprintf("next -> %s", l1NextName(cache.State(m.Arg)))
		}
	case OpDelAction:
		detail = fmt.Sprintf("drop action %s", m.actionName(p))
	case OpSwapActions:
		detail = fmt.Sprintf("swap actions @%d,%d", m.I, m.Arg)
	case OpDelGuard:
		detail = fmt.Sprintf("drop guard %s", m.guardName(p))
	case OpNegGuard:
		detail = fmt.Sprintf("negate guard %s", m.guardName(p))
	case OpDupConflict:
		if m.Dir {
			detail = fmt.Sprintf("shadow with next %s", dirNextName(proto.DirState(m.Arg)))
		} else {
			detail = fmt.Sprintf("shadow with next %s", l1NextName(cache.State(m.Arg)))
		}
	case OpCorruptSharer:
		detail = fmt.Sprintf("%s -> %s", m.actionName(p), proto.DirAction(m.Arg))
	}
	return at + ": " + detail
}

func l1NextName(s cache.State) string {
	if s == proto.Stay {
		return "stay"
	}
	return proto.L1StateName(s)
}

func dirNextName(s proto.DirState) string {
	if s == proto.DirStay {
		return "stay"
	}
	return s.String()
}

func (m Mutation) actionName(p *proto.Protocol) string {
	if m.Dir {
		if rs := p.Dir[m.S][m.E]; m.R < len(rs) && m.I < len(rs[m.R].Actions) {
			return rs[m.R].Actions[m.I].String()
		}
	} else {
		if rs := p.L1[m.S][m.E]; m.R < len(rs) && m.I < len(rs[m.R].Actions) {
			return rs[m.R].Actions[m.I].String()
		}
	}
	return fmt.Sprintf("@%d", m.I)
}

func (m Mutation) guardName(p *proto.Protocol) string {
	if m.Dir {
		if rs := p.Dir[m.S][m.E]; m.R < len(rs) && m.I < len(rs[m.R].Guards) {
			return rs[m.R].Guards[m.I].String()
		}
	} else {
		if rs := p.L1[m.S][m.E]; m.R < len(rs) && m.I < len(rs[m.R].Guards) {
			return rs[m.R].Guards[m.I].String()
		}
	}
	return fmt.Sprintf("@%d", m.I)
}

// Decode interprets data as a mutation program: each 7-byte chunk is
// (op, side, state, event, rule, index, arg), fields reduced modulo their
// ranges. Invalid chunks (coordinates that Apply rejects) are skipped. This
// is the fuzzing front door: arbitrary bytes become structured mutations.
func Decode(data []byte) []Mutation {
	var ms []Mutation
	for len(data) >= 7 {
		c := data[:7]
		data = data[7:]
		m := Mutation{Op: Op(c[0] % uint8(NumOps)), Dir: c[1]&1 == 1}
		if m.Dir {
			m.S = int(c[2]) % int(proto.NumDirStates)
			m.E = int(c[3]) % proto.NumDirEvents
		} else {
			m.S = int(c[2]) % proto.NumL1States
			m.E = int(c[3]) % proto.NumL1Events
		}
		m.R = int(c[4] % 4)
		m.I = int(c[5] % 8)
		m.Arg = int(c[6])
		if m.Op == OpSwapNext || m.Op == OpDupConflict {
			if m.Dir {
				m.Arg = int(dirSwapTargets[int(c[6])%len(dirSwapTargets)])
			} else {
				m.Arg = int(swapTargets[int(c[6])%len(swapTargets)])
			}
		} else if m.Op == OpSwapActions {
			m.Arg = m.I + 1 + int(c[6]%4)
		} else if m.Op == OpCorruptSharer {
			m.Arg = int(c[6]) % int(proto.NumDirActions)
		}
		ms = append(ms, m)
	}
	return ms
}

// Validate lints a mutant's table structure the way the completeness test
// lints the registered protocols, minus the rules mutation legitimately
// breaks (rows may vanish, action lists may empty out): every next state,
// guard, and action must stay in range, and Absent rows must keep Stay.
// The interpreters index tables blindly, so an out-of-range value would be
// a factory bug, not a protocol bug.
func Validate(p *proto.Protocol) error {
	for si := 0; si < proto.NumL1States; si++ {
		for ei := 0; ei < proto.NumL1Events; ei++ {
			for ri, r := range p.L1[si][ei] {
				at := fmt.Sprintf("l1 %s/%v r%d", proto.L1StateName(cache.State(si)), proto.Event(ei), ri)
				if !validL1Next(r.Next) {
					return fmt.Errorf("%s: next %d out of range", at, r.Next)
				}
				if cache.State(si) == proto.Absent && r.Next != proto.Stay {
					return fmt.Errorf("%s: Absent row must keep Stay", at)
				}
				for _, g := range r.Guards {
					if g >= proto.NumGuards {
						return fmt.Errorf("%s: guard %d out of range", at, g)
					}
				}
				for _, g := range r.NegGuards {
					if g >= proto.NumGuards {
						return fmt.Errorf("%s: neg-guard %d out of range", at, g)
					}
				}
				for _, a := range r.Actions {
					if a >= proto.NumActions {
						return fmt.Errorf("%s: action %d out of range", at, a)
					}
				}
			}
		}
	}
	for si := 0; si < int(proto.NumDirStates); si++ {
		for ei := 0; ei < proto.NumDirEvents; ei++ {
			for ri, r := range p.Dir[si][ei] {
				at := fmt.Sprintf("dir %v/%v r%d", proto.DirState(si), proto.Event(ei)+proto.EvGETS, ri)
				if !validDirNext(r.Next) {
					return fmt.Errorf("%s: next %d out of range", at, r.Next)
				}
				for _, g := range r.Guards {
					if g >= proto.NumDirGuards {
						return fmt.Errorf("%s: guard %d out of range", at, g)
					}
				}
				for _, g := range r.NegGuards {
					if g >= proto.NumDirGuards {
						return fmt.Errorf("%s: neg-guard %d out of range", at, g)
					}
				}
				for _, a := range r.Actions {
					if a >= proto.NumDirActions {
						return fmt.Errorf("%s: action %d out of range", at, a)
					}
				}
			}
		}
	}
	return nil
}

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
	// (or, in the L1 table, Stay).
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
//   - GUnderBound reads the §3.5 drift bound, which the checker's testbed
//     leaves off, so the guard always passes there: dropping it changes
//     nothing, and negating it escalates every GS/GI store — a stricter but
//     sound protocol the checker must not kill. Checking it needs a stage
//     with a bound on, which check.Config has no field for;
//   - DGMigratory guards a performance policy, not a safety property:
//     granting a reader ownership is coherent whether or not the block is
//     migratory, so dropping or negating the guard ("always migratory")
//     yields a sound protocol the checker must not kill;
//   - EvRecallOwn rows require L2 capacity recalls, which the checker's
//     unbounded L2 never issues (the machine-level tests exercise them).
func semanticAction(a proto.Action) bool {
	switch a {
	case proto.ACountLoadHit, proto.ACountStaleHit, proto.ACountLoadMiss,
		proto.ACountStoreMiss, proto.ACountStoresOnS, proto.ACountStoresOnI,
		proto.ACountServicedGS, proto.ACountServicedGI, proto.ACountGSEntry,
		proto.ACountGIEntry, proto.ACountFallback, proto.ACountGSInv,
		proto.ACountGITimeout, proto.AMeterRead, proto.AMeterTag, proto.AMeterWrite,
		proto.ATouch:
		return false
	}
	return true
}

func mutableGuard(g proto.Guard) bool       { return g != proto.GUnderBound }
func mutableDirGuard(g proto.DirGuard) bool { return g != proto.DGMigratory }

// swapTargets are the next-state candidates for OpSwapNext: the stable
// states plus Stay. A typo'd transient target dies trivially (transient at
// quiescence); restricting to stable states keeps the matrix focused on
// mutants that plausibly survive. Every directory rule names its Next, so
// the directory's candidates are its three states.
var swapTargets = []cache.State{
	cache.Invalid, cache.Shared, cache.Exclusive, cache.Modified,
	cache.GS, cache.GI, proto.Stay,
}

var dirSwapTargets = []proto.DirState{
	proto.DirInvalid, proto.DirShared, proto.DirOwned,
}

// sharerSubs maps each directory sharer-bookkeeping action to a
// wrong-but-plausible substitute for OpCorruptSharer.
var sharerSubs = map[proto.DirAction]proto.DirAction{
	proto.DGrantSharedS: proto.DGrantFreshS, // reset the list instead of appending
	proto.DInvAndGrant:  proto.DGrantFreshM, // grant ownership without invalidating sharers
	proto.DFwdGETSOwner: proto.DGrantFreshS, // serve stale L2 data instead of the owner's copy
	proto.DFwdGETXOwner: proto.DGrantFreshM, // hand out a second M copy from stale L2 data
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
	for _, nxt := range dirSwapTargets {
		if nxt != r.Next {
			ms = append(ms, Mutation{Op: OpSwapNext, Dir: true, S: si, E: ei, R: ri, Arg: int(nxt)})
		}
	}
	conflict := proto.DirInvalid
	if r.Next == proto.DirInvalid {
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
	if m.S < 0 || m.E < 0 {
		return nil, false
	}
	var (
		q  *proto.Protocol
		ok bool
	)
	if m.Dir {
		if m.S >= int(proto.NumDirStates) || m.E >= proto.NumDirEvents || p.Dir[m.S][m.E] == nil {
			return nil, false
		}
		q = p.Clone()
		ok = mutateRow(m, &q.Dir[m.S][m.E], validDirNext, proto.NumDirActions)
	} else {
		if m.S >= proto.NumL1States || m.E >= proto.NumL1Events || p.L1[m.S][m.E] == nil {
			return nil, false
		}
		// Absent rows have no block to write a next state into, and
		// OpCorruptSharer is directory-only: no L1 action is a substitute.
		absent := cache.State(m.S) == proto.Absent
		nextOK := func(s cache.State) bool { return !absent && validL1Next(s) }
		q = p.Clone()
		ok = mutateRow(m, &q.L1[m.S][m.E], nextOK, 0)
	}
	if !ok {
		return nil, false
	}
	return q, true
}

// mutateRow applies m's operator to one table entry of a cloned protocol,
// in place; false means m names no valid target in it. nextOK is the side's
// next-state range check; substitutes bounds the actions OpCorruptSharer
// may write.
func mutateRow[S, G, A ~uint8](m Mutation, row *[]proto.Rule[S, G, A], nextOK func(S) bool, substitutes A) bool {
	if m.Op == OpDropRow {
		*row = nil
		return true
	}
	rules := *row
	if m.R < 0 || m.R >= len(rules) {
		return false
	}
	r := &rules[m.R]
	switch m.Op {
	case OpSwapNext:
		nxt := S(m.Arg)
		if !nextOK(nxt) || nxt == r.Next {
			return false
		}
		r.Next = nxt
	case OpDelAction:
		if m.I < 0 || m.I >= len(r.Actions) {
			return false
		}
		r.Actions = append(r.Actions[:m.I:m.I], r.Actions[m.I+1:]...)
	case OpSwapActions:
		if m.I < 0 || m.Arg <= m.I || m.Arg >= len(r.Actions) {
			return false
		}
		r.Actions[m.I], r.Actions[m.Arg] = r.Actions[m.Arg], r.Actions[m.I]
	case OpDelGuard, OpNegGuard:
		if m.I < 0 || m.I >= len(r.Guards) {
			return false
		}
		g := r.Guards[m.I]
		r.Guards = append(r.Guards[:m.I:m.I], r.Guards[m.I+1:]...)
		if m.Op == OpNegGuard {
			r.NegGuards = append(r.NegGuards, g)
		}
	case OpDupConflict:
		dup := r.Clone()
		dup.Next = S(m.Arg)
		if !nextOK(dup.Next) {
			return false
		}
		*row = append([]proto.Rule[S, G, A]{dup}, rules...)
	case OpCorruptSharer:
		if m.I < 0 || m.I >= len(r.Actions) {
			return false
		}
		sub := A(m.Arg)
		if sub >= substitutes || sub == r.Actions[m.I] {
			return false
		}
		r.Actions[m.I] = sub
	default:
		return false
	}
	return true
}

func validL1Next(s cache.State) bool {
	return s == proto.Stay || int(s) < proto.NumL1States-1 // Absent is not settable
}

func validDirNext(s proto.DirState) bool { return s < proto.NumDirStates }

// Describe renders m against its original protocol, e.g.
// "l1 GS/Scribble r0: next GS->I" or "dir DS/PUTS r1: drop action drop sharer".
func (m Mutation) Describe(p *proto.Protocol) string {
	if m.Dir {
		row := fmt.Sprintf("dir %v/%v", proto.DirState(m.S), proto.Event(m.E)+proto.EvGETS)
		return describe(m, row, p.Dir[m.S][m.E], proto.DirState.String)
	}
	row := fmt.Sprintf("l1 %s/%v", proto.L1StateName(cache.State(m.S)), proto.Event(m.E))
	return describe(m, row, p.L1[m.S][m.E], l1NextName)
}

// stringer is an enum that names its values.
type stringer interface {
	~uint8
	fmt.Stringer
}

// describe renders m against the table entry it rewrites.
func describe[S ~uint8, G, A stringer](m Mutation, row string, rules []proto.Rule[S, G, A], nextName func(S) string) string {
	if m.Op == OpDropRow {
		return row + ": drop row"
	}
	// With m.R outside the entry the rule stays empty and its guards and
	// actions are named by index.
	var r proto.Rule[S, G, A]
	if m.R < len(rules) {
		r = rules[m.R]
	}
	detail := "?"
	switch m.Op {
	case OpSwapNext:
		detail = "next -> " + nextName(S(m.Arg))
	case OpDelAction:
		detail = "drop action " + nameAt(r.Actions, m.I)
	case OpSwapActions:
		detail = fmt.Sprintf("swap actions @%d,%d", m.I, m.Arg)
	case OpDelGuard:
		detail = "drop guard " + nameAt(r.Guards, m.I)
	case OpNegGuard:
		detail = "negate guard " + nameAt(r.Guards, m.I)
	case OpDupConflict:
		detail = "shadow with next " + nextName(S(m.Arg))
	case OpCorruptSharer:
		detail = fmt.Sprintf("%s -> %v", nameAt(r.Actions, m.I), A(m.Arg))
	}
	return fmt.Sprintf("%s r%d: %s", row, m.R, detail)
}

// nameAt names element i of a rule's guard or action list, or the index
// itself when the list has no such element.
func nameAt[E fmt.Stringer](list []E, i int) string {
	if i < len(list) {
		return list[i].String()
	}
	return fmt.Sprintf("@%d", i)
}

func l1NextName(s cache.State) string {
	if s == proto.Stay {
		return "stay"
	}
	return proto.L1StateName(s)
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
	for si := range p.L1 {
		nextOK := validL1Next
		if cache.State(si) == proto.Absent {
			// No block to write a next state into: Stay is the whole range.
			nextOK = func(s cache.State) bool { return s == proto.Stay }
		}
		for ei, rules := range p.L1[si] {
			if err := lintRules(rules, nextOK, proto.NumGuards, proto.NumActions); err != nil {
				return fmt.Errorf("l1 %s/%v %w", proto.L1StateName(cache.State(si)), proto.Event(ei), err)
			}
		}
	}
	for si := range p.Dir {
		for ei, rules := range p.Dir[si] {
			if err := lintRules(rules, validDirNext, proto.NumDirGuards, proto.NumDirActions); err != nil {
				return fmt.Errorf("dir %v/%v %w", proto.DirState(si), proto.Event(ei)+proto.EvGETS, err)
			}
		}
	}
	return nil
}

// lintRules range-checks one table entry against its side's enums.
func lintRules[S, G, A ~uint8](rules []proto.Rule[S, G, A], nextOK func(S) bool, guards G, actions A) error {
	for ri, r := range rules {
		if !nextOK(r.Next) {
			return fmt.Errorf("r%d: next %d out of range", ri, r.Next)
		}
		for _, g := range r.Guards {
			if g >= guards {
				return fmt.Errorf("r%d: guard %d out of range", ri, g)
			}
		}
		for _, g := range r.NegGuards {
			if g >= guards {
				return fmt.Errorf("r%d: neg-guard %d out of range", ri, g)
			}
		}
		for _, a := range r.Actions {
			if a >= actions {
				return fmt.Errorf("r%d: action %d out of range", ri, a)
			}
		}
	}
	return nil
}

// Package proto defines coherence protocols as data. A protocol is a pair
// of transition tables — one for the L1 controller, one for the directory —
// keyed by (state, event). Each table entry is an ordered list of guarded
// transitions whose actions are small named primitives; the controllers in
// package coherence interpret them. Because the transition relation is
// explicit, protocols can be registered, selected by name, diffed (the
// `mesi` baseline, today's `ghostwriter`, and the `gw-noGI` ablation differ
// only in table rows), rendered into documentation, checked for
// completeness against an unreachable-pair allowlist, and explored
// exhaustively by the model checker in internal/coherence/check.
package proto

import (
	"fmt"

	"ghostwriter/internal/cache"
)

// Event is a protocol input: a core-side memory operation, a network
// message arriving at an L1, or a request dispatched at a directory.
// L1 events come first (EvLoad..EvPutAck), directory events last
// (EvGETS..EvPUTM); the two tables are indexed by their own range.
type Event uint8

// Protocol events.
const (
	// Core-side L1 events.
	EvLoad Event = iota
	EvStore
	EvScribble
	// Network-side L1 events.
	EvInv
	EvRecallOwn
	EvFwdGETS
	EvFwdGETX
	EvDataS
	EvDataE
	EvDataM
	EvDataC2C
	EvUpgAck
	EvPutAck
	// Directory request events (UPGRADE is kept distinct from GETX so the
	// table states explicitly that they share rows).
	EvGETS
	EvGETX
	EvUPGRADE
	EvPUTS
	EvPUTE
	EvPUTM

	NumEvents
)

// NumL1Events counts the L1 portion of the event space.
const NumL1Events = int(EvGETS)

// NumDirEvents counts the directory portion of the event space.
const NumDirEvents = int(NumEvents - EvGETS)

// String names the event.
func (e Event) String() string {
	switch e {
	case EvLoad:
		return "Load"
	case EvStore:
		return "Store"
	case EvScribble:
		return "Scribble"
	case EvInv:
		return "Inv"
	case EvRecallOwn:
		return "RecallOwn"
	case EvFwdGETS:
		return "FwdGETS"
	case EvFwdGETX:
		return "FwdGETX"
	case EvDataS:
		return "DataS"
	case EvDataE:
		return "DataE"
	case EvDataM:
		return "DataM"
	case EvDataC2C:
		return "DataC2C"
	case EvUpgAck:
		return "UpgAck"
	case EvPutAck:
		return "PutAck"
	case EvGETS:
		return "GETS"
	case EvGETX:
		return "GETX"
	case EvUPGRADE:
		return "UPGRADE"
	case EvPUTS:
		return "PUTS"
	case EvPUTE:
		return "PUTE"
	case EvPUTM:
		return "PUTM"
	}
	return fmt.Sprintf("Event(%d)", uint8(e))
}

// Absent is the pseudo-state indexing L1 table rows for blocks with no tag
// in the cache at all (cache.Invalid keeps the tag; Absent does not).
const Absent cache.State = cache.EVA + 1

// NumL1States counts the L1 row space: the ten cache states plus Absent.
const NumL1States = int(Absent) + 1

// Stay is the sentinel Next value meaning the transition keeps the current
// state.
const Stay cache.State = 0xFF

// L1StateName names an L1 row, including the Absent pseudo-state.
func L1StateName(s cache.State) string {
	if s == Absent {
		return "Absent"
	}
	return s.String()
}

// Guard is a named predicate over the L1's current operation and block.
// Guards are evaluated in order with short-circuiting, so a guard with side
// effects (GUnderBound charges the drift monitor; the within-family guards
// charge the scribe comparator) runs exactly when the hand-written protocol
// did.
type Guard uint8

// L1 guards.
const (
	// GApproxStore: the op is a plain store inside an enabled approximate
	// region (not an atomic, d-distance resolved >= 0).
	GApproxStore Guard = iota
	// GUnderBound: the §3.5 drift monitor admits one more hidden write.
	// Impure: it counts the write against the residency (or counts an
	// escalation when the bound rejects it).
	GUnderBound
	// GWithin: the scribe comparator finds the scribbled value within
	// d-distance of the block's current word. Impure: charges comparator
	// energy.
	GWithin
	// GResidentOrWithin: PolicyResident skips the comparator; otherwise
	// GWithin.
	GResidentOrWithin
	// GNotEscalateOrWithin: every policy but PolicyEscalate skips the
	// comparator; otherwise GWithin.
	GNotEscalateOrWithin
	// GStaleLoad: stale-load approximation enabled and the op is inside an
	// approximate region.
	GStaleLoad
	// GGrantIsS: the arriving data message grants Shared.
	GGrantIsS
	// GGrantIsM: the arriving data message grants Modified.
	GGrantIsM

	NumGuards
)

// String names the guard.
func (g Guard) String() string {
	switch g {
	case GApproxStore:
		return "approxStore"
	case GUnderBound:
		return "underBound"
	case GWithin:
		return "within"
	case GResidentOrWithin:
		return "resident|within"
	case GNotEscalateOrWithin:
		return "!escalate|within"
	case GStaleLoad:
		return "staleLoad"
	case GGrantIsS:
		return "grant=S"
	case GGrantIsM:
		return "grant=M"
	}
	return fmt.Sprintf("Guard(%d)", uint8(g))
}

// Action is a named L1 primitive. Actions run in list order after the
// transition's Next state is applied; orderings that matter (energy-meter
// call sequence, message send sequence, completion last) are preserved by
// the table rows.
type Action uint8

// L1 actions.
const (
	// Counters.
	ACountLoadHit Action = iota
	ACountStaleHit
	ACountLoadMiss
	ACountStoreMiss
	ACountStoresOnS
	ACountStoresOnI
	ACountServicedGS
	ACountServicedGI
	ACountGSEntry
	ACountGIEntry
	ACountFallback
	ACountGSInv
	// Energy meter.
	AMeterRead
	AMeterTag
	AMeterWrite
	// Block bookkeeping.
	ATouch
	ASetHidden1
	AClearUpgInv
	// Core-op completion.
	ACompleteHitLoad
	ACompleteFillLoad
	ACompleteWrite
	AWriteHit
	AApplyWrite
	// Re-dispatch the current op as a conventional store (scribble
	// escalation and the no-comparator fallbacks).
	AAsStore
	// Requests.
	ASendGETS
	ASendGETX
	ASendUPGRADE
	AAllocGETS
	AAllocGETX
	// Invalidation / recall / forward handling.
	AAckInv
	AMarkUpgInvalidated
	AMarkInvAfterFill
	ARecallData
	AServeFwd
	ADeferFwd
	// Fills and transaction completion.
	AFill
	AInvAfterFill
	AUnblock
	AAssertUpgValid
	AServeDeferred
	AFinishEviction

	NumActions
)

// String names the action.
func (a Action) String() string {
	switch a {
	case ACountLoadHit:
		return "cnt:loadHit"
	case ACountStaleHit:
		return "cnt:staleHit"
	case ACountLoadMiss:
		return "cnt:loadMiss"
	case ACountStoreMiss:
		return "cnt:storeMiss"
	case ACountStoresOnS:
		return "cnt:storeOnS"
	case ACountStoresOnI:
		return "cnt:storeOnI"
	case ACountServicedGS:
		return "cnt:gsService"
	case ACountServicedGI:
		return "cnt:giService"
	case ACountGSEntry:
		return "cnt:gsEntry"
	case ACountGIEntry:
		return "cnt:giEntry"
	case ACountFallback:
		return "cnt:fallback"
	case ACountGSInv:
		return "cnt:gsInv"
	case AMeterRead:
		return "meter:read"
	case AMeterTag:
		return "meter:tag"
	case AMeterWrite:
		return "meter:write"
	case ATouch:
		return "touch"
	case ASetHidden1:
		return "hidden=1"
	case AClearUpgInv:
		return "clearUpgInv"
	case ACompleteHitLoad:
		return "completeHitLoad"
	case ACompleteFillLoad:
		return "completeFillLoad"
	case ACompleteWrite:
		return "completeWrite"
	case AWriteHit:
		return "writeHit"
	case AApplyWrite:
		return "applyWrite"
	case AAsStore:
		return "asStore"
	case ASendGETS:
		return "send:GETS"
	case ASendGETX:
		return "send:GETX"
	case ASendUPGRADE:
		return "send:UPGRADE"
	case AAllocGETS:
		return "alloc+GETS"
	case AAllocGETX:
		return "alloc+GETX"
	case AAckInv:
		return "send:InvAck"
	case AMarkUpgInvalidated:
		return "markUpgInv"
	case AMarkInvAfterFill:
		return "markInvAfterFill"
	case ARecallData:
		return "send:RecallData"
	case AServeFwd:
		return "serveFwd"
	case ADeferFwd:
		return "deferFwd"
	case AFill:
		return "fill"
	case AInvAfterFill:
		return "invAfterFill"
	case AUnblock:
		return "send:Unblock"
	case AAssertUpgValid:
		return "assertUpgValid"
	case AServeDeferred:
		return "serveDeferred"
	case AFinishEviction:
		return "finishEviction"
	}
	return fmt.Sprintf("Action(%d)", uint8(a))
}

// Rule is one guarded table rule over one side's state, guard and action
// enums. Within a (state, event) entry rules are tried in order; the first
// whose guards all pass — and whose NegGuards all fail — fires. Next is
// applied before the actions run (the side's Stay sentinel keeps the state).
type Rule[S, G, A ~uint8] struct {
	Guards []G
	// NegGuards are guards that must evaluate false for the rule to fire.
	// The shipped tables leave this empty; it exists as a mutation hook so
	// internal/coherence/mutate can express guard negation as data.
	NegGuards []G
	Next      S
	Actions   []A
}

// Clone deep-copies the rule.
func (r Rule[S, G, A]) Clone() Rule[S, G, A] {
	return Rule[S, G, A]{
		Guards:    append([]G(nil), r.Guards...),
		NegGuards: append([]G(nil), r.NegGuards...),
		Next:      r.Next,
		Actions:   append([]A(nil), r.Actions...),
	}
}

// cloneRules deep-copies one table entry; a nil (unreachable) entry stays
// nil.
func cloneRules[S, G, A ~uint8](rules []Rule[S, G, A]) []Rule[S, G, A] {
	if rules == nil {
		return nil
	}
	out := make([]Rule[S, G, A], len(rules))
	for i, r := range rules {
		out[i] = r.Clone()
	}
	return out
}

// Transition is one guarded L1 table rule.
type Transition = Rule[cache.State, Guard, Action]

// L1Table is the L1 transition relation, indexed [state][event]. A nil
// entry means the pair is unreachable under the protocol (it must then
// appear in the protocol's L1Unreachable allowlist).
type L1Table [NumL1States][NumL1Events][]Transition

// DirState is the directory's view of a block.
type DirState uint8

// Directory states.
const (
	DirInvalid DirState = iota // no tracked copies
	DirShared                  // one or more read-only copies (incl. hidden GS)
	DirOwned                   // one owner in E or M

	NumDirStates
)

// DirStay is the sentinel Next value meaning the transition keeps the
// directory state (or defers the change to an action that runs after an
// asynchronous data fetch).
const DirStay DirState = 0xFF

// String names the directory state.
func (s DirState) String() string {
	switch s {
	case DirInvalid:
		return "DI"
	case DirShared:
		return "DS"
	case DirOwned:
		return "DM"
	}
	return "?"
}

// DirGuard is a named predicate over the directory line and request.
type DirGuard uint8

// Directory guards.
const (
	// DGNoExclusive: the base protocol is MSI (no E grants).
	DGNoExclusive DirGuard = iota
	// DGMigratory: the migratory optimization is on and the detector has
	// classified this block.
	DGMigratory
	// DGOwnerIsFrom: the requestor is the recorded owner.
	DGOwnerIsFrom
	// DGFromListed: the requestor is on the sharer list.
	DGFromListed

	NumDirGuards
)

// String names the directory guard.
func (g DirGuard) String() string {
	switch g {
	case DGNoExclusive:
		return "msi"
	case DGMigratory:
		return "migratory"
	case DGOwnerIsFrom:
		return "owner=req"
	case DGFromListed:
		return "req listed"
	}
	return fmt.Sprintf("DirGuard(%d)", uint8(g))
}

// DirAction is a named directory primitive. Grant actions that need block
// data run their tail (reply + bookkeeping) after the L2/DRAM fetch
// completes, exactly like the hand-written controller did.
type DirAction uint8

// Directory actions.
const (
	// DNoteWrite feeds the migratory-sharing detector.
	DNoteWrite DirAction = iota
	// DAssertNotOwner panics if the recorded owner re-requests its block.
	DAssertNotOwner
	// DGrantFreshS/E/M: fetch data, reply DataS/DataE/DataM to the
	// requestor and track it as sole sharer/owner.
	DGrantFreshS
	DGrantFreshE
	DGrantFreshM
	// DGrantSharedS: fetch data, reply DataS and add the requestor to the
	// sharer list.
	DGrantSharedS
	// DFwdGETSOwner: forward the read to the owner (downgrade); wait for
	// its writeback and the requestor's unblock.
	DFwdGETSOwner
	// DFwdGETXOwner: forward the write to the owner (invalidate);
	// ownership moves to the requestor.
	DFwdGETXOwner
	// DMigratoryGrant: hand a reader ownership directly (the write is
	// predicted); the old owner invalidates.
	DMigratoryGrant
	// DInvAndGrant: invalidate every other sharer, then grant ownership —
	// UpgAck for a still-valid UPGRADE, DataM otherwise.
	DInvAndGrant
	// DDropSharer removes the requestor from the sharer list (to DI when
	// it was the last).
	DDropSharer
	// DWriteback absorbs a PUTM's dirty data into the L2 bank.
	DWriteback
	// DClearOwner drops the ownership record (to DI).
	DClearOwner
	// DPutAckFinish acknowledges a PUT and completes the transaction.
	DPutAckFinish

	NumDirActions
)

// String names the directory action.
func (a DirAction) String() string {
	switch a {
	case DNoteWrite:
		return "noteWrite"
	case DAssertNotOwner:
		return "assert !owner"
	case DGrantFreshS:
		return "grant S"
	case DGrantFreshE:
		return "grant E"
	case DGrantFreshM:
		return "grant M"
	case DGrantSharedS:
		return "grant S (add)"
	case DFwdGETSOwner:
		return "fwd GETS→owner"
	case DFwdGETXOwner:
		return "fwd GETX→owner"
	case DMigratoryGrant:
		return "migratory grant"
	case DInvAndGrant:
		return "inv sharers+grant"
	case DDropSharer:
		return "drop sharer"
	case DWriteback:
		return "writeback"
	case DClearOwner:
		return "clear owner"
	case DPutAckFinish:
		return "PutAck+finish"
	}
	return fmt.Sprintf("DirAction(%d)", uint8(a))
}

// DirTransition is one guarded directory table rule.
type DirTransition = Rule[DirState, DirGuard, DirAction]

// DirTable is the directory transition relation, indexed
// [state][event-EvGETS].
type DirTable [NumDirStates][NumDirEvents][]DirTransition

// Rules returns the entry for (s, ev); ev must be a directory event.
func (t *DirTable) Rules(s DirState, ev Event) []DirTransition {
	return t[s][ev-EvGETS]
}

// L1Key identifies an L1 (state, event) pair for the unreachable allowlist.
type L1Key struct {
	State cache.State
	Event Event
}

// DirKey identifies a directory (state, event) pair.
type DirKey struct {
	State DirState
	Event Event
}

// Protocol is one registered coherence protocol: its name, its transition
// tables, and the allowlist of (state, event) pairs its tables deliberately
// omit (with the reason each is unreachable). HasGI arms the periodic GI
// timeout sweep.
type Protocol struct {
	Name  string
	HasGI bool

	L1  L1Table
	Dir DirTable

	// L1Unreachable and DirUnreachable document, per omitted table pair,
	// why the protocol can never observe it. The completeness test asserts
	// table ∪ allowlist covers the full (state, event) space with no
	// overlap.
	L1Unreachable  map[L1Key]string
	DirUnreachable map[DirKey]string
}

// Clone deep-copies the protocol (tables, rules, and allowlists) so tests
// can mutate a variant — e.g. seed a missing-transition bug — without
// corrupting the registered original.
func (p *Protocol) Clone() *Protocol {
	q := &Protocol{Name: p.Name, HasGI: p.HasGI}
	for s := range p.L1 {
		for e := range p.L1[s] {
			q.L1[s][e] = cloneRules(p.L1[s][e])
		}
	}
	for s := range p.Dir {
		for e := range p.Dir[s] {
			q.Dir[s][e] = cloneRules(p.Dir[s][e])
		}
	}
	q.L1Unreachable = make(map[L1Key]string, len(p.L1Unreachable))
	for k, v := range p.L1Unreachable {
		q.L1Unreachable[k] = v
	}
	q.DirUnreachable = make(map[DirKey]string, len(p.DirUnreachable))
	for k, v := range p.DirUnreachable {
		q.DirUnreachable[k] = v
	}
	return q
}

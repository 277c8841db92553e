package coherence

import (
	"fmt"

	"ghostwriter/internal/approx"
	"ghostwriter/internal/cache"
	"ghostwriter/internal/coherence/proto"
	"ghostwriter/internal/energy"
	"ghostwriter/internal/mem"
	"ghostwriter/internal/noc"
	"ghostwriter/internal/sim"
	"ghostwriter/internal/stats"
)

// OpKind is the flavour of a core memory operation.
type OpKind uint8

// Core operation kinds. OpScribble is the paper's approximate store ISA
// extension; under the baseline protocol (or outside an enabled approximate
// region) it executes as a conventional store. OpAtomicAdd is a fetch-add
// synchronization primitive: it always uses the conventional protocol
// (synchronization data must never be approximated, §3.1) and completes
// with the value read.
const (
	OpLoad OpKind = iota
	OpStore
	OpScribble
	OpAtomicAdd
)

// CoreOp is one in-order core memory operation presented to the L1. The
// core is blocking: it has at most one CoreOp outstanding.
type CoreOp struct {
	Kind  OpKind
	Addr  mem.Addr
	Width int    // access width in bytes: 1, 2, 4, or 8
	Value uint64 // store value (ignored for loads)
	// DDist is the resolved d-distance for a scribble (< 0 means the
	// address is not inside an enabled approximate region and the scribble
	// must execute as a conventional store).
	DDist int
	// Done is invoked at the completion cycle with the load value (stores
	// complete with the stored value).
	Done func(value uint64)
}

// ScribblePolicy selects how scribbles behave on a block already resident
// in an approximate state.
type ScribblePolicy uint8

// Scribble policies.
const (
	// PolicyHybrid is the default and our best-fit reading of the paper:
	// scribbles on a GS block keep running the scribe comparison and a
	// dissimilar value falls back to the conventional mechanism (an
	// UPGRADE that publishes the locally accumulated block as the coherent
	// M copy — §3.1's "otherwise falling back to the conventional
	// coherence mechanisms"), while GI residency is disciplined purely by
	// the periodic timeout, as §3.2 specifies. Without the GS fallback, a
	// set of caches can absorb into an all-GS state that nothing ever
	// publishes or invalidates — unbounded divergence that would
	// contradict the paper's own Fig. 11 error numbers.
	PolicyHybrid ScribblePolicy = iota
	// PolicyResident is the literal Fig. 3 state diagram: the scribe gates
	// only the *entry* into GS/GI; once resident, everything hits until an
	// invalidation, eviction, or GI timeout ends the residency.
	PolicyResident
	// PolicyEscalate re-runs the scribe comparison on every scribble in
	// both GS and GI, escalating dissimilar values to the conventional
	// protocol. Tightest error bound, most traffic.
	PolicyEscalate
)

// String names the policy.
func (p ScribblePolicy) String() string {
	switch p {
	case PolicyResident:
		return "resident"
	case PolicyEscalate:
		return "escalate"
	}
	return "hybrid"
}

// ParsePolicy is the inverse of ScribblePolicy.String.
func ParsePolicy(name string) (ScribblePolicy, error) {
	switch name {
	case "hybrid":
		return PolicyHybrid, nil
	case "resident":
		return PolicyResident, nil
	case "escalate":
		return PolicyEscalate, nil
	}
	return PolicyHybrid, fmt.Errorf("unknown scribble policy %q (want hybrid, resident, or escalate)", name)
}

// L1Config parametrizes an L1 controller.
type L1Config struct {
	Cache      cache.Config
	HitLatency sim.Cycle // Table 1: 2 cycles
	GITimeout  sim.Cycle // Table 1: 1024 cycles; 0 disables the sweep
	// Proto is the transition-table protocol the controller interprets.
	// Required: machine.New resolves the name, the checker holds a table.
	Proto  *proto.Protocol
	Policy ScribblePolicy
	// ErrorBound caps the hidden writes absorbed during one GS/GI
	// residency (§3.5's error-bounding extension, after Rumba-style
	// runtime monitors): when a block has absorbed ErrorBound writes, the
	// next one escalates to the conventional protocol, publishing or
	// refetching the block. 0 disables the monitor.
	ErrorBound uint32
	// AdaptiveGITimeout lets each controller tune its own sweep period at
	// runtime (a §3.5/auto-tuning future-work extension): a sweep that
	// discards many GI residencies halves the period (bounding the updates
	// lost per residency), an empty sweep doubles it (recovering the
	// traffic savings), within [GITimeout/8, 4*GITimeout].
	AdaptiveGITimeout bool
	// StaleLoads enables the Rengasamy-style load-side approximation the
	// paper's §5 describes as the prior approximate-coherence work: inside
	// an approximate region (setaprx active), a load to an Invalid block
	// with its tag present returns the stale data immediately, without a
	// GETS. Composable with the Ghostwriter store-side states.
	StaleLoads bool
	// ProfileSimilarity records the d-distance between every store's value
	// and the value currently in the cache block, irrespective of
	// coherence state (the Fig. 2 methodology).
	ProfileSimilarity bool
	// OnMissing, when set, replaces the panic on a (state, event) pair
	// with no table entry: the event is recorded and dropped. The model
	// checker uses it to turn silent protocol holes into detectable
	// deadlocks instead of crashes.
	OnMissing func(s cache.State, ev proto.Event)
	// OnDispatch, when set, observes every table lookup: the (state, event)
	// row about to be interpreted, defined or not. Like OnMissing it belongs
	// to the model checker, which records the rows a sweep reaches.
	OnDispatch func(s cache.State, ev proto.Event)
}

// L1 is one private L1 data cache controller with its core-facing port and
// network-facing protocol engine. The paper keeps all Ghostwriter changes
// local to the L1 level; so does this implementation.
//
// The controller interprets its protocol's transition table: each core op
// or network message becomes a proto.Event, the block's state (or Absent)
// selects the rule list, and the first rule whose guards pass fires — its
// Next state is applied, then its action primitives run in order.
//
// The controller is blocking (one core op, one eviction at a time), so all
// transaction context lives in flat fields instead of per-transaction
// closures, and the recurring callbacks (completion, GI sweep) are bound
// once at construction.
type L1 struct {
	id    int
	node  noc.NodeID
	eng   *sim.Engine
	net   *noc.Network
	meter *energy.Meter
	st    *stats.Stats
	arr   *cache.Cache
	cfg   L1Config
	proto *proto.Protocol
	home  func(mem.Addr) noc.NodeID
	pool  *MsgPool

	// giBlocks counts frames currently in GI — a census maintained at
	// every state change so the periodic sweep can skip scanning the whole
	// array (the dominant sweep cost) whenever nothing is in GI.
	giBlocks int

	cur                *CoreOp
	curMsg             *Msg // the message being dispatched (nil for core ops)
	actVal             uint64
	invAfterFill       bool
	upgradeInvalidated bool
	pendingFwd         *Msg
	stopped            bool
	curTimeout         sim.Cycle

	// The single outstanding eviction transaction, and the install+request
	// it defers (also used directly on silent evictions).
	evActive   bool
	evAddr     mem.Addr
	fillVictim *cache.Block
	fillAddr   mem.Addr
	fillState  cache.State
	fillReq    MsgType

	// In-flight core-op completion (scheduled by complete).
	pendingDone func(uint64)
	pendingVal  uint64

	// Callbacks bound once so rescheduling never allocates.
	completeFn sim.Event
	sweepFn    sim.Event
}

// NewL1 builds an L1 controller. The L1's id doubles as its NoC node id.
// home maps a block address to its directory's node.
func NewL1(id int, eng *sim.Engine, net *noc.Network, cfg L1Config,
	home func(mem.Addr) noc.NodeID, meter *energy.Meter, st *stats.Stats) *L1 {
	if cfg.Proto == nil {
		panic("coherence: NewL1: L1Config.Proto is nil")
	}
	l := &L1{
		id:    id,
		node:  noc.NodeID(id),
		eng:   eng,
		net:   net,
		meter: meter,
		st:    st,
		arr:   cache.New(cfg.Cache),
		cfg:   cfg,
		proto: cfg.Proto,
		home:  home,
	}
	l.stopped = true
	l.curTimeout = cfg.GITimeout
	l.completeFn = l.fireComplete
	l.sweepFn = l.giSweep
	return l
}

// Reset returns a quiesced controller (no core op, eviction or completion
// in flight, sweep timer not pending) to its just-constructed state: an
// empty array, every transaction field zeroed, the sweep stopped at the
// configured period. Wiring, configuration and the bound callbacks are
// kept.
func (l *L1) Reset() {
	l.arr.Reset()
	l.giBlocks = 0
	l.cur, l.curMsg, l.actVal = nil, nil, 0
	l.invAfterFill, l.upgradeInvalidated = false, false
	l.pendingFwd = nil
	l.stopped = true
	l.curTimeout = l.cfg.GITimeout
	l.evActive, l.evAddr = false, 0
	l.fillVictim, l.fillAddr, l.fillState, l.fillReq = nil, 0, 0, 0
	l.pendingDone, l.pendingVal = nil, 0
}

// UsePool makes the controller draw its outbound messages from p (shared
// machine-wide; see MsgPool for the ownership discipline). Without a pool
// every message is a fresh allocation.
func (l *L1) UsePool(p *MsgPool) { l.pool = p }

// CurrentGITimeout returns the controller's (possibly adapted) sweep period.
func (l *L1) CurrentGITimeout() sim.Cycle { return l.curTimeout }

// StartSweep arms the periodic GI timeout (a no-op for protocols without
// GI). The machine arms it at the start of a run and stops it at the end so
// the event queue can drain.
func (l *L1) StartSweep() {
	if !l.proto.HasGI || l.cfg.GITimeout == 0 || !l.stopped {
		return
	}
	l.stopped = false
	l.eng.After(l.curTimeout, l.sweepFn)
}

// Stop halts the periodic GI sweep so the event queue can drain after a run.
func (l *L1) Stop() { l.stopped = true }

// Array exposes the underlying cache array (used by the coherent-view
// reader and the invariant checker).
func (l *L1) Array() *cache.Cache { return l.arr }

// ID returns the controller's id.
func (l *L1) ID() int { return l.id }

// Busy reports whether a core operation is outstanding.
func (l *L1) Busy() bool { return l.cur != nil || l.evActive }

// HasDeferredFwd reports whether the controller is retaining a deferred
// forward (one it must serve once its in-flight fill arrives). At
// quiescence this must be false; the model checker asserts it.
func (l *L1) HasDeferredFwd() bool { return l.pendingFwd != nil }

// giSweep implements the periodic GI timeout: every GITimeout cycles all GI
// blocks revert to I, forfeiting their hidden updates (§3.2). The tag and
// the (now once again merely stale) data stay in the frame.
func (l *L1) giSweep() {
	if l.stopped {
		return
	}
	swept := 0
	if l.giBlocks > 0 {
		l.arr.ForEach(func(si int, b *cache.Block) {
			if b.State == cache.GI {
				b.State = cache.Invalid
				l.st.GITimeouts++
				swept++
			}
		})
		l.giBlocks = 0
	}
	if l.cfg.AdaptiveGITimeout {
		switch {
		case swept >= 2 && l.curTimeout > l.cfg.GITimeout/8:
			// Many residencies discarded at once: bound per-residency loss
			// by sweeping more often.
			l.curTimeout /= 2
		case swept == 0 && l.curTimeout < 4*l.cfg.GITimeout:
			// Nothing hidden: back off to recover traffic savings.
			l.curTimeout *= 2
		}
		if l.curTimeout < 1 {
			l.curTimeout = 1
		}
	}
	l.eng.After(l.curTimeout, l.sweepFn)
}

// Access presents one core operation. The L1 must be idle.
func (l *L1) Access(op *CoreOp) {
	if l.Busy() {
		panic(fmt.Sprintf("l1 %d: Access while busy", l.id))
	}
	l.cur = op
	l.st.L1Accesses++
	b := l.arr.Lookup(op.Addr)
	switch op.Kind {
	case OpLoad:
		l.st.Loads++
		l.dispatch(proto.EvLoad, b)
		return
	case OpStore, OpAtomicAdd:
		l.st.Stores++
	case OpScribble:
		l.st.Scribbles++
	}
	if l.cfg.ProfileSimilarity && b != nil {
		old := b.ReadWord(l.arr.Offset(op.Addr), op.Width)
		l.st.RecordDistance(approx.Distance(old, op.Value, approx.Width(op.Width*8)))
	}
	if op.Kind == OpScribble && op.DDist >= 0 {
		// Inside an enabled approximate region; the protocol's table
		// decides what a scribble means (mesi escalates it to a store).
		l.dispatch(proto.EvScribble, b)
		return
	}
	l.dispatch(proto.EvStore, b)
}

// dispatch interprets the protocol table for one event against the block's
// current state (Absent when the tag is not cached). The first rule whose
// guards all pass fires: its Next state is applied, then its actions run.
func (l *L1) dispatch(ev proto.Event, b *cache.Block) {
	s := proto.Absent
	if b != nil {
		s = b.State
	}
	if l.cfg.OnDispatch != nil {
		l.cfg.OnDispatch(s, ev)
	}
	rules := l.proto.L1[s][ev]
	for i := range rules {
		t := &rules[i]
		if !l.ruleFires(t, b) {
			continue
		}
		if t.Next != proto.Stay {
			l.setState(b, t.Next)
		}
		for _, a := range t.Actions {
			l.runAction(a, b)
		}
		return
	}
	if l.cfg.OnMissing != nil {
		l.cfg.OnMissing(s, ev)
		return
	}
	panic(fmt.Sprintf("l1 %d: no %v transition in state %v", l.id, ev, proto.L1StateName(s)))
}

// setState writes a block's new state while maintaining the GI census.
// Every state change outside the sweep itself must go through here (or
// adjust giBlocks explicitly) or the sweep's skip check goes stale.
func (l *L1) setState(b *cache.Block, next cache.State) {
	if b.State == cache.GI {
		l.giBlocks--
	}
	if next == cache.GI {
		l.giBlocks++
	}
	b.State = next
}

// ruleFires evaluates a rule's guards in order, short-circuiting — guard
// side effects (comparator energy, the drift monitor's count) happen
// exactly when the guard is reached. NegGuards (a mutation hook, empty in
// the shipped tables) must all evaluate false.
func (l *L1) ruleFires(t *proto.Transition, b *cache.Block) bool {
	for _, g := range t.Guards {
		if !l.evalGuard(g, b) {
			return false
		}
	}
	for _, g := range t.NegGuards {
		if l.evalGuard(g, b) {
			return false
		}
	}
	return true
}

func (l *L1) evalGuard(g proto.Guard, b *cache.Block) bool {
	switch g {
	case proto.GApproxStore:
		return l.cur.Kind != OpAtomicAdd && l.cur.DDist >= 0
	case proto.GUnderBound:
		return !l.boundExceeded(b)
	case proto.GWithin:
		return l.within(b)
	case proto.GResidentOrWithin:
		return l.cfg.Policy == PolicyResident || l.within(b)
	case proto.GNotEscalateOrWithin:
		return l.cfg.Policy != PolicyEscalate || l.within(b)
	case proto.GStaleLoad:
		return l.cfg.StaleLoads && l.cur.DDist >= 0
	case proto.GGrantIsS:
		return l.curMsg.Grant == GrantS
	case proto.GGrantIsM:
		return l.curMsg.Grant == GrantM
	}
	panic(fmt.Sprintf("l1 %d: unknown guard %v", l.id, g))
}

// within runs the scribe comparator: is the scribbled value d-distance
// similar to the block's current (possibly stale) word?
func (l *L1) within(b *cache.Block) bool {
	l.meter.Scribe()
	op := l.cur
	old := b.ReadWord(l.arr.Offset(op.Addr), op.Width)
	return approx.Within(old, op.Value, approx.Width(op.Width*8), op.DDist)
}

// touchAddr is the address the current event refers to: the message's for
// network events, the op's for core events.
func (l *L1) touchAddr() mem.Addr {
	if l.curMsg != nil {
		return l.curMsg.Addr
	}
	return l.cur.Addr
}

func (l *L1) runAction(a proto.Action, b *cache.Block) {
	switch a {
	case proto.ACountLoadHit:
		l.st.L1LoadHits++
	case proto.ACountStaleHit:
		l.st.StaleLoadHits++
	case proto.ACountLoadMiss:
		l.st.L1LoadMisses++
	case proto.ACountStoreMiss:
		l.st.L1StoreMisses++
	case proto.ACountStoresOnS:
		l.st.StoresOnS++
	case proto.ACountStoresOnI:
		l.st.StoresOnI++
	case proto.ACountServicedGS:
		l.st.ServicedByGS++
	case proto.ACountServicedGI:
		l.st.ServicedByGI++
	case proto.ACountGSEntry:
		l.st.GSEntries++
	case proto.ACountGIEntry:
		l.st.GIEntries++
	case proto.ACountFallback:
		l.st.ScribbleFallbacks++
	case proto.ACountGSInv:
		l.st.GSInvalidations++
	case proto.AMeterRead:
		l.meter.L1Read()
	case proto.AMeterTag:
		l.meter.L1Tag()
	case proto.AMeterWrite:
		l.meter.L1Write()
	case proto.ATouch:
		l.arr.Touch(l.touchAddr())
	case proto.ASetHidden1:
		b.Hidden = 1
	case proto.AClearUpgInv:
		l.upgradeInvalidated = false
	case proto.ACompleteHitLoad:
		l.complete(l.cfg.HitLatency, b.ReadWord(l.arr.Offset(l.cur.Addr), l.cur.Width))
	case proto.ACompleteFillLoad:
		l.complete(1, b.ReadWord(l.arr.Offset(l.cur.Addr), l.cur.Width))
	case proto.ACompleteWrite:
		l.complete(1, l.actVal)
	case proto.AWriteHit:
		l.writeHit(l.cur, b)
	case proto.AApplyWrite:
		l.actVal = l.applyWrite(l.cur, b)
	case proto.AAsStore:
		l.dispatch(proto.EvStore, b)
	case proto.ASendGETS:
		l.sendReq(GETS, l.cur.Addr)
	case proto.ASendGETX:
		l.sendReq(GETX, l.cur.Addr)
	case proto.ASendUPGRADE:
		l.sendReq(UPGRADE, l.cur.Addr)
	case proto.AAllocGETS:
		l.allocFrame(l.cur.Addr, cache.ISD, GETS)
	case proto.AAllocGETX:
		l.allocFrame(l.cur.Addr, cache.IMD, GETX)
	case proto.AAckInv:
		ack := l.pool.Get()
		ack.Type, ack.Addr, ack.From, ack.ToDir = InvAck, l.curMsg.Addr, l.id, true
		l.send(l.home(l.curMsg.Addr), ack)
	case proto.AMarkUpgInvalidated:
		// Our UPGRADE raced with this invalidating transaction; the
		// directory will answer our (now stale) UPGRADE with data.
		l.upgradeInvalidated = true
	case proto.AMarkInvAfterFill:
		// Our GETS was granted (we are on the sharer list) but the data is
		// still in flight from a remote owner; the fill will complete the
		// load with the granted value and then drop to Invalid.
		l.invAfterFill = true
	case proto.ARecallData:
		// Surrender an owned block so the L2 home can evict its line
		// (inclusive-hierarchy recall). The tag is kept, per the paper's
		// I-state convention.
		l.meter.L1Read()
		r := l.pool.Get()
		r.Type, r.Addr, r.From, r.ToDir = RecallData, l.curMsg.Addr, l.id, true
		r.Data = append(r.Data[:0], b.Data...)
		l.send(l.home(l.curMsg.Addr), r)
	case proto.AServeFwd:
		l.serveFwd(l.curMsg, b)
	case proto.ADeferFwd:
		// We have just been made owner but our data grant is still in
		// flight; defer until the fill completes. The directory is busy on
		// this block until we respond, so at most one forward can stack.
		if l.pendingFwd != nil {
			panic(fmt.Sprintf("l1 %d: second pending forward", l.id))
		}
		l.pendingFwd = l.curMsg
	case proto.AFill:
		if l.cur == nil {
			panic(fmt.Sprintf("l1 %d: stray fill %v for %#x", l.id, l.curMsg.Type, l.curMsg.Addr))
		}
		copy(b.Data, l.curMsg.Data)
		l.meter.L1Write()
	case proto.AInvAfterFill:
		if l.invAfterFill {
			// The block was invalidated between grant and fill; the load
			// still completes with the granted (then-coherent) value.
			l.setState(b, cache.Invalid)
			l.invAfterFill = false
		}
	case proto.AUnblock:
		l.sendUnblock(l.curMsg.Addr)
	case proto.AAssertUpgValid:
		if l.cur == nil {
			panic(fmt.Sprintf("l1 %d: stray UpgAck for %#x", l.id, l.curMsg.Addr))
		}
		if l.upgradeInvalidated {
			panic(fmt.Sprintf("l1 %d: UpgAck after invalidation", l.id))
		}
	case proto.AServeDeferred:
		if l.pendingFwd != nil {
			f := l.pendingFwd
			l.pendingFwd = nil
			l.serveFwd(f, b)
			l.pool.Put(f)
		}
	case proto.AFinishEviction:
		if !l.evActive || l.evAddr != l.curMsg.Addr {
			panic(fmt.Sprintf("l1 %d: stray PutAck for %#x", l.id, l.curMsg.Addr))
		}
		l.evActive = false
		l.installAndRequest()
	default:
		panic(fmt.Sprintf("l1 %d: unknown action %v", l.id, a))
	}
}

// complete finishes the current core operation after lat cycles. The L1 is
// blocking, so at most one completion is in flight; its context rides in
// flat fields and the bound completeFn, not a fresh closure.
func (l *L1) complete(lat sim.Cycle, value uint64) {
	op := l.cur
	l.cur = nil
	l.pendingDone = op.Done
	l.pendingVal = value
	l.eng.After(lat, l.completeFn)
}

// fireComplete delivers the pending completion to the core.
func (l *L1) fireComplete() {
	done := l.pendingDone
	l.pendingDone = nil
	done(l.pendingVal)
}

// send injects a coherence message, charging traffic accounting.
func (l *L1) send(dst noc.NodeID, m *Msg) {
	l.st.AddMsg(m.Type.Class())
	size := 0
	if m.Type.CarriesData() {
		size = l.cfg.Cache.BlockSize
	}
	l.net.Send(l.node, dst, size, m)
}

// sendReq sends a request for the current op's block to its home directory.
func (l *L1) sendReq(t MsgType, a mem.Addr) {
	base := l.arr.BlockBase(a)
	m := l.pool.Get()
	m.Type, m.Addr, m.From, m.ToDir = t, base, l.id, true
	l.send(l.home(base), m)
}

// boundExceeded applies the §3.5 drift monitor: it counts one more hidden
// write against the block's current approximate residency and reports
// whether the configured bound rejects it.
func (l *L1) boundExceeded(b *cache.Block) bool {
	if l.cfg.ErrorBound == 0 {
		return false
	}
	if b.Hidden >= l.cfg.ErrorBound {
		l.st.BoundEscalations++
		return true
	}
	b.Hidden++
	return false
}

// applyWrite performs the op's data update on the block and returns the
// op's completion value (the stored value, or the old value for a
// fetch-add).
func (l *L1) applyWrite(op *CoreOp, b *cache.Block) uint64 {
	off := l.arr.Offset(op.Addr)
	if op.Kind == OpAtomicAdd {
		old := b.ReadWord(off, op.Width)
		b.WriteWord(off, op.Width, old+op.Value)
		return old
	}
	b.WriteWord(off, op.Width, op.Value)
	return op.Value
}

// writeHit applies a store that has (or needs no) write permission.
func (l *L1) writeHit(op *CoreOp, b *cache.Block) {
	l.st.L1StoreHits++
	l.meter.L1Write()
	v := l.applyWrite(op, b)
	l.arr.Touch(op.Addr)
	l.complete(l.cfg.HitLatency, v)
}

// allocFrame obtains a frame for addr, running the eviction transaction for
// a dirty/tracked victim first, then installs the tag in newState and sends
// req for the block. The deferred install rides in the fill* fields (the L1
// is blocking, so at most one is pending).
func (l *L1) allocFrame(addr mem.Addr, newState cache.State, req MsgType) {
	v := l.arr.VictimWay(addr)
	l.fillVictim = v
	l.fillAddr = addr
	l.fillState = newState
	l.fillReq = req
	if !v.Valid || v.State == cache.Invalid || v.State == cache.GI {
		// Empty frame, an invalid block (the directory does not track it),
		// or a GI block (also untracked; its hidden updates are forfeited,
		// §3.5): silent eviction.
		l.installAndRequest()
		return
	}
	vaddr := l.arr.AddrOf(l.arr.SetIndex(addr), v)
	prior := v.State
	v.State = cache.EVA
	l.evActive = true
	l.evAddr = vaddr
	m := l.pool.Get()
	m.Addr, m.From, m.ToDir = vaddr, l.id, true
	switch prior {
	case cache.Modified:
		m.Type = PUTM
		m.Data = append(m.Data[:0], v.Data...)
	case cache.Exclusive:
		m.Type = PUTE
	case cache.Shared:
		m.Type = PUTS
	case cache.GS:
		// Still on the sharer list; hidden updates are forfeited (§3.5).
		m.Type = PUTS
	default:
		panic(fmt.Sprintf("l1 %d: evicting state %v", l.id, prior))
	}
	l.send(l.home(vaddr), m)
}

// installAndRequest claims the chosen victim frame for the pending fill and
// sends its request to the home directory.
func (l *L1) installAndRequest() {
	if l.fillVictim.Valid && l.fillVictim.State == cache.GI {
		// A GI victim leaves the census when its frame is reclaimed.
		l.giBlocks--
	}
	l.arr.Evict(l.fillVictim)
	l.arr.Install(l.fillVictim, l.fillAddr, l.fillState, nil)
	if l.fillState == cache.GI {
		l.giBlocks++
	}
	l.fillVictim = nil
	l.sendReq(l.fillReq, l.fillAddr)
}

// eventOf maps a network message type to its L1 protocol event.
func eventOf(t MsgType) proto.Event {
	switch t {
	case Inv:
		return proto.EvInv
	case RecallOwn:
		return proto.EvRecallOwn
	case FwdGETS:
		return proto.EvFwdGETS
	case FwdGETX:
		return proto.EvFwdGETX
	case DataS:
		return proto.EvDataS
	case DataE:
		return proto.EvDataE
	case DataM:
		return proto.EvDataM
	case DataC2C:
		return proto.EvDataC2C
	case UpgAck:
		return proto.EvUpgAck
	case PutAck:
		return proto.EvPutAck
	}
	panic(fmt.Sprintf("coherence: no L1 event for message %v", t))
}

// HandleMsg processes one network message addressed to this L1 and, as the
// receiver, recycles it — unless the handler retained it (a forward
// deferred until the in-flight fill arrives).
func (l *L1) HandleMsg(m *Msg) {
	l.curMsg = m
	l.dispatch(eventOf(m.Type), l.arr.Lookup(m.Addr))
	l.curMsg = nil
	if l.pendingFwd == m {
		return // retained; freed after the fill serves it
	}
	l.pool.Put(m)
}

// serveFwd answers a forwarded request from our owned copy: data goes
// cache-to-cache to the requestor, plus the protocol's completion message
// to the directory. Each outbound message gets its own copy of the block —
// pooled Data buffers must never be shared between two in-flight messages.
func (l *L1) serveFwd(m *Msg, b *cache.Block) {
	l.meter.L1Read()
	c2c := l.pool.Get()
	c2c.Type, c2c.Addr, c2c.From, c2c.Requestor = DataC2C, m.Addr, l.id, m.Requestor
	c2c.Data = append(c2c.Data[:0], b.Data...)
	if m.Type == FwdGETS {
		c2c.Grant = GrantS
		l.send(noc.NodeID(m.Requestor), c2c)
		wb := l.pool.Get()
		wb.Type, wb.Addr, wb.From, wb.ToDir = DataToDir, m.Addr, l.id, true
		wb.Data = append(wb.Data[:0], b.Data...)
		l.send(l.home(m.Addr), wb)
		if b.State != cache.EVA {
			l.setState(b, cache.Shared)
		}
		return
	}
	c2c.Grant = GrantM
	l.send(noc.NodeID(m.Requestor), c2c)
	if b.State != cache.EVA {
		l.setState(b, cache.Invalid)
	}
}

// sendUnblock releases the home directory's per-block busy state after a
// grant has been installed.
func (l *L1) sendUnblock(a mem.Addr) {
	m := l.pool.Get()
	m.Type, m.Addr, m.From, m.ToDir = Unblock, a, l.id, true
	l.send(l.home(a), m)
}

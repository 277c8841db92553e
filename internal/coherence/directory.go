package coherence

import (
	"fmt"
	"math/bits"
	"slices"

	"ghostwriter/internal/coherence/proto"
	"ghostwriter/internal/dram"
	"ghostwriter/internal/energy"
	"ghostwriter/internal/mem"
	"ghostwriter/internal/noc"
	"ghostwriter/internal/sim"
	"ghostwriter/internal/stats"
)

// Table 1's directory timing.
const (
	DirLatency sim.Cycle = 6  // directory lookup/update
	L2Latency  sim.Cycle = 10 // L2 bank access
)

// DirConfig parametrizes a directory controller and its co-located L2 bank.
type DirConfig struct {
	// CapacityBlocks bounds the L2 bank's data capacity (Table 1:
	// 128 kB x cores / banks worth of blocks). When a DRAM fill would
	// overflow it, the bank evicts a victim line, recalling any L1 copies
	// first (inclusive hierarchy). 0 means unbounded.
	CapacityBlocks int
	// OnMissing, when set, replaces the panic on a (state, request) pair
	// with no table entry: the event is recorded and the request dropped,
	// leaving the line busy — the model checker surfaces the resulting
	// deadlock instead of crashing.
	OnMissing func(s proto.DirState, ev proto.Event)
	// OnDispatch, when set, observes every table lookup: the (state,
	// request) row about to be interpreted, defined or not. Like OnMissing
	// it belongs to the model checker, which records the rows a sweep
	// reaches.
	OnDispatch func(s proto.DirState, ev proto.Event)
}

// dirLine is the directory entry plus L2 data for one block. The directory
// is blocking: one transaction per block at a time, with later requests
// queued FIFO.
type dirLine struct {
	state   proto.DirState
	owner   int
	sharers SharerSet // L1 ids holding read copies (≤ MaxCores cores)

	hasData bool
	data    []byte

	busy        bool
	cur         *Msg
	queue       []*Msg
	grant       proto.DirAction // the data grant cur waits to make once withData has the block
	pendingAck  int
	onAcksDone  func(*dirLine) // called with this line when the last InvAck arrives
	upgradeOK   bool           // cur is an UPGRADE from a core still on the sharer list
	needUnblock bool           // awaiting the requestor's Unblock
	needData    bool           // awaiting the owner's DataToDir writeback
	// waiter is the line whose fetch waits for this victim line's
	// eviction to make room in the L2 bank.
	waiter *dirLine

	// Migratory-sharing detector state (run only under a table with a
	// DGMigratory rule): lastReader is the core whose GETS opened the
	// current generation; generations counts consecutive read-then-write
	// handoffs; migratory marks the block as classified.
	lastReader  int
	generations int
	migratory   bool
}

// Directory is one of the (four, per Table 1) home directories with its L2
// bank, placed at a mesh corner. It serializes coherence transactions per
// block and is the ordering point of the protocol.
type Directory struct {
	id    int
	node  noc.NodeID
	eng   *sim.Engine
	net   *noc.Network
	meter *energy.Meter
	st    *stats.Stats
	cfg   DirConfig
	proto *proto.Protocol
	bs    int // the block size, the L1's
	dram  *dram.Channel
	pool  *MsgPool
	lines lineTable
	// dispatchFn is bound once; the scheduled argument is the busy line,
	// whose cur field carries the request being dispatched.
	dispatchFn func(any)
	// grantFn is bound once too; the scheduled argument is the busy line,
	// whose grant field names the grant to make. So is fillFn, which the
	// DRAM channel calls with the line it has just filled.
	grantFn func(any)
	fillFn  func(any)
	// ownFn is grantOwnership bound once, for a line's onAcksDone; evictFn
	// evicts a line with its own data, for an eviction's last InvAck.
	ownFn   func(*dirLine)
	evictFn func(*dirLine)
	// bufs holds the block buffers of lines that lost their data — a
	// capacity victim's, every line's at Reset — for the next fills to read
	// into, so a bank at capacity and a rewound directory fill without
	// allocating. When it is empty a fill carves its buffer from slab, the
	// uncarved tail of the newest chunk of lineChunk block buffers: like
	// the lines themselves, L2 data is allocated once per 64 lines filled.
	bufs [][]byte
	slab []byte
	// resident lists the addresses whose lines were filled into the L2
	// bank, in fill order, and clock is the index the eviction scan last
	// stopped at, walking it round-robin. A line that an eviction empties
	// stays listed until the next ensureSpace compacts the list; dead
	// records those addresses, so a list with nothing to drop costs
	// nothing. Compaction shifts entries under clock without adjusting it.
	resident []mem.Addr
	clock    int
	dead     []mem.Addr

	// detect runs the migratory-sharing detector: newDirectory sets it when
	// some rule of the table reads DGMigratory, the only reader of what the
	// detector learns.
	detect bool
}

// newDirectory builds a directory of fc at the given mesh node, backed by a
// DRAM channel for blocks not present in its L2 bank.
func newDirectory(id int, node noc.NodeID, eng *sim.Engine, net *noc.Network, fc FabricConfig,
	ch *dram.Channel, meter *energy.Meter, st *stats.Stats, pool *MsgPool) *Directory {
	if fc.Proto == nil {
		panic("coherence: newDirectory: FabricConfig.Proto is nil")
	}
	d := &Directory{
		id:    id,
		node:  node,
		eng:   eng,
		net:   net,
		meter: meter,
		st:    st,
		cfg:   fc.Dir,
		proto: fc.Proto,
		bs:    fc.L1.Cache.BlockSize,
		dram:  ch,
		pool:  pool,
	}
	d.dispatchFn = d.dispatchLine
	d.grantFn = d.grantLine
	d.fillFn = d.fillLine
	d.ownFn = d.grantOwnership
	d.evictFn = func(e *dirLine) { d.evict(e, e.data) }
	d.detect = readsGuard(d.proto, proto.DGMigratory)
	return d
}

// readsGuard reports whether some rule of p's directory table reads g.
func readsGuard(p *proto.Protocol, g proto.DirGuard) bool {
	for s := range p.Dir {
		for _, rules := range p.Dir[s] {
			for _, r := range rules {
				if slices.Contains(r.Guards, g) || slices.Contains(r.NegGuards, g) {
					return true
				}
			}
		}
	}
	return false
}

// lineTable maps block addresses to directory lines: open addressing with
// linear probing over flat key/value slices (no per-lookup hashing through
// the runtime map), lines allocated from a chunked arena so their pointers
// stay stable across growth (transactions capture *dirLine in closures).
// Address 0 is a valid block address, so emptiness is marked by a nil
// value, never by a key sentinel.
type lineTable struct {
	keys  []mem.Addr
	vals  []*dirLine
	shift uint // 64 - log2(len(vals)), for Fibonacci hashing
	n     int
	all   []*dirLine // every line ever created, for whole-table scans; all[:n] are in the table
	chunk []dirLine  // arena tail lines are carved from
}

const lineChunk = 64

func (t *lineTable) slot(a mem.Addr) int {
	return int((uint64(a) * 0x9E3779B97F4A7C15) >> t.shift)
}

// get returns the line for a, or nil.
func (t *lineTable) get(a mem.Addr) *dirLine {
	if t.n == 0 {
		return nil
	}
	mask := len(t.vals) - 1
	for i := t.slot(a); t.vals[i] != nil; i = (i + 1) & mask {
		if t.keys[i] == a {
			return t.vals[i]
		}
	}
	return nil
}

// getOrCreate returns the line for a, creating it on first touch.
func (t *lineTable) getOrCreate(a mem.Addr) *dirLine {
	if len(t.vals) == 0 || t.n*4 >= len(t.vals)*3 {
		t.grow()
	}
	mask := len(t.vals) - 1
	i := t.slot(a)
	for t.vals[i] != nil {
		if t.keys[i] == a {
			return t.vals[i]
		}
		i = (i + 1) & mask
	}
	var e *dirLine
	if t.n < len(t.all) {
		e = t.all[t.n] // cleared by reset; reused in creation order
	} else {
		if len(t.chunk) == 0 {
			t.chunk = make([]dirLine, lineChunk)
		}
		e = &t.chunk[0]
		t.chunk = t.chunk[1:]
		t.all = append(t.all, e)
	}
	e.owner = -1
	t.keys[i], t.vals[i] = a, e
	t.n++
	return e
}

// reset empties the table, keeping its slots and its lines: every line is
// cleared but for the capacity of its (empty) request queue, and getOrCreate
// hands them out again, in creation order, before carving new ones. No caller
// may still hold a line.
func (t *lineTable) reset() {
	for _, e := range t.all[:t.n] {
		*e = dirLine{queue: e.queue[:0]}
	}
	clear(t.vals)
	t.n = 0
}

// grow doubles the table (initially 64 slots) and reinserts every entry.
func (t *lineTable) grow() {
	size := lineChunk
	if len(t.vals) > 0 {
		size = len(t.vals) * 2
	}
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]mem.Addr, size)
	t.vals = make([]*dirLine, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for oi, v := range oldVals {
		if v == nil {
			continue
		}
		i := t.slot(oldKeys[oi])
		for t.vals[i] != nil {
			i = (i + 1) & mask
		}
		t.keys[i], t.vals[i] = oldKeys[oi], v
	}
}

// Reset returns a quiesced directory (no transaction in flight, no DRAM
// access pending) to its just-constructed state: no line tracked, an empty
// L2 bank, its DRAM channel free at cycle 0. Wiring, configuration and the
// line storage are kept, the lines' block buffers among it: they go to the
// next fills.
func (d *Directory) Reset() {
	d.dram.Reset()
	for _, e := range d.lines.all[:d.lines.n] {
		d.releaseData(e)
	}
	d.lines.reset()
	d.resident = d.resident[:0]
	d.clock = 0
	d.dead = d.dead[:0]
}

// SetProtocol makes the directory interpret p from its next request on,
// with the migratory detector run as newDirectory would run it for p. It is
// legal only on a reset directory (see Reset): no line is tracked, so no
// detector state or transaction of the old table carries over.
func (d *Directory) SetProtocol(p *proto.Protocol) {
	if p == nil {
		panic("coherence: Directory.SetProtocol: protocol is nil")
	}
	if d.lines.n != 0 {
		panic(fmt.Sprintf("directory %d: SetProtocol with %d lines tracked", d.id, d.lines.n))
	}
	d.proto = p
	d.detect = readsGuard(p, proto.DGMigratory)
}

func (d *Directory) line(a mem.Addr) *dirLine {
	return d.lines.getOrCreate(a)
}

// Peek returns the directory's coherent data for a block, if it holds any
// (used post-run by the machine's coherent-view reader, not by the
// protocol). ok is false when the block is owned (the owner's copy is
// authoritative) or was never cached here.
func (d *Directory) Peek(a mem.Addr) (data []byte, ok bool) {
	e := d.lines.get(a)
	if e == nil || !e.hasData || e.state == proto.DirOwned {
		return nil, false
	}
	return e.data, true
}

// LineData returns the raw L2 line for a block, if the bank holds one —
// even while the block is owned, when the line may be stale relative to
// the owner's copy. The model checker uses it to audit that a clean
// Exclusive grant still matches the line it was filled from.
func (d *Directory) LineData(a mem.Addr) (data []byte, ok bool) {
	e := d.lines.get(a)
	if e == nil || !e.hasData {
		return nil, false
	}
	return e.data, true
}

// Owner returns the owning L1 id for a block, or -1.
func (d *Directory) Owner(a mem.Addr) int {
	if e := d.lines.get(a); e != nil && e.state == proto.DirOwned {
		return e.owner
	}
	return -1
}

// Sharers returns the sharer set for a block.
func (d *Directory) Sharers(a mem.Addr) SharerSet {
	if e := d.lines.get(a); e != nil && e.state == proto.DirShared {
		return e.sharers
	}
	return SharerSet{}
}

// State returns the directory's raw state for a block (DirInvalid for a
// never-touched line). Unlike Owner/Sharers it does not filter by state, so
// the model checker can cross-check the state record against the
// owner/sharer bookkeeping.
func (d *Directory) State(a mem.Addr) proto.DirState {
	if e := d.lines.get(a); e != nil {
		return e.state
	}
	return proto.DirInvalid
}

// Node returns the interconnect node the directory sits at.
func (d *Directory) Node() noc.NodeID { return d.node }

// Busy reports whether a transaction on a's block is in flight or queued.
func (d *Directory) Busy(a mem.Addr) bool {
	e := d.lines.get(a)
	return e != nil && (e.busy || len(e.queue) > 0)
}

// Quiesced reports whether no transaction is in flight at this directory.
func (d *Directory) Quiesced() bool {
	for _, e := range d.lines.all {
		if e.busy || len(e.queue) > 0 {
			return false
		}
	}
	return true
}

// send injects a message, with traffic accounting.
func (d *Directory) send(dst noc.NodeID, m *Msg) {
	d.st.AddMsg(m.Type.Class())
	size := 0
	if m.Type.CarriesData() {
		size = d.bs
	}
	d.net.Send(d.node, dst, size, m)
}

// sendCtl sends a control message to an L1.
func (d *Directory) sendCtl(l1 int, t MsgType, a mem.Addr, requestor int) {
	m := d.pool.Get()
	m.Type, m.Addr, m.From, m.Requestor = t, a, d.id, requestor
	d.send(noc.NodeID(l1), m)
}

// HandleMsg processes one network message addressed to this directory.
// Transaction responses are recycled here; requests live until their
// transaction finishes (queued, then e.cur until finish()).
func (d *Directory) HandleMsg(m *Msg) {
	e := d.line(m.Addr)
	switch m.Type {
	case GETS, GETX, UPGRADE, PUTS, PUTE, PUTM:
		if e.busy {
			e.queue = append(e.queue, m)
			return
		}
		d.begin(e, m)
		return
	case InvAck:
		d.handleInvAck(e, m)
	case DataToDir:
		d.handleDataToDir(e, m)
	case Unblock:
		d.handleUnblock(e, m)
	case RecallData:
		d.handleRecallData(e, m)
	default:
		panic(fmt.Sprintf("dir %d: unexpected message %v", d.id, m.Type))
	}
	d.pool.Put(m)
}

// begin starts a transaction: the block goes busy and the request is
// dispatched after the directory lookup latency. The line itself is the
// scheduled argument (its cur holds the request), so no closure is built.
func (d *Directory) begin(e *dirLine, m *Msg) {
	e.busy = true
	e.cur = m
	d.eng.AfterArg(DirLatency, d.dispatchFn, e)
}

// dispatchLine adapts dispatch to the engine's argument-passing form. The
// directory access is charged here, per request: an eviction, which
// evictLine dispatches directly, is charged none.
func (d *Directory) dispatchLine(arg any) {
	e := arg.(*dirLine)
	d.meter.DirAccess()
	d.st.DirAccesses++
	d.dispatch(e, dirEventOf(e.cur.Type))
}

// dirEventOf maps a request message type to its directory protocol event.
func dirEventOf(t MsgType) proto.Event {
	switch t {
	case GETS:
		return proto.EvGETS
	case GETX:
		return proto.EvGETX
	case UPGRADE:
		return proto.EvUPGRADE
	case PUTS:
		return proto.EvPUTS
	case PUTE:
		return proto.EvPUTE
	case PUTM:
		return proto.EvPUTM
	}
	panic(fmt.Sprintf("coherence: no directory event for message %v", t))
}

// dispatch interprets the protocol's directory table for ev on the busy
// line e (its cur is the request, or an Evict's victim record): the first
// rule of the state's list whose guards pass fires, its Next becomes the
// line's state — nowhere else changes it — and its actions run in order.
// Nothing reads a busy line's state (DESIGN.md §4.2), so a grant still waiting
// for its data is a busy line already in the state the grant makes.
func (d *Directory) dispatch(e *dirLine, ev proto.Event) {
	m := e.cur
	if d.cfg.OnDispatch != nil {
		d.cfg.OnDispatch(e.state, ev)
	}
	rules := d.proto.Dir.Rules(e.state, ev)
	for i := range rules {
		t := &rules[i]
		ok := true
		for _, g := range t.Guards {
			if !d.evalGuard(g, e, m) {
				ok = false
				break
			}
		}
		// NegGuards (a mutation hook, empty in the shipped tables) must all
		// evaluate false.
		for _, g := range t.NegGuards {
			if !ok {
				break
			}
			if d.evalGuard(g, e, m) {
				ok = false
			}
		}
		if !ok {
			continue
		}
		e.state = t.Next
		for _, a := range t.Actions {
			d.runAction(a, e, m)
		}
		return
	}
	if d.cfg.OnMissing != nil {
		// Drop the request, leaving the line busy: a table hole becomes a
		// deadlock the model checker can observe.
		d.cfg.OnMissing(e.state, ev)
		return
	}
	panic(fmt.Sprintf("dir %d: no %v transition in state %v", d.id, ev, e.state))
}

func (d *Directory) evalGuard(g proto.DirGuard, e *dirLine, m *Msg) bool {
	switch g {
	case proto.DGMigratory:
		return e.migratory
	case proto.DGOwnerIsFrom:
		return e.owner == m.From
	case proto.DGFromListed:
		return e.sharers.Has(m.From)
	case proto.DGOnlySharer:
		return e.sharers == SharerSetOf(m.From)
	}
	panic(fmt.Sprintf("dir %d: unknown guard %v", d.id, g))
}

func (d *Directory) runAction(a proto.DirAction, e *dirLine, m *Msg) {
	switch a {
	case proto.DNoteWrite:
		d.noteWrite(e, m.From)
	case proto.DAssertNotOwner:
		if e.owner == m.From {
			panic(fmt.Sprintf("dir %d: owner %v for %#x", d.id, m.Type, m.Addr))
		}
	case proto.DGrantFreshS, proto.DGrantFreshE, proto.DGrantFreshM, proto.DGrantSharedS:
		e.grant = a
		d.withData(e)
	case proto.DFwdGETSOwner:
		// Ask the owner to forward data and downgrade; the transaction
		// completes when both the owner's writeback and the requestor's
		// unblock arrive.
		e.lastReader = m.From
		e.needData = true
		e.needUnblock = true
		d.sendCtl(e.owner, FwdGETS, m.Addr, m.From)
	case proto.DFwdGETXOwner:
		// Forward to the old owner; ownership moves to the requestor,
		// whose unblock completes the transaction.
		oldOwner := e.owner
		e.owner = m.From
		e.needUnblock = true
		d.sendCtl(oldOwner, FwdGETX, m.Addr, m.From)
	case proto.DMigratoryGrant:
		// Migratory block: hand the reader ownership directly (the write
		// is coming); the old owner invalidates instead of downgrading,
		// and the follow-up UPGRADE never happens.
		e.lastReader = m.From
		oldOwner := e.owner
		e.owner = m.From
		e.needUnblock = true
		d.sendCtl(oldOwner, FwdGETX, m.Addr, m.From)
	case proto.DInvAndGrant:
		// An UPGRADE from a cache that has since been invalidated (a
		// raced, stale upgrade) is promoted to a GETX and answered with
		// data.
		e.upgradeOK = m.Type == UPGRADE && e.sharers.Has(m.From)
		others := e.sharers.Without(m.From)
		if others.None() {
			d.grantOwnership(e)
			return
		}
		// Invalidate every other sharer and collect acks before granting.
		e.pendingAck = others.Count()
		e.onAcksDone = d.ownFn
		a, from := m.Addr, m.From
		others.ForEach(func(id int) { d.sendCtl(id, Inv, a, from) })
	case proto.DDropSharer:
		e.sharers.Del(m.From)
	case proto.DWriteback:
		// Dirty writeback into the L2 bank.
		e.data = append(e.data[:0], m.Data...)
		e.hasData = true
		d.meter.L2Access()
		d.st.L2Accesses++
	case proto.DPutAckFinish:
		d.sendCtl(m.From, PutAck, m.Addr, m.From)
		d.finish(e)
	case proto.DEvict:
		d.evict(e, e.data)
	case proto.DInvEvict:
		// Invalidate every sharer and collect acks; the last one evicts.
		e.pendingAck = e.sharers.Count()
		e.onAcksDone = d.evictFn
		a := m.Addr
		e.sharers.ForEach(func(id int) { d.sendCtl(id, Inv, a, -1) })
		e.sharers = SharerSet{}
	case proto.DRecallEvict:
		// The owner's copy is authoritative: its RecallData evicts
		// (handleRecallData).
		d.sendCtl(e.owner, RecallOwn, m.Addr, -1)
	default:
		panic(fmt.Sprintf("dir %d: unknown action %v", d.id, a))
	}
}

// grantOwnership makes the requestor of the line's current transaction the
// owner once no other sharer is left: a still-valid UPGRADE gets its ack,
// anything else the data.
func (d *Directory) grantOwnership(e *dirLine) {
	m := e.cur
	if e.upgradeOK {
		d.sendCtl(m.From, UpgAck, m.Addr, m.From)
	} else {
		d.replyData(m.From, DataM, e, m.Addr)
	}
	e.owner = m.From
	e.sharers = SharerSet{}
	e.needUnblock = true
}

// finish completes the current transaction, recycling its request, and
// starts the next queued one.
func (d *Directory) finish(e *dirLine) {
	e.busy = false
	d.pool.Put(e.cur)
	e.cur = nil
	e.onAcksDone = nil
	e.needUnblock = false
	e.needData = false
	e.waiter = nil
	if len(e.queue) > 0 {
		// Pop by copying down, so the slice keeps its capacity for the
		// line's next burst of queued requests.
		next := e.queue[0]
		n := copy(e.queue, e.queue[1:])
		e.queue[n] = nil
		e.queue = e.queue[:n]
		d.begin(e, next)
	}
}

// maybeFinish completes the transaction once every outstanding response
// (unblock, owner writeback) has arrived.
func (d *Directory) maybeFinish(e *dirLine) {
	if !e.needUnblock && !e.needData {
		d.finish(e)
	}
}

// withData ensures the block's data is in the L2 bank (fetching from DRAM
// if needed, evicting a victim line first when the bank is full), then
// makes the grant e.grant names after the access latency. The line is busy
// until the transaction finishes, so the grant rides in the line itself and
// an L2 hit schedules the bound grantFn instead of a fresh closure.
func (d *Directory) withData(e *dirLine) {
	if e.hasData {
		d.meter.L2Access()
		d.st.L2Accesses++
		d.eng.AfterArg(L2Latency, d.grantFn, e)
		return
	}
	d.ensureSpace(e)
}

// fetch reads the block of e's current request from DRAM into the line; the
// channel calls fillFn when the data is there. Like the grant, the fill's
// context is the busy line, and the line's block buffer is one a dropped
// line left in bufs or the next of the slab, so a fill allocates only when
// it opens a new chunk.
func (d *Directory) fetch(e *dirLine) {
	bs := d.bs
	if n := len(d.bufs); n > 0 {
		e.data, d.bufs = d.bufs[n-1], d.bufs[:n-1]
	} else {
		if len(d.slab) == 0 {
			d.slab = make([]byte, lineChunk*bs)
		}
		e.data, d.slab = d.slab[:bs:bs], d.slab[bs:]
	}
	d.dram.ReadBlock(e.cur.Addr, e.data, d.fillFn, e)
}

// fillLine installs the block fetch asked for in the L2 bank and makes the
// grant that was waiting for it.
func (d *Directory) fillLine(arg any) {
	e := arg.(*dirLine)
	e.hasData = true
	d.resident = append(d.resident, e.cur.Addr)
	d.meter.L2Access() // fill write
	d.st.L2Accesses++
	d.grantLine(e)
}

// releaseData empties the line's L2 entry, keeping its block buffer — if it
// ever got one — for a later fill.
func (d *Directory) releaseData(e *dirLine) {
	if cap(e.data) >= d.bs {
		d.bufs = append(d.bufs, e.data[:d.bs])
	}
	e.data, e.hasData = nil, false
}

// grantLine sends the data grant a DGrant* action deferred behind
// withData, to the requestor of the line's current transaction.
func (d *Directory) grantLine(arg any) {
	e := arg.(*dirLine)
	m := e.cur
	switch e.grant {
	case proto.DGrantFreshS:
		d.replyData(m.From, DataS, e, m.Addr)
		e.sharers = SharerSetOf(m.From)
	case proto.DGrantFreshE:
		d.replyData(m.From, DataE, e, m.Addr)
		e.owner = m.From
	case proto.DGrantFreshM:
		d.replyData(m.From, DataM, e, m.Addr)
		e.owner = m.From
	case proto.DGrantSharedS:
		d.replyData(m.From, DataS, e, m.Addr)
		e.sharers.Add(m.From)
	}
	e.needUnblock = true
}

// ensureSpace evicts one victim line if the bank is at capacity, then
// fetches e's block; the victim's Evict row recalls its cached copies first
// (sharers invalidate, an owner surrenders its possibly dirty data). Victims
// that are busy (mid-transaction) are skipped; if nothing is evictable the
// bank briefly overflows rather than deadlocking.
func (d *Directory) ensureSpace(e *dirLine) {
	if d.cfg.CapacityBlocks <= 0 {
		d.fetch(e)
		return
	}
	d.compactResident()
	if len(d.resident) < d.cfg.CapacityBlocks {
		d.fetch(e)
		return
	}
	requesting := e.cur.Addr
	for tries := 0; tries < len(d.resident); tries++ {
		d.clock = (d.clock + 1) % len(d.resident)
		va := d.resident[d.clock]
		v := d.lines.get(va)
		if va == requesting || v == nil || !v.hasData || v.busy {
			continue
		}
		d.evictLine(va, v, e)
		return
	}
	// Every candidate is busy: allow a transient overflow.
	d.fetch(e)
}

// compactResident drops from the resident list the lines evictions have
// emptied since the last call, keeping the order of the rest. A line a
// writeback refilled in the meantime holds data again and stays listed.
func (d *Directory) compactResident() {
	for _, a := range d.dead {
		if d.lines.get(a).hasData {
			continue
		}
		if i := slices.Index(d.resident, a); i >= 0 {
			d.resident = slices.Delete(d.resident, i, i+1)
		}
	}
	d.dead = d.dead[:0]
}

// evictLine empties the victim line v at va for waiter's fetch: the victim
// goes busy with a record of its address as its current request, and its
// Evict row recalls the cached copies and writes the block back (evict).
func (d *Directory) evictLine(va mem.Addr, v *dirLine, waiter *dirLine) {
	v.busy = true
	v.waiter = waiter
	v.cur = d.pool.Get()
	v.cur.Type, v.cur.Addr = RecallOwn, va
	d.st.L2Recalls++
	d.dispatch(v, proto.EvEvict)
}

// evict completes the victim's eviction once its copies are recalled:
// data, the coherent block, goes back to DRAM, the line leaves the bank and
// goes idle, and the waiter's fetch starts.
func (d *Directory) evict(v *dirLine, data []byte) {
	va, waiter := v.cur.Addr, v.waiter
	d.dram.WriteBlock(va, data) // copies data, which may be v's buffer
	d.releaseData(v)
	d.dead = append(d.dead, va)
	d.finish(v) // unbusy and restart anything queued on the victim
	d.fetch(waiter)
}

// replyData sends a data grant to an L1 from the L2 copy.
func (d *Directory) replyData(l1 int, t MsgType, e *dirLine, a mem.Addr) {
	if !e.hasData {
		panic(fmt.Sprintf("dir %d: data grant without data for %#x", d.id, a))
	}
	m := d.pool.Get()
	m.Type, m.Addr, m.From, m.Requestor = t, a, d.id, l1
	m.Data = append(m.Data[:0], e.data...)
	d.send(noc.NodeID(l1), m)
}

// noteWrite feeds the migratory detector on a write-permission request: a
// write by the core that opened the current read generation extends the
// migratory streak; two streaks classify the block. A write by a different
// core (or a generation with multiple readers) resets the detector.
func (d *Directory) noteWrite(e *dirLine, writer int) {
	if !d.detect {
		return
	}
	if writer == e.lastReader && e.sharers.Count() <= 2 {
		e.generations++
		if e.generations >= 2 {
			e.migratory = true
		}
		return
	}
	if writer != e.lastReader {
		e.generations = 0
		e.migratory = false
	}
}

func (d *Directory) handleInvAck(e *dirLine, m *Msg) {
	if !e.busy || e.pendingAck <= 0 {
		panic(fmt.Sprintf("dir %d: stray InvAck for %#x", d.id, m.Addr))
	}
	e.pendingAck--
	if e.pendingAck == 0 {
		done := e.onAcksDone
		e.onAcksDone = nil
		done(e)
	}
}

func (d *Directory) handleDataToDir(e *dirLine, m *Msg) {
	if !e.busy || e.cur == nil || e.cur.Type != GETS {
		panic(fmt.Sprintf("dir %d: stray DataToDir for %#x", d.id, m.Addr))
	}
	// Owner downgrade on FwdGETS: the block becomes Shared by the old
	// owner and the requestor; L2 is refreshed with the owner's data.
	e.data = append(e.data[:0], m.Data...)
	e.hasData = true
	d.meter.L2Access()
	d.st.L2Accesses++
	e.sharers = SharerSetOf(m.From, e.cur.From)
	e.needData = false
	d.maybeFinish(e)
}

// handleRecallData completes an L2-capacity recall: the owner surrendered
// its (authoritative) copy, which the eviction writes back.
func (d *Directory) handleRecallData(e *dirLine, m *Msg) {
	if !e.busy || e.waiter == nil {
		panic(fmt.Sprintf("dir %d: stray RecallData for %#x", d.id, m.Addr))
	}
	d.evict(e, m.Data)
}

func (d *Directory) handleUnblock(e *dirLine, m *Msg) {
	if !e.busy || !e.needUnblock {
		panic(fmt.Sprintf("dir %d: stray Unblock for %#x", d.id, m.Addr))
	}
	e.needUnblock = false
	d.maybeFinish(e)
}

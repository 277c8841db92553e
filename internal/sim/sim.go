// Package sim provides the deterministic discrete-event engine underlying
// the Ghostwriter simulator.
//
// All hardware components (cache controllers, directories, the NoC, DRAM)
// schedule work on a single Engine. Events fire in (cycle, insertion-order)
// order, so a simulation is a pure function of its inputs: re-running a
// configuration reproduces every cycle count and every byte of output.
//
// The scheduler is a two-level hierarchical timing wheel: a cycle-granular
// wheel sized for the protocol's short fixed latencies (cache probes, link
// hops, DRAM), a second level of wheelSize-cycle epochs for far events such
// as the periodic GI sweep, whose slots cascade into the first level as
// their epoch comes due, and a typed min-heap for the rare event beyond the
// second level's horizon. Event records come from an intrusive free list
// and are recycled as they fire, so steady-state scheduling performs no
// heap allocation. See DESIGN.md §9 for the layout and the determinism
// argument.
package sim

import (
	"fmt"
	"math/bits"
)

// Cycle is a point in simulated time, measured in core clock cycles.
type Cycle uint64

// Event is a callback scheduled to run at a particular cycle.
type Event func()

const (
	wheelBits  = 8
	wheelSize  = 1 << wheelBits // wheel horizon in cycles; also the level-2 epoch length and slot count
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64 // occupancy bitmap words (either level)
	chunkSize  = 256            // free-list growth increment
)

// event is one scheduled callback. Exactly one of fn or h is set: fn for
// closure events (At/After), h+arg for pre-bound events (AtArg/AfterArg).
// next links wheel-slot FIFOs, far-slot stacks and the free list.
type event struct {
	at   Cycle
	seq  uint64
	fn   Event
	h    func(any)
	arg  any
	next *event
}

// bucket is one wheel slot: a FIFO of events all scheduled for the same
// cycle (within the horizon, exactly one cycle maps to each slot), so
// append order is seq order and no per-slot sorting is needed.
type bucket struct{ head, tail *event }

// farBucket is one level-2 slot: a stack, youngest (highest seq) on top,
// of events that all lie in the same wheelSize-cycle epoch, at any cycle
// of it. min is the earliest of those cycles, valid while the slot is
// occupied.
type farBucket struct {
	top *event
	min Cycle
}

// Engine is a deterministic discrete-event scheduler. The zero value is
// ready to use.
//
// An event is filed by its distance from the schedule-time clock, in three
// tiers:
//
//   - wheel: at < now+wheelSize goes to slot `at & wheelMask`.
//   - level 2: otherwise, if at's epoch (at >> wheelBits) is fewer than
//     wheelSize epochs past now's, to far slot `epoch & wheelMask`. Every
//     far event lies 0..wheelSize-1 epochs ahead of now (at least one when
//     filed), so each slot holds one epoch and the first occupied slot,
//     scanning circularly from now's epoch, holds the earliest far event.
//   - heap: anything farther, in a min-heap ordered by (at, seq).
//
// A far slot is cascaded into the wheel just before its earliest event
// would fire (see cascade); heap events are never migrated. For a given
// cycle T the tiers hold strictly older records the farther they are: a
// heap event at T was scheduled in an earlier epoch than any far event at
// T, and a far event at T while now ≤ T-wheelSize, a wheel-native event
// at T while now > T-wheelSize. Older means smaller seq, so taking ties
// heap first, then far slot, then wheel reproduces exact (at, seq) order.
type Engine struct {
	now   Cycle
	seq   uint64
	fired uint64

	slots      [wheelSize]bucket
	occ        [wheelWords]uint64 // occupancy bitmap over slots
	wheelCount int

	// far is the level-2 wheel, allocated with the engine's first far
	// event: an engine that never schedules that far ahead — the model
	// checker's, one per exploration and rewound between schedules — never
	// carries it. The bitmap stays in the engine, next to the fields every
	// schedule touches.
	far      *[wheelSize]farBucket
	farOcc   [wheelWords]uint64 // occupancy bitmap over far
	farCount int
	farMin   Cycle // earliest far event (the first occupied slot's min); valid while farCount > 0

	overflow []*event // min-heap on (at, seq), beyond the level-2 horizon
	free     *event   // intrusive free list of recycled records

	// minSched is the lowest cycle scheduled since the last takeMinSched
	// (noMinSched when none). The cluster's window scheduler uses it to
	// update its cached next-event cycle after a barrier without rescanning
	// the wheel: barrier handlers run while the engine is quiescent, so any
	// cycle they schedule is captured here.
	minSched Cycle
}

// noMinSched is minSched's "nothing scheduled" sentinel: the maximum
// cycle, unreachable by real events. NewCluster arms its engine with it; a
// standalone zero-valued Engine leaves minSched at 0, which is harmless
// because only the cluster reads the tracker.
const noMinSched = ^Cycle(0)

// takeMinSched returns the lowest cycle scheduled since the previous call
// (or noMinSched) and resets the tracker.
func (e *Engine) takeMinSched() Cycle {
	m := e.minSched
	e.minSched = noMinSched
	return m
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Fired returns the total number of events fired since construction (the
// denominator of the events/sec throughput metric).
func (e *Engine) Fired() uint64 { return e.fired }

// Reset rewinds a drained engine to cycle 0 with its sequence and fired
// counters zeroed, keeping the free list and the far array (and minSched,
// which is the cluster's to manage). A drained engine's slots,
// bitmaps and heap are already empty, so what runs next is
// indistinguishable from a run on a new engine (record identity never
// orders events). Resetting with events pending is a programming error and
// panics: their cycles would lie at the wrong distance from the rewound
// clock.
func (e *Engine) Reset() {
	if p := e.Pending(); p != 0 {
		panic(fmt.Sprintf("sim: Reset with %d events pending", p))
	}
	e.now, e.seq, e.fired = 0, 0, 0
}

// alloc takes a record from the free list, growing it a chunk at a time.
func (e *Engine) alloc() *event {
	if e.free == nil {
		chunk := make([]event, chunkSize)
		for i := range chunk[:chunkSize-1] {
			chunk[i].next = &chunk[i+1]
		}
		e.free = &chunk[0]
	}
	ev := e.free
	e.free = ev.next
	ev.next = nil
	return ev
}

// recycle zeroes a fired record (dropping its callback/arg references) and
// returns it to the free list.
func (e *Engine) recycle(ev *event) {
	*ev = event{next: e.free}
	e.free = ev
}

// schedule allocates, stamps, and enqueues a record for cycle at.
func (e *Engine) schedule(at Cycle) *event {
	if at < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past (event at cycle %d, now cycle %d)", at, e.now))
	}
	e.seq++
	if at < e.minSched {
		e.minSched = at
	}
	ev := e.alloc()
	ev.at = at
	ev.seq = e.seq
	switch {
	case at < e.now+wheelSize:
		s := int(at) & wheelMask
		b := &e.slots[s]
		if b.tail == nil {
			b.head, b.tail = ev, ev
			e.occ[s>>6] |= 1 << (s & 63)
		} else {
			b.tail.next = ev
			b.tail = ev
		}
		e.wheelCount++
	case at>>wheelBits-e.now>>wheelBits < wheelSize:
		if e.far == nil {
			e.far = new([wheelSize]farBucket)
		}
		s := int(at>>wheelBits) & wheelMask
		b := &e.far[s]
		if b.top == nil {
			b.min = at
			e.farOcc[s>>6] |= 1 << (s & 63)
		} else if at < b.min {
			b.min = at
		}
		ev.next = b.top
		b.top = ev
		if e.farCount == 0 || at < e.farMin {
			e.farMin = at
		}
		e.farCount++
	default:
		e.pushOverflow(ev)
	}
	return ev
}

// At schedules fn to run at cycle at. Scheduling in the past (at < Now) is a
// programming error and panics: hardware cannot act before the present.
func (e *Engine) At(at Cycle, fn Event) { e.schedule(at).fn = fn }

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn Event) { e.At(e.now+delay, fn) }

// AtArg schedules h(arg) at cycle at without capturing a closure: the
// handler and its argument ride in the event record itself, so hot paths
// with a stable handler (NoC delivery, controller dispatch) schedule with
// zero allocation. Pointer-shaped args avoid boxing.
func (e *Engine) AtArg(at Cycle, h func(any), arg any) {
	ev := e.schedule(at)
	ev.h = h
	ev.arg = arg
}

// AfterArg schedules h(arg) delay cycles from now.
func (e *Engine) AfterArg(delay Cycle, h func(any), arg any) { e.AtArg(e.now+delay, h, arg) }

// Pending reports the number of scheduled events not yet fired.
func (e *Engine) Pending() int { return e.wheelCount + e.farCount + len(e.overflow) }

// firstSet returns the first set bit of occ at or circularly after start.
// The caller guarantees one is set.
func firstSet(occ *[wheelWords]uint64, start int) int {
	wi := start >> 6
	w := occ[wi] &^ (1<<(start&63) - 1) // mask off slots before start
	for i := 0; i <= wheelWords; i++ {
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
		wi = (wi + 1) & (wheelWords - 1)
		w = occ[wi]
	}
	panic("sim: wheel count/bitmap mismatch")
}

// tier names where the next event waits.
type tier uint8

const (
	tierNone  tier = iota // nothing pending
	tierWheel             // head of a wheel slot
	tierFar               // in a far slot not yet cascaded
	tierHeap              // head of the overflow heap
)

// peek locates the next event to fire without touching any state: its
// cycle, its tier, and for the wheel and far tiers its slot.
//
// Wheel events always lie in [now, now+wheelSize): at ≥ now because events
// fire in order, at < now+wheelSize because the horizon only tightens as
// now advances past the insertion clock. Circular slot distance from now's
// slot therefore equals at-now, so the first occupied slot holds the
// minimum cycle. Ties between tiers go to the farther one, whose records
// are always older (see the Engine comment).
func (e *Engine) peek() (at Cycle, t tier, slot int) {
	if e.wheelCount > 0 {
		slot = firstSet(&e.occ, int(e.now)&wheelMask)
		at, t = e.slots[slot].head.at, tierWheel
	}
	if e.farCount > 0 && (t == tierNone || e.farMin <= at) {
		at, t, slot = e.farMin, tierFar, int(e.farMin>>wheelBits)&wheelMask
	}
	if len(e.overflow) > 0 && (t == tierNone || e.overflow[0].at <= at) {
		at, t = e.overflow[0].at, tierHeap
	}
	return at, t, slot
}

// next is peek for the paths that fire events: when the next event waits
// in a far slot and is due at or before limit, the slot is cascaded first
// and the event reported where it now sits, at the head of its wheel slot.
// A far event beyond limit is reported as tierFar and left alone (a
// cascade advances the clock, which RunTo must not carry past its
// deadline).
func (e *Engine) next(limit Cycle) (at Cycle, t tier, slot int) {
	at, t, slot = e.peek()
	if t == tierFar && at <= limit {
		e.cascade(slot)
		return at, tierWheel, int(at) & wheelMask
	}
	return at, t, slot
}

// noLimit is next's limit for callers that fire whatever comes next.
const noLimit = ^Cycle(0)

// cascade empties far slot s into the wheel. The caller has established
// that the slot's earliest event, at cycle b.min, is the next to fire, so
// no pending event precedes b.min and the clock can advance to it; every
// event of the slot then lies within [now, now+wheelSize) — one epoch is
// wheelSize cycles — which is the wheel invariant. Each record goes to the
// *front* of its wheel slot, ahead of the wheel-native events of its cycle
// (all younger: see the Engine comment); taking them off the stack
// youngest first leaves the cascaded records of one cycle in seq order
// among themselves. Events scheduled from here on append behind both
// groups.
func (e *Engine) cascade(s int) {
	b := &e.far[s]
	e.now = b.min
	n := 0
	for ev := b.top; ev != nil; n++ {
		nx := ev.next
		ws := int(ev.at) & wheelMask
		w := &e.slots[ws]
		ev.next = w.head
		w.head = ev
		if w.tail == nil {
			w.tail = ev
			e.occ[ws>>6] |= 1 << (ws & 63)
		}
		ev = nx
	}
	b.top = nil
	e.farOcc[s>>6] &^= 1 << (s & 63)
	e.farCount -= n
	e.wheelCount += n
	if e.farCount > 0 {
		e.farMin = e.far[firstSet(&e.farOcc, int(e.now>>wheelBits)&wheelMask)].min
	}
}

// NextAt peeks the cycle of the next event to fire without firing it. The
// window scheduler in Cluster uses it to skip empty lookahead windows.
func (e *Engine) NextAt() (Cycle, bool) {
	at, t, _ := e.peek()
	return at, t != tierNone
}

// pop removes and returns the globally next event in (at, seq) order, or
// nil when none are pending.
func (e *Engine) pop() *event {
	_, t, slot := e.next(noLimit)
	switch t {
	case tierNone:
		return nil
	case tierHeap:
		return e.popOverflow()
	}
	b := &e.slots[slot]
	ev := b.head
	b.head = ev.next
	if b.head == nil {
		b.tail = nil
		e.occ[slot>>6] &^= 1 << (slot & 63)
	}
	e.wheelCount--
	return ev
}

// Step fires the next event, advancing the clock to its cycle. It reports
// whether an event was fired (false when the queue is empty). The record
// is recycled before the callback runs, so callbacks may freely schedule.
func (e *Engine) Step() bool {
	ev := e.pop()
	if ev == nil {
		return false
	}
	e.now = ev.at
	e.fired++
	fn, h, arg := ev.fn, ev.h, ev.arg
	e.recycle(ev)
	if fn != nil {
		fn()
	} else {
		h(arg)
	}
	return true
}

// RunTo fires every event scheduled at or before deadline, then advances
// the clock to deadline. Events scheduled later stay queued. Use this to
// let in-flight activity settle for a bounded window without chasing
// periodic self-rescheduling events.
func (e *Engine) RunTo(deadline Cycle) { e.runTo(deadline) }

// runTo is RunTo fused with the follow-up NextAt: it fires every event at
// or before deadline with a single queue scan per event (Step via NextAt
// would scan twice), advances the clock to deadline, and returns the cycle
// of the next pending event. The window scheduler in Cluster drains each
// window through this, caching the returned cycle so empty windows are
// skipped without rescanning the queue.
func (e *Engine) runTo(deadline Cycle) (next Cycle, ok bool) {
	for {
		at, t, slot := e.next(deadline)
		if t == tierNone || at > deadline {
			if deadline > e.now {
				e.now = deadline
			}
			return at, t != tierNone
		}
		if t == tierHeap {
			ev := e.popOverflow()
			e.now = ev.at
			e.fired++
			fn, h, arg := ev.fn, ev.h, ev.arg
			e.recycle(ev)
			if fn != nil {
				fn()
			} else {
				h(arg)
			}
			continue
		}
		// Fire the slot's whole bucket without rescanning: within the
		// horizon exactly one cycle maps to each slot, so every event here
		// — including ones a callback appends mid-loop — is at cycle at,
		// and the farther tiers cannot interleave (their events are
		// strictly later: ties were taken above, and a callback can file
		// far or heap events only at or beyond now+wheelSize).
		b := &e.slots[slot]
		for {
			ev := b.head
			b.head = ev.next
			if b.head == nil {
				b.tail = nil
				e.occ[slot>>6] &^= 1 << (slot & 63)
			}
			e.wheelCount--
			e.now = ev.at
			e.fired++
			fn, h, arg := ev.fn, ev.h, ev.arg
			e.recycle(ev)
			if fn != nil {
				fn()
			} else {
				h(arg)
			}
			if b.head == nil {
				break
			}
		}
	}
}

// RunUntil fires events until the predicate returns true or the queue
// drains. It returns true if the predicate was satisfied.
func (e *Engine) RunUntil(done func() bool) bool {
	for !done() {
		if !e.Step() {
			return done()
		}
	}
	return true
}

// Drain fires events until the queue is empty, with a safety limit on the
// number of events to guard against livelock in a buggy model. It returns
// the number of events fired and whether the queue drained within the limit.
func (e *Engine) Drain(limit uint64) (fired uint64, drained bool) {
	for e.Pending() > 0 {
		if fired >= limit {
			return fired, false
		}
		e.Step()
		fired++
	}
	return fired, true
}

// Overflow min-heap on (at, seq), for events beyond the level-2 horizon.
// Hand-written to keep records typed — container/heap would box every push
// and pop through interface{}.

func overflowLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) pushOverflow(ev *event) {
	h := append(e.overflow, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !overflowLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.overflow = h
}

func (e *Engine) popOverflow() *event {
	h := e.overflow
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil // release the slot so recycled records aren't pinned
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && overflowLess(h[l], h[m]) {
			m = l
		}
		if r < n && overflowLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	e.overflow = h
	return ev
}

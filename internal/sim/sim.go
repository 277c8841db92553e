// Package sim provides the deterministic discrete-event engine underlying
// the Ghostwriter simulator.
//
// All hardware components (cache controllers, directories, the NoC, DRAM)
// schedule work on a single Engine. Events fire in (cycle, insertion-order)
// order, so a simulation is a pure function of its inputs: re-running a
// configuration reproduces every cycle count and every byte of output.
//
// The scheduler is a cycle-granular timing wheel whose horizon holds every
// latency and timer the machine arms (cache probes, link hops, DRAM, the
// periodic GI sweep), plus a typed min-heap for the rare event beyond it.
// Event records come from an intrusive free list and are recycled as they
// fire, so steady-state scheduling performs no heap allocation. See
// DESIGN.md §9 for the layout and the determinism argument.
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
	// wheelBits sizes the wheel: 2048 cycles is the smallest power of two
	// whose horizon holds everything the machine schedules under the
	// paper's configurations — the Table 1 GI sweep (1024 cycles), Fig.
	// 12's 128/512/1024-cycle periods, jpeg's 300-cycle compute fold, DRAM
	// queueing and the 200-cycle migration cost — so none of them reaches
	// the heap. A GI timeout of 2048 or more, or an adaptive period grown
	// past it, goes to the heap like any other beyond-horizon event.
	wheelBits  = 11
	wheelSize  = 1 << wheelBits // wheel horizon in cycles
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64 // occupancy bitmap words
	chunkSize  = 256            // free-list growth increment
)

// event is one scheduled callback, h(arg): AtArg/AfterArg store their
// handler and argument, At/After their func value as the argument of
// runEvent. next links wheel-slot FIFOs and the free list.
type event struct {
	at   Cycle
	seq  uint64
	h    func(any)
	arg  any
	next *event
}

// runEvent is the handler of every At/After event: a func value is
// pointer-shaped, so it rides in the record's argument without allocating.
func runEvent(fn any) { fn.(Event)() }

// bucket is one wheel slot: a FIFO of events all scheduled for the same
// cycle (within the horizon, exactly one cycle maps to each slot), so
// append order is seq order and no per-slot sorting is needed.
type bucket struct{ head, tail *event }

// Engine is a deterministic discrete-event scheduler. The zero value is
// ready to use.
//
// An event is filed by its distance from the schedule-time clock: at <
// now+wheelSize goes to wheel slot `at & wheelMask`, anything farther to a
// min-heap ordered by (at, seq). Heap events are never migrated. For a
// given cycle T the two insertion windows are disjoint: a heap event at T
// was scheduled while now ≤ T-wheelSize, a wheel event at T while now >
// T-wheelSize, so every heap record at T is older (smaller seq) than every
// wheel record at T, and taking ties heap first reproduces exact (at, seq)
// order.
type Engine struct {
	now   Cycle
	seq   uint64
	fired uint64

	slots      [wheelSize]bucket
	occ        [wheelWords]uint64 // occupancy bitmap over slots
	wheelCount int

	overflow []*event // min-heap on (at, seq), beyond the wheel horizon
	free     *event   // intrusive free list of recycled records
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Fired returns the total number of events fired since construction (the
// denominator of the events/sec throughput metric).
func (e *Engine) Fired() uint64 { return e.fired }

// Reset rewinds a drained engine to cycle 0 with its sequence and fired
// counters zeroed, keeping the free list and the heap's backing array. A
// drained engine's slots, bitmap and heap are already empty, so what runs
// next is indistinguishable from a run on a new engine (record identity
// never orders events). Resetting with events pending is a programming
// error and panics: their cycles would lie at the wrong distance from the
// rewound clock.
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
	ev := e.alloc()
	ev.at = at
	ev.seq = e.seq
	if at >= e.now+wheelSize {
		e.pushOverflow(ev)
		return ev
	}
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
	return ev
}

// At schedules fn to run at cycle at. Scheduling in the past (at < Now) is a
// programming error and panics: hardware cannot act before the present.
func (e *Engine) At(at Cycle, fn Event) { e.AtArg(at, runEvent, fn) }

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
func (e *Engine) Pending() int { return e.wheelCount + len(e.overflow) }

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

// front is a peeked queue position: the next event's cycle, and whether it
// heads the heap or else which wheel slot holds it; ok is false when
// nothing is pending. It stays the queue's front until something is
// scheduled.
type front struct {
	at   Cycle
	slot int
	heap bool
	ok   bool
}

// peek locates the next event to fire without touching any state.
//
// Wheel events always lie in [now, now+wheelSize): at ≥ now because events
// fire in order, at < now+wheelSize because the horizon only tightens as
// now advances past the insertion clock. Circular slot distance from now's
// slot therefore equals at-now, so the first occupied slot holds the
// minimum cycle. A tie goes to the heap, whose records are always older
// (see the Engine comment).
func (e *Engine) peek() front {
	var h front
	if e.wheelCount > 0 {
		h.slot = firstSet(&e.occ, int(e.now)&wheelMask)
		h.at, h.ok = e.slots[h.slot].head.at, true
	}
	if len(e.overflow) > 0 && (!h.ok || e.overflow[0].at <= h.at) {
		h.at, h.heap, h.ok = e.overflow[0].at, true, true
	}
	return h
}

// take removes and returns the head of wheel slot slot.
func (e *Engine) take(slot int) *event {
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

// fire advances the clock to ev's cycle and runs it. The record is
// recycled before the callback runs, so callbacks may freely schedule.
func (e *Engine) fire(ev *event) {
	e.now = ev.at
	e.fired++
	h, arg := ev.h, ev.arg
	e.recycle(ev)
	h(arg)
}

// Step fires the next event, advancing the clock to its cycle. It reports
// whether an event was fired (false when the queue is empty).
func (e *Engine) Step() bool {
	switch h := e.peek(); {
	case !h.ok:
		return false
	case h.heap:
		e.fire(e.popOverflow())
	default:
		e.fire(e.take(h.slot))
	}
	return true
}

// RunTo fires every event scheduled at or before deadline, then advances
// the clock to deadline. Events scheduled later stay queued. Use this to
// let in-flight activity settle for a bounded window without chasing
// periodic self-rescheduling events.
func (e *Engine) RunTo(deadline Cycle) { e.runTo(e.peek(), deadline) }

// runTo is RunTo from h, the queue's front as last peeked, and returns the
// front it stopped at: one queue scan per cycle fired, and the last one is
// the window scheduler's next front (Cluster.stepFast), valid until
// something is scheduled.
func (e *Engine) runTo(h front, deadline Cycle) front {
	for h.ok && h.at <= deadline {
		if h.heap {
			// Rare: nothing the machine schedules reaches past the wheel.
			e.fire(e.popOverflow())
			h = e.peek()
			continue
		}
		// Fire the slot's whole bucket without rescanning: within the
		// horizon exactly one cycle maps to each slot, so every event here
		// — including ones a callback appends mid-loop — is at cycle h.at,
		// and the heap cannot interleave (its events at this cycle fired
		// first, and a callback files heap events only at or beyond
		// now+wheelSize). The loop body is fire, inlined by hand: the
		// compiler will not (it is over the inlining budget), and this loop
		// fires nearly every event a machine runs.
		for e.slots[h.slot].head != nil {
			ev := e.take(h.slot)
			e.now = ev.at
			e.fired++
			fn, arg := ev.h, ev.arg
			e.recycle(ev)
			fn(arg)
		}
		h = e.peek()
	}
	// Moving the clock up to deadline keeps h the front: every pending
	// event lies past deadline.
	if deadline > e.now {
		e.now = deadline
	}
	return h
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

// Overflow min-heap on (at, seq), for events beyond the wheel horizon.
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

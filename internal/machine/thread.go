package machine

import (
	"fmt"
	"iter"

	"ghostwriter/internal/approx"
	"ghostwriter/internal/coherence"
	"ghostwriter/internal/mem"
	"ghostwriter/internal/sim"
)

// Kernel is the body of one simulated thread. Kernels interact with the
// simulated machine exclusively through the Thread API; host-side state
// must be per-thread (or read-only) for the simulation to stay
// deterministic.
type Kernel func(t *Thread)

type reqKind uint8

const (
	reqMem reqKind = iota
	reqBarrier
	reqMigrate
	reqSync
	reqDone
)

// threadReq is one kernel→engine request, yielded by the thread's coroutine
// and received by Machine.issue. fold carries the compute cycles
// accumulated since the previous request (Thread.Compute is folded into the
// next request rather than round-tripping through the engine): the engine
// advances the core by fold cycles before applying the request, which is
// cycle-for-cycle identical to a separate compute step.
type threadReq struct {
	kind  reqKind
	op    coherence.OpKind
	addr  mem.Addr
	width int
	value uint64
	d     int
	n     uint64
	fold  uint64
}

// migrationCost is the charged context-switch overhead in cycles.
const migrationCost = 200

// Thread is the simulated-thread handle passed to kernels. Each thread runs
// pinned to one core (until Migrate); memory operations block in program
// order, exactly like the paper's in-order cores.
type Thread struct {
	id       int
	core     int
	nthreads int
	m        *Machine
	ddist    int
	pending  uint64 // kernel-side compute cycles awaiting the next request
	barrier  bool
	done     bool

	// Per-thread utilization accounting (CoreReport).
	ops          uint64
	memCycles    sim.Cycle
	computeCyc   sim.Cycle
	barrierSince sim.Cycle
	barrierCyc   sim.Cycle
	finish       sim.Cycle

	// Reusable memory-op record and its issue timestamp: the core is
	// blocking, so one record per thread suffices and the hot path builds
	// no per-op allocation.
	op       coherence.CoreOp
	issuedAt sim.Cycle
	// hold parks a request whose folded compute cycles are still elapsing;
	// applyFn applies it when they have. One slot suffices: the core is
	// blocking, so at most one request is in flight.
	hold threadReq
	// The kernel runs as a coroutine of the engine (iter.Pull): it yields
	// one request at a time, Machine.issue resumes it with next, and it
	// finds the outcome of its previous request in result.
	yield  func(threadReq) bool
	next   func() (threadReq, bool)
	result uint64
	// Callbacks bound once per run.
	doneFn  func(uint64)
	issueFn sim.Event
	applyFn sim.Event
}

// kernelStopped is the panic that unwinds a kernel parked in yield when Run
// exits without it (another thread or the model panicked); the coroutine
// wrapper in Run recovers it.
type kernelStopped struct{}

// call hands one request to the engine, with the compute cycles accumulated
// since the previous one folded in, parks the kernel until the engine has
// carried it out, and returns its result.
func (t *Thread) call(r threadReq) uint64 {
	r.fold, t.pending = t.pending, 0
	if !t.yield(r) {
		panic(kernelStopped{})
	}
	return t.result
}

// ID returns the thread's index in [0, N).
func (t *Thread) ID() int { return t.id }

// N returns the number of threads in the running kernel.
func (t *Thread) N() int { return t.nthreads }

// SetApproxDist programs this core's scribe comparator with a new
// d-distance (the paper's setaprx instruction). A negative d disables
// approximation (endaprx): subsequent scribbles execute as plain stores.
// Reprogramming costs one cycle; the paper advises using it sparingly.
func (t *Thread) SetApproxDist(d int) {
	t.ddist = d
	t.Compute(1)
}

// ApproxDist returns the core's current d-distance (-1 when disabled).
func (t *Thread) ApproxDist() int { return t.ddist }

// Migrate moves the thread to another core, modelling an OS migration.
// Per §3.5 of the paper, approximate blocks cannot move with the thread:
// the old core's GS/GI copies keep their hidden updates locally, but the
// thread now runs against a cold cache, so those updates are effectively
// forfeited from its point of view. The target core must not be running
// another live thread. Migration charges a fixed context-switch cost.
func (t *Thread) Migrate(core int) {
	t.call(threadReq{kind: reqMigrate, n: uint64(core)})
}

// Core returns the core the thread currently runs on.
func (t *Thread) Core() int { return t.core }

// Compute charges n core cycles of non-memory work. The cycles are
// accumulated kernel-side and folded into the thread's next request (memory
// op, barrier, migration, or completion), which the engine then delays by
// exactly that many cycles — cycle-for-cycle what a separate engine
// round-trip per Compute would simulate, without the host-side handshake.
func (t *Thread) Compute(n uint64) { t.pending += n }

// Barrier blocks until every live thread has reached a barrier.
func (t *Thread) Barrier() {
	t.call(threadReq{kind: reqBarrier})
}

// Sync blocks until every prior operation of this thread — folded compute
// cycles included — has taken effect in the simulator, at zero simulated
// cost: the next operation issues on exactly the cycle it would have without
// the Sync. A kernel only ever runs while its tile's engine waits for its
// next request, so between Sync and the next Thread call the tile is
// quiescent at the cycle of the Sync, which is what test kernels need to
// peek at cache or statistics state mid-run.
func (t *Thread) Sync() {
	t.call(threadReq{kind: reqSync})
}

func (t *Thread) mem(op coherence.OpKind, a mem.Addr, width int, v uint64) uint64 {
	d := t.ddist
	if op == coherence.OpScribble {
		// The compiler legality rule of §3.1: the d-distance must be
		// strictly below the access width, otherwise any value could be
		// scribbled ("an undesirable level of approximation").
		d = min(d, approx.MaxLegalDistance(approx.Width(8*width)))
	}
	return t.call(threadReq{kind: reqMem, op: op, addr: a, width: width, value: v, d: d})
}

// Load8 loads one byte.
func (t *Thread) Load8(a mem.Addr) uint8 { return uint8(t.mem(coherence.OpLoad, a, 1, 0)) }

// Load16 loads a 16-bit value.
func (t *Thread) Load16(a mem.Addr) uint16 { return uint16(t.mem(coherence.OpLoad, a, 2, 0)) }

// Load32 loads a 32-bit value.
func (t *Thread) Load32(a mem.Addr) uint32 { return uint32(t.mem(coherence.OpLoad, a, 4, 0)) }

// Load64 loads a 64-bit value.
func (t *Thread) Load64(a mem.Addr) uint64 { return t.mem(coherence.OpLoad, a, 8, 0) }

// Store8 stores one byte.
func (t *Thread) Store8(a mem.Addr, v uint8) { t.mem(coherence.OpStore, a, 1, uint64(v)) }

// Store16 stores a 16-bit value.
func (t *Thread) Store16(a mem.Addr, v uint16) { t.mem(coherence.OpStore, a, 2, uint64(v)) }

// Store32 stores a 32-bit value.
func (t *Thread) Store32(a mem.Addr, v uint32) { t.mem(coherence.OpStore, a, 4, uint64(v)) }

// Store64 stores a 64-bit value.
func (t *Thread) Store64(a mem.Addr, v uint64) { t.mem(coherence.OpStore, a, 8, v) }

// Scribble8 issues an approximate byte store (the scribble instruction).
func (t *Thread) Scribble8(a mem.Addr, v uint8) { t.mem(coherence.OpScribble, a, 1, uint64(v)) }

// Scribble16 issues an approximate 16-bit store.
func (t *Thread) Scribble16(a mem.Addr, v uint16) { t.mem(coherence.OpScribble, a, 2, uint64(v)) }

// Scribble32 issues an approximate 32-bit store.
func (t *Thread) Scribble32(a mem.Addr, v uint32) { t.mem(coherence.OpScribble, a, 4, uint64(v)) }

// Scribble64 issues an approximate 64-bit store.
func (t *Thread) Scribble64(a mem.Addr, v uint64) { t.mem(coherence.OpScribble, a, 8, v) }

// FetchAdd32 atomically adds delta to the 32-bit value at a and returns
// the previous value. Atomics always use the conventional protocol —
// synchronization data must never be approximated (§3.1).
func (t *Thread) FetchAdd32(a mem.Addr, delta uint32) uint32 {
	return uint32(t.mem(coherence.OpAtomicAdd, a, 4, uint64(delta)))
}

// FetchAdd64 atomically adds delta to the 64-bit value at a and returns
// the previous value.
func (t *Thread) FetchAdd64(a mem.Addr, delta uint64) uint64 {
	return t.mem(coherence.OpAtomicAdd, a, 8, delta)
}

// LoadF32 loads a float32.
func (t *Thread) LoadF32(a mem.Addr) float32 {
	return approx.Float32FromBits(uint64(t.Load32(a)))
}

// StoreF32 stores a float32.
func (t *Thread) StoreF32(a mem.Addr, v float32) {
	t.Store32(a, uint32(approx.Float32Bits(v)))
}

// ScribbleF32 issues an approximate float32 store; d-distance constrains the
// low mantissa bits of the IEEE-754 pattern.
func (t *Thread) ScribbleF32(a mem.Addr, v float32) {
	t.Scribble32(a, uint32(approx.Float32Bits(v)))
}

// LoadF64 loads a float64.
func (t *Thread) LoadF64(a mem.Addr) float64 {
	return approx.Float64FromBits(t.Load64(a))
}

// StoreF64 stores a float64.
func (t *Thread) StoreF64(a mem.Addr, v float64) {
	t.Store64(a, approx.Float64Bits(v))
}

// ScribbleF64 issues an approximate float64 store.
func (t *Thread) ScribbleF64(a mem.Addr, v float64) {
	t.Scribble64(a, approx.Float64Bits(v))
}

// eng returns the engine of the tile a thread currently runs on.
func (t *Thread) eng() *sim.Engine { return t.m.clu.Tile(t.core) }

// Run executes kernel on nthreads simulated threads (thread i pinned to
// core i) until all of them return, then drains in-flight protocol traffic.
// It returns the elapsed simulated cycles. Kernels run as coroutines of the
// engine, never concurrently with their own tile: a panic in a kernel
// surfaces from Run on the caller's goroutine like any model panic, and no
// kernel outlives Run on any exit path.
func (m *Machine) Run(nthreads int, kernel Kernel) uint64 {
	if nthreads <= 0 || nthreads > m.cfg.Cores {
		panic(fmt.Sprintf("machine: %d threads on %d cores", nthreads, m.cfg.Cores))
	}
	m.threads = m.threads[:0]
	for i := 0; i < nthreads; i++ {
		t := &Thread{
			id:       i,
			core:     i,
			nthreads: nthreads,
			m:        m,
			ddist:    -1,
		}
		next, stop := iter.Pull(func(yield func(threadReq) bool) {
			t.yield = yield
			defer func() {
				if r := recover(); r != nil && r != (kernelStopped{}) {
					panic(r)
				}
			}()
			kernel(t)
		})
		// Deferred per thread, to run when Run exits: unwinds a kernel that
		// a panic elsewhere left parked in yield.
		defer stop()
		t.next = next
		t.issueFn = func() { m.issue(t) }
		t.doneFn = func(v uint64) {
			t.ops++
			eng := t.eng()
			t.memCycles += eng.Now() - t.issuedAt
			t.result = v
			eng.After(1, t.issueFn)
		}
		t.applyFn = func() { m.apply(t, t.hold) }
		m.threads = append(m.threads, t)
	}
	m.active = nthreads
	m.arrived = 0
	for _, l := range m.l1s {
		l.StartSweep()
	}
	start := m.clu.Now()
	for _, t := range m.threads {
		t.eng().After(0, t.issueFn)
	}
	m.clu.RunUntil(func() bool { return m.active == 0 })
	// The run ends when the last thread finishes (recorded at its done
	// request); the drain below only retires in-flight protocol stragglers
	// and disarmed GI sweeps, whose event timestamps must not count as
	// execution time.
	var end sim.Cycle
	for _, t := range m.threads {
		if t.finish > end {
			end = t.finish
		}
	}
	for _, l := range m.l1s {
		l.Stop()
	}
	if _, drained := m.clu.Drain(100_000_000); !drained {
		panic("machine: protocol failed to drain after run")
	}
	m.clu.Align()
	elapsed := uint64(end - start)
	m.lastCycles = uint64(end)
	m.lastEvents = m.clu.Fired()
	return elapsed
}

// Thread-request kinds staged for the window-barrier merge. Done, barrier,
// and migration requests touch machine-global state (the live-thread
// count, the barrier roster, other threads' core assignments), so they
// are applied only at the merge, in canonical order. The low aux byte
// selects the kind; a migration target rides in the high bits.
const (
	auxThreadDone uint64 = iota
	auxThreadBarrier
	auxThreadMigrate
)

// issue resumes the thread's kernel until it yields its next request; this
// is the strict engine ↔ kernel handoff that keeps the simulation
// deterministic, and a direct coroutine switch on the host. The kernel
// returning is its done request. issue runs as an event of the thread's
// current tile, so it (and the kernel) may touch the thread and the tile
// freely but machine-global thread state only via staging. A request
// carrying folded compute cycles is parked and applied once they elapse,
// reproducing the timing of a separate compute step exactly.
func (m *Machine) issue(t *Thread) {
	r, ok := t.next()
	if !ok {
		r = threadReq{kind: reqDone, fold: t.pending}
	}
	if r.fold > 0 {
		t.computeCyc += sim.Cycle(r.fold)
		t.hold = r
		t.eng().After(sim.Cycle(r.fold), t.applyFn)
		return
	}
	m.apply(t, r)
}

// apply executes a request whose folded compute cycles (if any) have
// elapsed. It runs on the thread's current tile at the cycle the request
// takes effect.
func (m *Machine) apply(t *Thread, r threadReq) {
	switch r.kind {
	case reqMem:
		t.issuedAt = t.eng().Now()
		t.op = coherence.CoreOp{
			Kind:  r.op,
			Addr:  r.addr,
			Width: r.width,
			Value: r.value,
			DDist: r.d,
			Done:  t.doneFn,
		}
		m.l1s[t.core].Access(&t.op)
	case reqMigrate:
		target := int(r.n)
		if target < 0 || target >= m.cfg.Cores {
			panic(fmt.Sprintf("machine: migration to invalid core %d", target))
		}
		m.clu.Stage(t.core, m.threadMergeFn, t, auxThreadMigrate|uint64(target)<<8)
	case reqBarrier:
		t.barrier = true
		t.barrierSince = t.eng().Now()
		m.clu.Stage(t.core, m.threadMergeFn, t, auxThreadBarrier)
	case reqSync:
		// Everything the thread issued earlier has completed (requests are
		// applied one at a time); take its next request at the same cycle.
		m.issue(t)
	case reqDone:
		t.done = true
		t.finish = t.eng().Now()
		m.clu.Stage(t.core, m.threadMergeFn, t, auxThreadDone)
	}
}

// threadMerge applies a staged done/barrier/migration request at the
// window barrier, with the engine quiescent; panics (such as
// migration-target violations) surface from Run.
func (m *Machine) threadMerge(at sim.Cycle, arg any, aux uint64) {
	t := arg.(*Thread)
	switch aux & 0xff {
	case auxThreadDone:
		m.active--
		m.releaseBarrier(at)
	case auxThreadBarrier:
		m.arrived++
		m.releaseBarrier(at)
	case auxThreadMigrate:
		target := int(aux >> 8)
		for _, u := range m.threads {
			if u != t && u.core == target && !u.done {
				panic(fmt.Sprintf("machine: core %d already runs thread %d", target, u.id))
			}
		}
		t.core = target
		// Resume on the new core's tile. The migration cost dwarfs the
		// lookahead window (checked at construction), so the resume cycle
		// is always at or past the merge horizon.
		m.clu.Tile(t.core).At(at+migrationCost, t.issueFn)
	}
}

// releaseBarrier releases all waiting threads once every live thread has
// arrived. at is the cycle of the staged request that completed the
// barrier; the released threads re-issue at the start of the next window.
func (m *Machine) releaseBarrier(at sim.Cycle) {
	if m.active == 0 || m.arrived < m.active {
		return
	}
	m.arrived = 0
	for _, u := range m.threads {
		if !u.barrier {
			continue
		}
		u.barrier = false
		u.barrierCyc += at - u.barrierSince
		// Schedule at the merge horizon, the first cycle of the next
		// window; the clock still reads the last cycle of the drained one.
		u.eng().At(m.clu.Horizon(), u.issueFn)
	}
}

package machine

import (
	"fmt"
	"iter"
	"strings"
	"sync"

	"ghostwriter/internal/approx"
	"ghostwriter/internal/coherence"
	"ghostwriter/internal/mem"
	"ghostwriter/internal/sim"
)

// Kernel is the body of one simulated thread. Kernels interact with the
// simulated machine exclusively through the Thread API; host-side state
// must be per-thread (or read-only) for the simulation to stay
// deterministic. Every request a kernel makes joins its thread's one queue,
// which the simulator applies in program order. A kernel may run ahead of
// the simulator past the stores and scribbles it has queued (see Store8),
// but never past a request whose outcome it reads, so what it observes of
// the machine — load and atomic values, and machine state peeked after
// Sync — is what an in-order core blocking on every operation would see.
// A load of a word that no thread writes during the run may be declared
// constant (see LoadConst8); the kernel then runs past it too.
type Kernel func(t *Thread)

type reqKind uint8

const (
	reqMem reqKind = iota
	reqBarrier
	reqMigrate
	reqSync
	reqDone
	reqConst // a load of a word declared constant, carrying its value
)

// threadReq is one kernel→engine request, queued on the thread's ring and
// applied by Machine.issue. fold carries the compute cycles accumulated
// since the previous request (Thread.Compute is folded into the next
// request rather than round-tripping through the engine): the request waits
// at the ring head for fold cycles before it is applied, which is
// cycle-for-cycle identical to a separate compute step.
// The record is kept at 32 bytes, since every thread carries ringCap of
// them: value holds a store's value, a constant load's preloaded value or
// a migration's target core, and d is the d-distance clamped to [-1, 127],
// which changes no outcome (a scribble's is already clamped below its
// width in bits, and other requests read only its sign).
type threadReq struct {
	addr  mem.Addr
	value uint64
	fold  uint64
	kind  reqKind
	op    coherence.OpKind
	width uint8
	d     int8
}

// ringCap is the number of queued requests a thread holds before it parks
// to let the engine apply them. Of 4, 8 and 16, 16 ran cell_hits fastest
// (EXPERIMENTS.md); it costs 512 bytes per thread.
const ringCap = 16

// migrationCost is the charged context-switch overhead in cycles.
const migrationCost = 200

// Thread is the simulated-thread handle passed to kernels. Each thread runs
// pinned to one core (until Migrate); its memory operations take effect one
// at a time in program order, exactly like the paper's in-order blocking
// cores. Loads and atomics return once the simulator has carried them out;
// stores, scribbles and constant loads are posted, and the kernel runs on
// (see Store8 and LoadConst8).
type Thread struct {
	id       int
	core     int
	nthreads int
	m        *Machine
	ddist    int
	pending  uint64 // kernel-side compute cycles awaiting the next request
	barrier  bool
	done     bool
	head, n  uint8 // the queued requests in ring

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
	// The kernel runs on its worker's coroutine (iter.Pull): it queues its
	// requests in ring and parks in yield, Machine.issue resumes it with
	// next once the ring is empty, and it finds the outcome of its last
	// request in result.
	yield  func(struct{}) bool
	next   func() (struct{}, bool)
	result uint64
	// Callbacks bound once per worker; they reach the machine through m.
	doneFn  func(uint64)
	constFn func(uint64) // doneFn of a constant load, which checks its value
	issueFn sim.Event
	// ring is the thread's one request queue: n requests the engine has yet
	// to apply, the oldest at ring[head].
	ring [ringCap]threadReq
	// resumes counts the coroutine switches into the kernel. It is
	// host-side bookkeeping for the handoff's own tests, never a statistic.
	resumes int
}

// kernelStopped is the panic that unwinds a kernel parked in yield when Run
// exits without it (another thread or the model panicked); the worker's
// coroutine body recovers it.
type kernelStopped struct{}

// worker is one kernel coroutine and the thread record it serves. Its body
// loops: run the assigned kernel, queue the done request (behind any posted
// stores, the kernel's trailing compute folded in), and park until a later
// Run resumes it with the next kernel. The coroutine and the two callbacks
// are built once per worker, not once per Run.
type worker struct {
	Thread
	kernel Kernel
	stop   func()
}

// parked is the process-wide free list of workers between Runs. Systems run
// concurrently (a sweep simulates cells on several goroutines), so a mutex
// guards it. A parked worker holds no kernel and no machine.
var parked struct {
	sync.Mutex
	free []*worker
}

// maxParked caps the free list at the largest interconnect a machine can
// build (noc's 4 096 nodes); a worker returned beyond it is stopped.
const maxParked = 4096

// newWorker builds a worker whose coroutine has not started; the first
// next runs the kernel Run assigned it.
func newWorker() *worker {
	w := &worker{}
	t := &w.Thread
	t.next, w.stop = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		defer func() {
			if r := recover(); r != nil && r != (kernelStopped{}) {
				panic(r)
			}
		}()
		for {
			w.kernel(t)
			t.call(reqDone, 0, 0, 0, 0)
		}
	})
	t.issueFn = func() { t.m.issue(t) }
	t.doneFn = func(v uint64) {
		t.ops++
		eng := t.m.eng
		t.memCycles += eng.Now() - t.issuedAt
		t.result = v
		eng.After(1, t.issueFn)
	}
	// A constant load's op carries the value the kernel took at its push (a
	// load ignores Value), so a word the run did write fails here, loudly,
	// instead of letting the kernel compute on a value the core never saw.
	t.constFn = func(v uint64) {
		if v != t.op.Value {
			panic(fmt.Sprintf("machine: thread %d on core %d loaded %#x as a constant: it read %#x, but the word holds %#x",
				t.id, t.core, uint64(t.op.Addr), t.op.Value, v))
		}
		t.doneFn(v)
	}
	return w
}

// takeWorkers appends n workers to ws, parked ones first.
func takeWorkers(ws []*worker, n int) []*worker {
	parked.Lock()
	k := min(n, len(parked.free))
	rest := len(parked.free) - k
	ws = append(ws, parked.free[rest:]...)
	clear(parked.free[rest:])
	parked.free = parked.free[:rest]
	parked.Unlock()
	for ; k < n; k++ {
		ws = append(ws, newWorker())
	}
	return ws
}

// parkWorkers returns workers whose kernels have all returned to the free
// list, stopping any beyond its cap.
func parkWorkers(ws []*worker) {
	for _, w := range ws {
		w.kernel, w.m = nil, nil
	}
	parked.Lock()
	k := min(len(ws), maxParked-len(parked.free))
	parked.free = append(parked.free, ws[:k]...)
	parked.Unlock()
	for _, w := range ws[k:] {
		w.stop()
	}
}

// call queues a request whose outcome the kernel needs behind any posted
// ones, parks the kernel until the engine has applied them all, and returns
// the request's result.
func (t *Thread) call(kind reqKind, op coherence.OpKind, a mem.Addr, width int, v uint64) uint64 {
	t.push(t.req(kind, op, a, width, v))
	t.park()
	return t.result
}

// post queues a store or scribble, whose outcome the kernel does not read,
// and lets the kernel run on; only a full ring makes it wait for the engine.
func (t *Thread) post(op coherence.OpKind, a mem.Addr, width int, v uint64) {
	t.push(t.req(reqMem, op, a, width, v))
	if t.n == ringCap {
		t.park()
	}
}

// park switches to the engine, which applies every queued request and
// resumes the kernel once the ring is empty.
func (t *Thread) park() {
	if !t.yield(struct{}{}) {
		panic(kernelStopped{})
	}
}

// req builds a request at the core's current d-distance, with the compute
// cycles accumulated since the previous request folded in.
func (t *Thread) req(kind reqKind, op coherence.OpKind, a mem.Addr, width int, v uint64) threadReq {
	d := t.ddist
	if op == coherence.OpScribble {
		// The compiler legality rule of §3.1: the d-distance must be
		// strictly below the access width, otherwise any value could be
		// scribbled ("an undesirable level of approximation").
		d = min(d, approx.MaxLegalDistance(approx.Width(8*width)))
	}
	r := threadReq{
		kind: kind, op: op, addr: a, width: uint8(width), value: v,
		d: int8(max(min(d, 127), -1)), fold: t.pending,
	}
	t.pending = 0
	return r
}

// push appends r to the ring.
func (t *Thread) push(r threadReq) {
	t.ring[(t.head+t.n)%ringCap] = r
	t.n++
}

// pop removes and returns the oldest request in the ring.
func (t *Thread) pop() threadReq {
	r := t.ring[t.head]
	t.head = (t.head + 1) % ringCap
	t.n--
	return r
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
	t.call(reqMigrate, 0, 0, 0, uint64(core))
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
	t.call(reqBarrier, 0, 0, 0, 0)
}

// Sync blocks until every prior operation of this thread — posted stores
// and scribbles and folded compute cycles included — has taken effect in
// the simulator, at zero simulated cost: the next operation issues on
// exactly the cycle it would have without the Sync. A kernel resumed from a
// blocking call runs while the engine waits for its next request, so
// between Sync and the next Thread call the machine is quiescent at the
// cycle of the Sync, which is what test kernels need to peek at cache or
// statistics state mid-run.
func (t *Thread) Sync() {
	t.call(reqSync, 0, 0, 0, 0)
}

// Load8 loads one byte.
func (t *Thread) Load8(a mem.Addr) uint8 { return uint8(t.call(reqMem, coherence.OpLoad, a, 1, 0)) }

// Load16 loads a 16-bit value.
func (t *Thread) Load16(a mem.Addr) uint16 { return uint16(t.call(reqMem, coherence.OpLoad, a, 2, 0)) }

// Load32 loads a 32-bit value.
func (t *Thread) Load32(a mem.Addr) uint32 { return uint32(t.call(reqMem, coherence.OpLoad, a, 4, 0)) }

// Load64 loads a 64-bit value.
func (t *Thread) Load64(a mem.Addr) uint64 { return t.call(reqMem, coherence.OpLoad, a, 8, 0) }

// loadConst takes the width-byte word at a from the backing store, queues
// a load of it that carries the value, and returns the value; like post,
// it waits for the engine only when the ring is full.
func (t *Thread) loadConst(a mem.Addr, width int) uint64 {
	v := t.m.backing.ReadUint(a, width)
	t.push(t.req(reqConst, coherence.OpLoad, a, width, v))
	if t.n == ringCap {
		t.park()
	}
	return v
}

// LoadConst8 loads one byte that no thread writes during the run: the
// kernel's own input, preloaded before Run and only ever read. The value
// is known when the kernel asks for it, so the load is posted like a store
// (see Store8) and the kernel runs on, while the simulator carries out
// exactly the load Load8 would, at the same cycle. At its completion the
// simulator compares what the core loaded with the value the kernel took;
// a word the run did write makes Run panic, naming the thread, its core,
// the address and both values.
func (t *Thread) LoadConst8(a mem.Addr) uint8 { return uint8(t.loadConst(a, 1)) }

// LoadConstF32 loads a float32 that no thread writes during the run
// (posted and checked, as LoadConst8).
func (t *Thread) LoadConstF32(a mem.Addr) float32 {
	return approx.Float32FromBits(t.loadConst(a, 4))
}

// Store8 stores one byte. Stores and scribbles are posted: the call returns
// as soon as the store is queued, and the kernel runs on while the
// simulator carries it out in program order, at the cycle a blocking store
// would have issued. The kernel waits only when the thread's next request
// reads a value (a load or atomic), synchronizes (Barrier, Migrate, Sync),
// or finds a ring of posted stores full; machine state (Stats, cache
// contents) read from inside a kernel reflects a posted store only after
// Sync.
func (t *Thread) Store8(a mem.Addr, v uint8) { t.post(coherence.OpStore, a, 1, uint64(v)) }

// Store16 stores a 16-bit value (posted, as Store8).
func (t *Thread) Store16(a mem.Addr, v uint16) { t.post(coherence.OpStore, a, 2, uint64(v)) }

// Store32 stores a 32-bit value (posted, as Store8).
func (t *Thread) Store32(a mem.Addr, v uint32) { t.post(coherence.OpStore, a, 4, uint64(v)) }

// Store64 stores a 64-bit value (posted, as Store8).
func (t *Thread) Store64(a mem.Addr, v uint64) { t.post(coherence.OpStore, a, 8, v) }

// Scribble8 issues an approximate byte store (the scribble instruction),
// posted like a store (see Store8).
func (t *Thread) Scribble8(a mem.Addr, v uint8) { t.post(coherence.OpScribble, a, 1, uint64(v)) }

// Scribble16 issues an approximate 16-bit store (posted, as Store8).
func (t *Thread) Scribble16(a mem.Addr, v uint16) { t.post(coherence.OpScribble, a, 2, uint64(v)) }

// Scribble32 issues an approximate 32-bit store (posted, as Store8).
func (t *Thread) Scribble32(a mem.Addr, v uint32) { t.post(coherence.OpScribble, a, 4, uint64(v)) }

// Scribble64 issues an approximate 64-bit store (posted, as Store8).
func (t *Thread) Scribble64(a mem.Addr, v uint64) { t.post(coherence.OpScribble, a, 8, v) }

// FetchAdd32 atomically adds delta to the 32-bit value at a and returns
// the previous value. Atomics always use the conventional protocol —
// synchronization data must never be approximated (§3.1) — and, since
// their value is read, they block like loads.
func (t *Thread) FetchAdd32(a mem.Addr, delta uint32) uint32 {
	return uint32(t.call(reqMem, coherence.OpAtomicAdd, a, 4, uint64(delta)))
}

// FetchAdd64 atomically adds delta to the 64-bit value at a and returns
// the previous value.
func (t *Thread) FetchAdd64(a mem.Addr, delta uint64) uint64 {
	return t.call(reqMem, coherence.OpAtomicAdd, a, 8, delta)
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

// Run executes kernel on nthreads simulated threads (thread i pinned to
// core i) until all of them return, then drains in-flight protocol traffic.
// It returns the elapsed simulated cycles. A run in which a thread is still
// live when nothing but the GI sweep is left to fire — a protocol that lost
// a message — panics naming each live thread. Kernels run on coroutines
// of the engine, never concurrently with it: a panic in a kernel surfaces
// from Run on the caller's goroutine like any model panic. No kernel
// outlives Run on any exit path, but its coroutine may: Run takes its
// workers from a process-wide free list and, after a clean run, parks them
// there again with neither kernel nor machine attached, so a cell pays for
// no coroutine set-up. On a panic path every worker Run took is stopped,
// which unwinds its kernel, and none is parked.
func (m *Machine) Run(nthreads int, kernel Kernel) uint64 {
	if nthreads <= 0 || nthreads > m.cfg.Cores {
		panic(fmt.Sprintf("machine: %d threads on %d cores", nthreads, m.cfg.Cores))
	}
	m.workers = takeWorkers(m.workers[:0], nthreads)
	clean := false
	defer func() {
		m.report = m.report[:0]
		for _, w := range m.workers {
			m.report = append(m.report, CoreUtil{
				Thread:        w.id,
				Core:          w.core,
				Ops:           w.ops,
				MemCycles:     uint64(w.memCycles),
				ComputeCycles: uint64(w.computeCyc),
				BarrierCycles: uint64(w.barrierCyc),
				FinishCycle:   uint64(w.finish),
			})
			m.resumes += uint64(w.resumes)
		}
		if clean {
			parkWorkers(m.workers)
		} else {
			for _, w := range m.workers {
				w.stop()
			}
		}
		clear(m.workers)
		m.workers = m.workers[:0]
	}()
	for i, w := range m.workers {
		t := &w.Thread
		*t = Thread{
			id:       i,
			core:     i,
			nthreads: nthreads,
			m:        m,
			ddist:    -1,
			yield:    t.yield,
			next:     t.next,
			doneFn:   t.doneFn,
			constFn:  t.constFn,
			issueFn:  t.issueFn,
		}
		w.kernel = kernel
	}
	m.active = nthreads
	m.arrived = 0
	m.sweep.Start()
	start := m.clu.Now()
	for _, w := range m.workers {
		m.eng.After(0, w.issueFn)
	}
	if !m.clu.RunUntil(func() bool { return m.active == 0 }) {
		panic(m.stuck("event queue drained"))
	}
	// The run ends when the last thread finishes (recorded at its done
	// request); the drain below only retires in-flight protocol stragglers
	// and the disarmed GI sweep's groups, whose event timestamps must not
	// count as execution time.
	var end sim.Cycle
	for _, w := range m.workers {
		if w.finish > end {
			end = w.finish
		}
	}
	m.sweep.Stop()
	if _, drained := m.clu.Drain(100_000_000); !drained {
		panic("machine: protocol failed to drain after run")
	}
	clean = true
	m.clu.Align()
	elapsed := uint64(end - start)
	m.st.Cycles = uint64(end)
	m.st.Events = m.clu.Fired()
	return elapsed
}

// stuck describes the live threads of a run that nothing is left to wake,
// for the given reason. A thread not at a barrier is waiting on its
// outstanding memory operation.
func (m *Machine) stuck(why string) string {
	var live []string
	for _, w := range m.workers {
		switch t := &w.Thread; {
		case t.done:
		case t.barrier:
			live = append(live, fmt.Sprintf("thread %d on core %d waits at a barrier", t.id, t.core))
		default:
			state := "absent"
			if blk := m.l1s[t.core].Array().Lookup(t.op.Addr); blk != nil {
				state = blk.State.String()
			}
			live = append(live, fmt.Sprintf("thread %d on core %d waits on %#x (L1 state %s)", t.id, t.core, uint64(t.op.Addr), state))
		}
	}
	return "machine: " + why + " with live threads: " + strings.Join(live, "; ")
}

// sweepVisited runs after each GI sweep visit and ends a run the sweep
// alone keeps going. A visit sends and schedules nothing, so once the armed
// sweep groups are all that is pending and nothing is staged, no event can
// wake a live thread: the machine is deadlocked, and without this check the
// sweep would re-arm forever.
func (m *Machine) sweepVisited() {
	if m.active > 0 && m.clu.Pending() == m.sweep.Armed() {
		panic(m.stuck("only GI sweeps are pending"))
	}
}

// issue applies the thread's requests, one at a time in program order. It
// runs as an event of the engine whenever the thread's previous request
// has completed. The oldest request in the ring goes first; once the ring
// is empty issue resumes the kernel — a direct coroutine switch on the
// host — which returns when it has queued a request whose outcome it
// needs, filled the ring, or returned (its worker then queues the done
// request). A request carrying folded compute cycles stays at the ring
// head: issue charges the cycles, clears the fold and comes back once they
// have elapsed, reproducing the timing of a separate compute step exactly.
// Done, barrier and migration requests touch machine-global state (the
// live-thread count, the barrier roster, other threads' core assignments),
// so they are staged and applied at the window barrier, in canonical
// order, with the request kind in the low aux byte and a migration target
// above it.
func (m *Machine) issue(t *Thread) {
	for {
		if t.n == 0 {
			t.resumes++
			t.next() // a worker's body returns only once stopped
		}
		if fold := t.ring[t.head].fold; fold > 0 {
			t.ring[t.head].fold = 0
			t.computeCyc += sim.Cycle(fold)
			m.eng.After(sim.Cycle(fold), t.issueFn)
			return
		}
		switch r := t.pop(); r.kind {
		case reqMem, reqConst:
			t.issuedAt = m.eng.Now()
			t.op = coherence.CoreOp{
				Kind:  r.op,
				Addr:  r.addr,
				Width: int(r.width),
				Value: r.value,
				DDist: int(r.d),
				Done:  t.doneFn,
			}
			if r.kind == reqConst {
				t.op.Done = t.constFn
			}
			m.l1s[t.core].Access(&t.op)
		case reqMigrate:
			target := int(r.value)
			if target < 0 || target >= m.cfg.Cores {
				panic(fmt.Sprintf("machine: migration to invalid core %d", target))
			}
			m.clu.Stage(t.core, m.threadMergeFn, t, uint64(reqMigrate)|uint64(target)<<8)
		case reqBarrier:
			t.barrier = true
			t.barrierSince = m.eng.Now()
			m.clu.Stage(t.core, m.threadMergeFn, t, uint64(reqBarrier))
		case reqSync:
			// Everything the thread issued earlier, posted stores included,
			// has completed (requests are applied one at a time, and the
			// Sync was queued last); take its next request at the same cycle.
			continue
		case reqDone:
			t.done = true
			t.finish = m.eng.Now()
			m.clu.Stage(t.core, m.threadMergeFn, t, uint64(reqDone))
		}
		return
	}
}

// threadMerge applies a staged done/barrier/migration request at the
// window barrier, with the engine quiescent; panics (such as
// migration-target violations) surface from Run.
func (m *Machine) threadMerge(at sim.Cycle, arg any, aux uint64) {
	t := arg.(*Thread)
	switch reqKind(aux & 0xff) {
	case reqDone:
		m.active--
		m.releaseBarrier(at)
	case reqBarrier:
		m.arrived++
		m.releaseBarrier(at)
	case reqMigrate:
		target := int(aux >> 8)
		for _, u := range m.workers {
			if &u.Thread != t && u.core == target && !u.done {
				panic(fmt.Sprintf("machine: core %d already runs thread %d", target, u.id))
			}
		}
		t.core = target
		// Resume on the new core. The migration cost dwarfs the lookahead
		// window (checked at construction), so the resume cycle is always
		// at or past the merge horizon.
		m.eng.At(at+migrationCost, t.issueFn)
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
	for _, u := range m.workers {
		if !u.barrier {
			continue
		}
		u.barrier = false
		u.barrierCyc += at - u.barrierSince
		// Schedule at the merge horizon, the first cycle of the next
		// window; the clock still reads the last cycle of the drained one.
		m.eng.At(m.clu.Horizon(), u.issueFn)
	}
}

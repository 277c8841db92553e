package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ghostwriter/internal/mem"
)

// Tests of the kernel ↔ engine handoff itself: what a kernel's requests
// cost and return, and what Run guarantees when a kernel does not finish.

// TestTrailingComputeCharged: compute cycles after a thread's last memory
// op fold into its completion, so they reach the finish cycle and the
// utilization report like any other Compute.
func TestTrailingComputeCharged(t *testing.T) {
	m := New(DefaultConfig())
	a := m.AllocPadded(64)
	elapsed := m.Run(2, func(th *Thread) {
		if th.ID() == 1 {
			th.Load32(a)
			th.Compute(40)
			return
		}
		th.Compute(100)
	})
	rep := m.CoreReport()
	if rep[0].ComputeCycles != 100 || rep[0].FinishCycle < 100 {
		t.Errorf("compute-only thread: %+v, want ComputeCycles 100 and FinishCycle >= 100", rep[0])
	}
	if want := rep[1].MemCycles + 40; rep[1].ComputeCycles != 40 || rep[1].FinishCycle < want {
		t.Errorf("load-then-compute thread: %+v, want ComputeCycles 40 and FinishCycle >= %d", rep[1], want)
	}
	if elapsed < 100 {
		t.Errorf("Run returned %d cycles, want >= 100", elapsed)
	}
}

// runRecovered runs the kernel and returns the value Run panicked with
// (nil if it returned).
func runRecovered(m *Machine, nthreads int, kernel Kernel) (r any) {
	defer func() { r = recover() }()
	m.Run(nthreads, kernel)
	return nil
}

// waitGoroutines waits for the goroutine count to fall back to base: the
// kernels are unwound before Run returns, and the runtime retires their
// coroutines shortly after it.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after a panicked Run, %d before it", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunPanicSurfacesAndUnwinds: a panic raised while threads are parked
// mid-kernel — by a kernel, or by the model at a window merge — reaches
// Run's caller with its value intact, and every parked kernel is unwound.
func TestRunPanicSurfacesAndUnwinds(t *testing.T) {
	type boom struct{ thread int }
	cases := []struct {
		name   string
		kernel func(a mem.Addr) Kernel
		want   any
	}{
		{"kernel", func(a mem.Addr) Kernel {
			return func(th *Thread) {
				for i := 0; i < 20; i++ {
					th.Store32(a+mem.Addr(4*th.ID()), uint32(i))
					th.Compute(3)
				}
				if th.ID() == 2 {
					panic(boom{th.ID()})
				}
				th.Barrier()
			}
		}, boom{2}},
		{"migration", func(a mem.Addr) Kernel {
			return func(th *Thread) {
				th.Load32(a)
				if th.ID() == 1 {
					th.Migrate(0) // core 0 is running thread 0
				}
				th.Barrier()
			}
		}, "machine: core 0 already runs thread 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := New(DefaultConfig())
			a := m.AllocPadded(64)
			base := runtime.NumGoroutine()
			if got := runRecovered(m, 4, c.kernel(a)); got != c.want {
				t.Errorf("Run panicked with %v, want %v", got, c.want)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestRunTwice: a machine is reusable after a clean Run — the second run's
// threads start fresh and see the first run's memory.
func TestRunTwice(t *testing.T) {
	m := New(DefaultConfig())
	a := m.AllocPadded(64)
	kernel := func(th *Thread) {
		th.FetchAdd32(a, 1)
		th.Barrier()
	}
	m.Run(4, kernel)
	m.Run(3, kernel)
	if got := m.ReadCoherent(a, 4); got != 7 {
		t.Errorf("counter %d after runs of 4 and 3 threads, want 7", got)
	}
	if n := len(m.CoreReport()); n != 3 {
		t.Errorf("CoreReport has %d threads after the second run, want 3", n)
	}
}

// mixedFingerprint runs a kernel that uses every Thread request — load,
// store, scribble, FetchAdd, Compute, Barrier, Migrate, and Sync followed by
// a peek at the thread's own L1 — with the op stream depending on the values
// loads and atomics return, and hashes everything observable plus the
// peeked states.
func mixedFingerprint(tb testing.TB, protocol string) string {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Protocol = protocol
	m := New(cfg)

	const (
		threads = 6
		blocks  = 12
		ops     = 150
		seed    = 0x51DE
	)
	region := m.AllocPadded(blocks * 64)
	for i := 0; i < blocks*64/8; i++ {
		m.WriteBackingUint(region+mem.Addr(8*i), 8, splitmix64(seed+uint64(i)))
	}
	counter := m.AllocPadded(64)
	peeks := make([][]byte, threads)

	elapsed := m.Run(threads, func(th *Thread) {
		id := th.ID()
		r := splitmix64(seed ^ uint64(id)*0x9E37)
		th.SetApproxDist(4)
		for i := 0; i < ops; i++ {
			r = splitmix64(r)
			word := r % (blocks * 64 / 8)
			a := region + mem.Addr(8*word)
			// Every write stays within the d-distance of the preloaded
			// value, so scribbles find similar data in shared copies (GS)
			// and in stale invalidated ones (GI).
			near := splitmix64(seed+word) ^ r>>40&7
			switch r >> 32 % 10 {
			case 0, 1:
				th.Scribble32(a, uint32(near))
			case 2:
				th.Scribble32(a, th.Load32(a)^uint32(r>>40&7))
			case 3:
				th.Store64(a, near)
			case 4, 5:
				r ^= th.Load64(a)
			case 6:
				th.Compute(1 + r%5)
			case 7:
				r += uint64(th.FetchAdd32(counter, 1))
			default:
				th.Sync()
				st, ok := stateOf(m, th.Core(), a)
				p := byte(st)
				if ok {
					p |= 0x80
				}
				peeks[id] = append(peeks[id], p)
			}
			if i == ops/3 {
				th.Barrier()
			}
			if i == ops/2 {
				th.Migrate(th.N() + id)
			}
		}
		th.Compute(7)
		th.Barrier()
	})

	var b strings.Builder
	fmt.Fprintf(&b, "elapsed=%d cycles=%d\n", elapsed, m.Cycles())
	stj, err := json.Marshal(m.Stats())
	if err != nil {
		tb.Fatal(err)
	}
	b.Write(stj)
	crj, err := json.Marshal(m.CoreReport())
	if err != nil {
		tb.Fatal(err)
	}
	b.Write(crj)
	for i := 0; i < blocks*64/8; i++ {
		fmt.Fprintf(&b, "%x,", m.ReadCoherent(region+mem.Addr(8*i), 8))
	}
	fmt.Fprintf(&b, "\ncounter=%d peeks=%x", m.ReadCoherent(counter, 4), peeks)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// TestShardHandoffMixedKernel pins the mixed kernel's fingerprint, per
// protocol, to the value the channel-based handoff produced.
// The ghostwriter values moved only in Stats.Events when the GI sweep
// became one machine-level timer (EXPERIMENTS.md, "One GI-sweep timer").
func TestShardHandoffMixedKernel(t *testing.T) {
	pinned := map[string]string{
		"mesi":        "09256e07b8838c8490b4d3bbc99771cb60b598d22aade66e4424ad56d1dc1ac0",
		"ghostwriter": "bc2feab5f52e70b479255829d976d8d7562929987105357a4b82bb6cd72e7480",
		"gw-noGI":     "53d8dbbeda0d8390705211fc870af0eb4acdaa9e92d3e793e6e7ed60a5ac36c9",
	}
	for _, p := range shardProtocols {
		if got := mixedFingerprint(t, p); got != pinned[p] {
			t.Errorf("%s: fingerprint %s, want %s", p, got, pinned[p])
		}
	}
}

// drainParked stops every parked worker, leaving a cold pool.
func drainParked() {
	parked.Lock()
	ws := parked.free
	parked.free = nil
	parked.Unlock()
	for _, w := range ws {
		w.stop()
	}
}

// TestPooledWorkersStartFresh: a worker parked by one System carries none
// of its state into the next. The scribble fingerprint is the same on a
// cold pool and on one warmed by a different System whose kernels ended
// with approximation on, compute pending and a migration behind them.
func TestPooledWorkersStartFresh(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = "ghostwriter"
	drainParked()
	cold := configFingerprint(t, cfg, 0xD00D, 8)
	mixedFingerprint(t, "mesi")
	parked.Lock()
	warm := len(parked.free)
	parked.Unlock()
	if warm == 0 {
		t.Fatal("no worker parked after a clean Run")
	}
	if got := configFingerprint(t, cfg, 0xD00D, 8); got != cold {
		t.Errorf("fingerprint on a warm pool %s, on a cold one %s", got, cold)
	}
}

// errorOnly reports Fatal as Error, so a helper that calls Fatal can run
// off the test's goroutine.
type errorOnly struct{ testing.TB }

func (e errorOnly) Fatal(args ...any) { e.TB.Error(args...) }

// TestPooledWorkersConcurrentSystems: Systems on separate goroutines share
// the pool and each computes what it computes alone (run under -race).
func TestPooledWorkersConcurrentSystems(t *testing.T) {
	const n = 4
	want := make([]string, n)
	for i := range want {
		want[i] = scribbleFingerprint(t, shardProtocols[i%len(shardProtocols)], uint64(i), 4)
	}
	got := make([]string, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				got[i] = scribbleFingerprint(errorOnly{t}, shardProtocols[i%len(shardProtocols)], uint64(i), 4)
			}
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("System %d: concurrent fingerprint %s, alone %s", i, got[i], want[i])
		}
	}
}

// TestWarmRunAllocations: once the pool holds enough workers, a 24-thread
// Run builds no coroutine; what it still allocates is engine and protocol
// state, under one object per thread.
func TestWarmRunAllocations(t *testing.T) {
	m := New(DefaultConfig())
	const threads = 24
	a := m.AllocPadded(threads * 64)
	kernel := func(th *Thread) {
		p := a + mem.Addr(64*th.ID())
		th.Store32(p, th.Load32(p)+1)
		th.Compute(5)
		th.Barrier()
	}
	m.Run(threads, kernel)
	if got := testing.AllocsPerRun(5, func() { m.Run(threads, kernel) }); got > threads {
		t.Errorf("a warm %d-thread Run allocates %.0f objects, want <= %d", threads, got, threads)
	}
}

// TestStoresArePosted: a store returns once it is queued, not once the
// simulator has carried it out, so machine state read from inside the
// kernel reflects it only after Sync.
func TestStoresArePosted(t *testing.T) {
	m := New(DefaultConfig())
	a := m.AllocPadded(64)
	var posted, synced uint64
	m.Run(1, func(th *Thread) {
		th.Store32(a, 7)
		posted = m.Stats().Stores
		th.Sync()
		synced = m.Stats().Stores
	})
	if posted != 0 || synced != 1 {
		t.Errorf("Stores read %d after Store32 and %d after Sync, want 0 and 1", posted, synced)
	}
	if got := m.ReadCoherent(a, 4); got != 7 {
		t.Errorf("stored word reads %d after Run, want 7", got)
	}
}

// TestPostedStoresAreNotRoundTrips counts coroutine switches into a kernel
// of 2·ringCap+1 stores and one load: it is resumed at its start, once per
// full ring and once with the load's value, not once per store. The count
// depends only on the kernel, so it gates a slide back to a switch per
// store.
func TestPostedStoresAreNotRoundTrips(t *testing.T) {
	m := New(DefaultConfig())
	a := m.AllocPadded(64)
	const stores = 2*ringCap + 1
	resumes := 0
	m.Run(1, func(th *Thread) {
		for i := range stores {
			th.Store32(a, uint32(i))
		}
		th.Load32(a)
		resumes = th.resumes
	})
	if want := 1 + stores/ringCap + 1; resumes != want {
		t.Errorf("kernel resumed %d times, want %d", resumes, want)
	}
}

// TestFoldedComputeWaitsAtRingHead runs kernels whose requests carry
// folded compute cycles, each ending in a different kind of request, and
// pins the coroutine switches into each and its thread's compute and finish
// cycles: a request waits out its compute at the ring head without a
// resume of its own and issues on the cycle a separate compute step would
// have let it.
func TestFoldedComputeWaitsAtRingHead(t *testing.T) {
	// A full ring of stores carries 3+i compute cycles before store i. Its
	// first store misses and its thread issues again 110 cycles later, as
	// after compute_then_load's load; every later store hits and issues 3
	// cycles on (the 2-cycle hit and the cycle to the next issue).
	ringCompute := uint64(3*ringCap + ringCap*(ringCap-1)/2)
	ringFinish := ringCompute + 110 + 3*(ringCap-1)
	cases := []struct {
		name                  string
		kernel                func(th *Thread, a mem.Addr)
		resumes               int
		computeCyc, finishCyc uint64
	}{
		{"compute_then_load", func(th *Thread, a mem.Addr) {
			th.Compute(5)
			th.Load32(a)
		}, 2, 5, 115},
		{"full_ring_of_stores", func(th *Thread, a mem.Addr) {
			for i := range ringCap {
				th.Compute(uint64(3 + i))
				th.Store32(a+mem.Addr(4*i), uint32(i))
			}
		}, 2, ringCompute, ringFinish},
		{"compute_then_sync", func(th *Thread, _ mem.Addr) {
			th.Compute(5)
			th.Sync()
		}, 2, 5, 5},
		{"compute_then_barrier", func(th *Thread, _ mem.Addr) {
			th.Compute(5)
			th.Barrier()
		}, 2, 5, 6},
		{"compute_then_return", func(th *Thread, _ mem.Addr) {
			th.Compute(5)
		}, 1, 5, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := New(DefaultConfig())
			a := m.AllocPadded(64)
			resumes := 0
			m.Run(1, func(th *Thread) {
				c.kernel(th, a)
				resumes = th.resumes
			})
			r := m.CoreReport()[0]
			if resumes != c.resumes || r.ComputeCycles != c.computeCyc || r.FinishCycle != c.finishCyc {
				t.Errorf("resumes %d, ComputeCycles %d, FinishCycle %d; want %d, %d, %d",
					resumes, r.ComputeCycles, r.FinishCycle, c.resumes, c.computeCyc, c.finishCyc)
			}
		})
	}
}

// syncedOps is a thread whose stores and scribbles are each followed by a
// Sync when sync is set, and by a call of read when it is set; Sync costs
// no simulated cycle, so the two forms of a kernel must simulate
// identically.
type syncedOps struct {
	*Thread
	sync bool
	read func(*Thread)
}

func (s syncedOps) settle() {
	if s.sync {
		s.Sync()
	}
	if s.read != nil {
		s.read(s.Thread)
	}
}

func (s syncedOps) Store32(a mem.Addr, v uint32) {
	s.Thread.Store32(a, v)
	s.settle()
}

// Scribble issues a scribble of width bytes.
func (s syncedOps) Scribble(width int, a mem.Addr, v uint64) {
	switch width {
	case 1:
		s.Scribble8(a, uint8(v))
	case 2:
		s.Scribble16(a, uint16(v))
	case 4:
		s.Scribble32(a, uint32(v))
	default:
		s.Scribble64(a, v)
	}
	s.settle()
}

// postingThreads is the thread count of postingCases' runs.
const postingThreads = 4

// postingCase is one kernel of postingCases, which stores and scribbles to
// a region of 48 words.
type postingCase struct {
	name   string
	kernel func(s syncedOps, region mem.Addr)
}

// postingCases are kernels whose stores and scribbles sit in the thread's
// ring before each kind of request and each kind of ring fill.
func postingCases() []postingCase {
	// word spreads each thread's stores over three blocks shared with the
	// other threads, so posted stores miss, hit and invalidate.
	word := func(region mem.Addr, th *Thread, i int) mem.Addr {
		return region + mem.Addr(4*((7*th.ID()+13*i)%48))
	}
	// storeRun stores to each word twice in a row, so the memory image
	// tells the order in which posted stores were applied.
	storeRun := func(n int) func(syncedOps, mem.Addr) {
		return func(s syncedOps, region mem.Addr) {
			for i := range n {
				s.Store32(word(region, s.Thread, i/2), uint32(i+s.ID()))
			}
		}
	}
	then := func(head func(syncedOps, mem.Addr), tail func(syncedOps, mem.Addr)) func(syncedOps, mem.Addr) {
		return func(s syncedOps, region mem.Addr) {
			head(s, region)
			tail(s, region)
			storeRun(2)(s, region)
		}
	}
	return []postingCase{
		{"shorter_than_ring", storeRun(ringCap - 1)},
		{"ring_exactly", storeRun(ringCap)},
		{"longer_than_ring", storeRun(3*ringCap + 1)},
		{"compute_between", func(s syncedOps, region mem.Addr) {
			for i := range 2*ringCap + 3 {
				s.Compute(uint64(i % 4))
				s.Store32(word(region, s.Thread, i), uint32(i))
			}
			s.Compute(9)
		}},
		{"then_load", then(storeRun(ringCap+2), func(s syncedOps, region mem.Addr) {
			s.Store32(word(region, s.Thread, 1), s.Load32(word(region, s.Thread, 3))+1)
		})},
		{"then_fetchadd", then(storeRun(ringCap-1), func(s syncedOps, region mem.Addr) {
			s.FetchAdd32(region+mem.Addr(4*47), 1)
		})},
		{"then_barrier", then(storeRun(ringCap+1), func(s syncedOps, _ mem.Addr) {
			s.Compute(3)
			s.Barrier()
		})},
		{"then_migrate", then(storeRun(2), func(s syncedOps, _ mem.Addr) {
			if s.ID() == 0 {
				s.Migrate(s.m.cfg.Cores - 1)
			}
		})},
		{"then_sync", then(storeRun(ringCap+3), func(s syncedOps, _ mem.Addr) {
			s.Compute(2)
			s.Sync()
		})},
		{"then_return", storeRun(ringCap + 2)},
		{"scribble_widths", func(s syncedOps, region mem.Addr) {
			s.SetApproxDist(100) // above every width's legal maximum
			for i := range 3 * ringCap {
				w := 1 << (i % 4)
				a := word(region, s.Thread, i) &^ mem.Addr(w-1)
				s.Scribble(w, a, uint64(i)<<(4*w))
			}
		}},
		{"approx_dist_between", func(s syncedOps, region mem.Addr) {
			for i := range 2 * ringCap {
				switch i % 3 {
				case 0:
					s.SetApproxDist(1000)
				case 1:
					s.SetApproxDist(-1)
				}
				s.Scribble(4, word(region, s.Thread, i), uint64(i))
				s.Store32(word(region, s.Thread, i+1), uint32(i))
			}
		}},
	}
}

// postingRun runs kernel on postingThreads threads under protocol, with a
// Sync after every store and scribble when sync is set. When load is set,
// a second region of 32 preloaded words, which nothing writes, is read
// with it ringCap+1 times before the kernel and once after every store and
// scribble, alternating byte and float32 reads. It returns cycles, every
// statistic, energy, the utilization report, the memory image and the
// values each thread's reads returned.
func postingRun(t *testing.T, protocol string, kernel func(syncedOps, mem.Addr), sync bool, load func(th *Thread, a mem.Addr, f32 bool) uint64) string {
	cfg := DefaultConfig()
	cfg.Protocol = protocol
	m := New(cfg)
	region := m.AllocPadded(3 * 64)
	consts := m.AllocPadded(2 * 64)
	for i := range 32 {
		m.WriteBackingUint(consts+mem.Addr(4*i), 4, splitmix64(uint64(i))>>32)
	}
	var reads [postingThreads]uint64
	var read func(*Thread)
	if load != nil {
		var n [postingThreads]int
		read = func(th *Thread) {
			id, i := th.ID(), n[th.ID()]
			n[id]++
			a := consts + mem.Addr(4*((7*id+5*i)%32))
			if i%2 == 0 {
				a += mem.Addr(i / 2 % 4)
			}
			reads[id] = 31*reads[id] + load(th, a, i%2 == 1)
		}
	}
	elapsed := m.Run(postingThreads, func(th *Thread) {
		th.Store32(region+mem.Addr(4*th.ID()), 1) // warm up, unsynced
		if read != nil {
			for range ringCap + 1 {
				read(th)
			}
		}
		kernel(syncedOps{th, sync, read}, region)
	})
	var b strings.Builder
	fmt.Fprintf(&b, "elapsed=%d cycles=%d energy=%+v\n", elapsed, m.Cycles(), *m.Energy())
	for _, v := range []any{m.Stats(), m.CoreReport()} {
		j, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(j)
	}
	for i := range 48 {
		fmt.Fprintf(&b, ",%x", m.ReadCoherent(region+mem.Addr(4*i), 4))
	}
	fmt.Fprintf(&b, "\nreads=%x", reads)
	return b.String()
}

// TestPostingMovesNoSimulatedNumber runs each kernel as written and with a
// Sync after every store and scribble, and requires the two runs to agree
// on cycles, every statistic (events included), energy, the utilization
// report and the memory image.
func TestPostingMovesNoSimulatedNumber(t *testing.T) {
	for _, c := range postingCases() {
		for _, p := range []string{"mesi", "ghostwriter"} {
			t.Run(c.name+"/"+p, func(t *testing.T) {
				if posted, synced := postingRun(t, p, c.kernel, false, nil), postingRun(t, p, c.kernel, true, nil); posted != synced {
					t.Errorf("posted run\n%s\ndiffers from synced run\n%s", posted, synced)
				}
			})
		}
	}
}

// TestConstLoadsMoveNoSimulatedNumber runs each kernel of
// TestPostingMovesNoSimulatedNumber reading a preloaded region between its
// stores, once with LoadConst8/LoadConstF32 and once with Load8/LoadF32,
// and requires the two runs to agree on cycles, every statistic (events
// included), energy, the utilization report, the memory image and the
// values read.
func TestConstLoadsMoveNoSimulatedNumber(t *testing.T) {
	constLoad := func(th *Thread, a mem.Addr, f32 bool) uint64 {
		if f32 {
			return uint64(math.Float32bits(th.LoadConstF32(a)))
		}
		return uint64(th.LoadConst8(a))
	}
	plainLoad := func(th *Thread, a mem.Addr, f32 bool) uint64 {
		if f32 {
			return uint64(math.Float32bits(th.LoadF32(a)))
		}
		return uint64(th.Load8(a))
	}
	for _, c := range postingCases() {
		for _, p := range []string{"mesi", "ghostwriter"} {
			t.Run(c.name+"/"+p, func(t *testing.T) {
				if posted, plain := postingRun(t, p, c.kernel, false, constLoad), postingRun(t, p, c.kernel, false, plainLoad); posted != plain {
					t.Errorf("constant-load run\n%s\ndiffers from plain-load run\n%s", posted, plain)
				}
			})
		}
	}
}

// TestConstLoadsAreNotRoundTrips counts coroutine switches into a kernel
// of 2·ringCap+1 constant loads and one load: it is resumed at its start,
// once per full ring and once with the load's value, as for posted stores.
// Machine.Resumes reports the same count after Run.
func TestConstLoadsAreNotRoundTrips(t *testing.T) {
	m := New(DefaultConfig())
	a := m.AllocPadded(64)
	const loads = 2*ringCap + 1
	resumes := 0
	m.Run(1, func(th *Thread) {
		for i := range loads {
			th.LoadConst8(a + mem.Addr(i))
		}
		th.Load32(a)
		resumes = th.resumes
	})
	if want := 1 + loads/ringCap + 1; resumes != want || m.Resumes() != uint64(want) {
		t.Errorf("kernel resumed %d times, Machine.Resumes %d; want %d", resumes, m.Resumes(), want)
	}
}

// TestConstLoadOfAWrittenWordPanics: a constant load of a word another
// thread has stored to is caught at its completion. Run panics naming the
// thread, its core, the address, the value the kernel took and the value
// the core loaded, and every kernel is unwound.
func TestConstLoadOfAWrittenWordPanics(t *testing.T) {
	for _, load := range []struct {
		name string
		fn   func(th *Thread, a mem.Addr)
	}{
		{"LoadConst8", func(th *Thread, a mem.Addr) { th.LoadConst8(a) }},
		{"LoadConstF32", func(th *Thread, a mem.Addr) { th.LoadConstF32(a) }},
	} {
		t.Run(load.name, func(t *testing.T) {
			m := New(DefaultConfig())
			a := m.AllocPadded(64)
			base := runtime.NumGoroutine()
			got := runRecovered(m, 2, func(th *Thread) {
				if th.ID() == 0 {
					th.Store32(a, 0x2a)
				}
				th.Barrier()
				if th.ID() == 1 {
					load.fn(th, a)
				}
			})
			want := fmt.Sprintf("machine: thread 1 on core 1 loaded %#x as a constant: it read 0x0, but the word holds 0x2a", uint64(a))
			if got != want {
				t.Errorf("Run panicked with %v, want %q", got, want)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestPanicAfterPostedStores: a kernel that panics with stores still in its
// ring surfaces from Run with its value, and every kernel is unwound.
func TestPanicAfterPostedStores(t *testing.T) {
	type boom struct{}
	m := New(DefaultConfig())
	a := m.AllocPadded(64)
	base := runtime.NumGoroutine()
	got := runRecovered(m, 3, func(th *Thread) {
		for i := range ringCap + 2 {
			th.Store32(a+mem.Addr(4*th.ID()), uint32(i))
		}
		if th.ID() == 1 {
			panic(boom{})
		}
		th.Barrier()
	})
	if got != (boom{}) {
		t.Errorf("Run panicked with %v, want boom{}", got)
	}
	waitGoroutines(t, base)
}

// hitOp is the memory operation benchmarkHits repeats.
type hitOp int

const (
	loadHit hitOp = iota
	storeHit
	constLoadHit
)

// benchmarkHits has 24 threads hammer one warm private block each, so an
// op is the kernel↔engine handoff and an L1 hit, nothing else; ns/op is
// per memory operation.
func benchmarkHits(b *testing.B, op hitOp) {
	const threads = 24
	m := New(DefaultConfig())
	base := m.AllocPadded(threads * 64)
	kernel := func(n int) Kernel {
		return func(th *Thread) {
			a := base + mem.Addr(64*th.ID())
			for i := range n {
				switch op {
				case storeHit:
					th.Store32(a, uint32(i))
				case constLoadHit:
					th.LoadConstF32(a)
				default:
					th.Load32(a)
				}
			}
		}
	}
	m.Run(threads, kernel(1)) // first touch: bring each block in
	b.ResetTimer()
	m.Run(threads, kernel((b.N+threads-1)/threads))
}

func BenchmarkLoadHit(b *testing.B)      { benchmarkHits(b, loadHit) }
func BenchmarkStoreHit(b *testing.B)     { benchmarkHits(b, storeHit) }
func BenchmarkConstLoadHit(b *testing.B) { benchmarkHits(b, constLoadHit) }

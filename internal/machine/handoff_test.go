package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
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
func TestShardHandoffMixedKernel(t *testing.T) {
	pinned := map[string]string{
		"mesi":        "09256e07b8838c8490b4d3bbc99771cb60b598d22aade66e4424ad56d1dc1ac0",
		"ghostwriter": "5cb8d7c0729eb153d0923296cdb1ff903ed6997f81dc1ecf3fb3073f0d532838",
		"gw-noGI":     "53d8dbbeda0d8390705211fc870af0eb4acdaa9e92d3e793e6e7ed60a5ac36c9",
	}
	for _, p := range shardProtocols {
		if got := mixedFingerprint(t, p); got != pinned[p] {
			t.Errorf("%s: fingerprint %s, want %s", p, got, pinned[p])
		}
	}
}

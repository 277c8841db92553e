package machine

import (
	"testing"

	"ghostwriter/internal/mem"
)

// Litmus tests for §3.6 of the paper: precise data keeps the strict
// consistency of the underlying blocking in-order model, while data labeled
// approximate may observe stale values — and only that data.

// TestLitmusMessagePassingPrecise: the MP litmus test. With in-order
// blocking cores and a write-invalidate protocol, observing the flag
// implies observing the data — the forbidden (flag=1, data=0) outcome must
// never appear for precise stores.
func TestLitmusMessagePassingPrecise(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		m := New(DefaultConfig())
		data := m.AllocPadded(4)
		flag := m.AllocPadded(4)
		var seenFlag, seenData uint32
		m.Run(2, func(th *Thread) {
			switch th.ID() {
			case 0:
				th.Compute(uint64(trial * 7)) // vary the interleaving
				th.Store32(data, 1)
				th.Store32(flag, 1)
			case 1:
				seenFlag = th.Load32(flag)
				seenData = th.Load32(data)
			}
		})
		if seenFlag == 1 && seenData == 0 {
			t.Fatalf("trial %d: MP violation — flag observed before data", trial)
		}
	}
}

// TestLitmusStoreBufferingPrecise: the SB litmus test. Blocking cores have
// no store buffer, so at least one thread must observe the other's store —
// the (r0=0, r1=0) outcome SC forbids... is forbidden here too.
func TestLitmusStoreBufferingPrecise(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		m := New(DefaultConfig())
		x := m.AllocPadded(4)
		y := m.AllocPadded(4)
		var r0, r1 uint32
		m.Run(2, func(th *Thread) {
			th.Compute(uint64((trial * (th.ID() + 1)) % 13))
			switch th.ID() {
			case 0:
				th.Store32(x, 1)
				r0 = th.Load32(y)
			case 1:
				th.Store32(y, 1)
				r1 = th.Load32(x)
			}
		})
		if r0 == 0 && r1 == 0 {
			t.Fatalf("trial %d: SB violation — both threads read 0", trial)
		}
	}
}

// TestLitmusCoherencePrecise: per-location coherence (CoRR). Two loads of
// the same location by the same thread must never observe values moving
// backwards relative to another thread's single store.
func TestLitmusCoherencePrecise(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		m := New(DefaultConfig())
		x := m.AllocPadded(4)
		var r1, r2 uint32
		m.Run(2, func(th *Thread) {
			switch th.ID() {
			case 0:
				th.Compute(uint64(trial * 3))
				th.Store32(x, 1)
			case 1:
				r1 = th.Load32(x)
				r2 = th.Load32(x)
			}
		})
		if r1 == 1 && r2 == 0 {
			t.Fatalf("trial %d: coherence violation — value moved backwards", trial)
		}
	}
}

// TestLitmusApproximateMayViolateMP: with the data store issued as a
// scribble that hides in GS, the consumer can legally observe
// (flag=1, data=stale) — §3.6's relaxation for approximate data, by
// construction.
func TestLitmusApproximateMayViolateMP(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = "ghostwriter"
	m := New(cfg)
	data := m.AllocPadded(4)
	flag := m.AllocPadded(4)
	var seenFlag, seenData uint32
	m.Run(2, func(th *Thread) {
		switch th.ID() {
		case 0:
			// Both threads share `data` first so the producer's scribble
			// lands on S and hides in GS.
			th.Load32(data)
			th.Barrier()
			th.SetApproxDist(4)
			th.Scribble32(data, 1) // hidden in GS
			th.SetApproxDist(-1)
			th.Store32(flag, 1) // precise flag
			th.Barrier()
		case 1:
			th.Load32(data)
			th.Barrier()
			th.Barrier()
			seenFlag = th.Load32(flag)
			seenData = th.Load32(data) // own stale S copy: hits, sees 0
		}
	})
	if seenFlag != 1 {
		t.Fatal("flag must be visible (precise store)")
	}
	if seenData != 0 {
		t.Fatalf("approximate data read %d; the hidden GS update should be invisible", seenData)
	}
}

// TestLitmusAtomicFences: fetch-add acquires exclusive ownership, so a
// ticket handoff through an atomic is totally ordered even among scribbled
// neighbours in the same block.
func TestLitmusAtomicFences(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = "ghostwriter"
	m := New(cfg)
	a := m.AllocPadded(64)
	counter := a      // atomic word
	neighbor := a + 4 // scribbled word in the same block
	m.Run(4, func(th *Thread) {
		th.SetApproxDist(8)
		for i := 0; i < 40; i++ {
			th.FetchAdd32(counter, 1)
			th.Scribble32(neighbor, uint32(i))
		}
	})
	if got := m.ReadCoherent(counter, 4); got != 160 {
		t.Fatalf("atomic counter = %d, want 160 despite scribbles in the same block", got)
	}
}

// TestLitmusDeterministicOutcomes: the same litmus program always produces
// the same outcome — the simulator's interleavings are reproducible, which
// is what makes approximate-error measurements meaningful.
func TestLitmusDeterministicOutcomes(t *testing.T) {
	run := func() (uint32, uint32) {
		m := New(DefaultConfig())
		x := m.AllocPadded(4)
		y := m.AllocPadded(4)
		var r0, r1 uint32
		m.Run(2, func(th *Thread) {
			switch th.ID() {
			case 0:
				th.Store32(x, 1)
				r0 = th.Load32(y)
			case 1:
				th.Store32(y, 1)
				r1 = th.Load32(x)
			}
		})
		return r0, r1
	}
	a0, a1 := run()
	b0, b1 := run()
	if a0 != b0 || a1 != b1 {
		t.Fatalf("litmus outcome not reproducible: (%d,%d) vs (%d,%d)", a0, a1, b0, b1)
	}
	_ = mem.Addr(0)
}

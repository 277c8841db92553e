package machine

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"ghostwriter/internal/cache"
	"ghostwriter/internal/mem"
	"ghostwriter/internal/stats"
)

// smallConfig returns a Table 1 machine (cheap enough for unit tests).
func smallConfig() Config { return DefaultConfig() }

func gwConfig() Config {
	cfg := DefaultConfig()
	cfg.Protocol = "ghostwriter"
	return cfg
}

// protocolFor names the ghostwriter table when gw is set, the mesi baseline
// otherwise.
func protocolFor(gw bool) string {
	if gw {
		return "ghostwriter"
	}
	return "mesi"
}

func TestSingleThreadStoreLoad(t *testing.T) {
	m := New(smallConfig())
	arr := m.Alloc(4*256, 4)
	m.Run(1, func(th *Thread) {
		for i := 0; i < 256; i++ {
			th.Store32(arr+mem.Addr(4*i), uint32(i*i))
		}
		for i := 0; i < 256; i++ {
			if got := th.Load32(arr + mem.Addr(4*i)); got != uint32(i*i) {
				t.Errorf("load[%d] = %d, want %d", i, got, i*i)
			}
		}
	})
	if !m.Quiesced() {
		t.Fatal("machine not quiesced after run")
	}
	if err := m.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if got := m.ReadCoherent(arr+mem.Addr(4*i), 4); got != uint64(i*i) {
			t.Fatalf("ReadCoherent[%d] = %d, want %d", i, got, i*i)
		}
	}
}

func TestBackingPreload(t *testing.T) {
	m := New(smallConfig())
	a := m.Alloc(8, 8)
	m.WriteBackingUint(a, 8, 0xCAFEBABE12345678)
	var got uint64
	m.Run(1, func(th *Thread) { got = th.Load64(a) })
	if got != 0xCAFEBABE12345678 {
		t.Fatalf("preloaded value = %#x", got)
	}
}

func TestWidthsAndFloats(t *testing.T) {
	m := New(smallConfig())
	a := m.Alloc(64, 64)
	m.Run(1, func(th *Thread) {
		th.Store8(a, 0xAB)
		th.Store16(a+2, 0xBEEF)
		th.StoreF32(a+4, 3.5)
		th.StoreF64(a+8, -1.25e10)
		if th.Load8(a) != 0xAB || th.Load16(a+2) != 0xBEEF {
			t.Error("narrow round trip failed")
		}
		if th.LoadF32(a+4) != 3.5 || th.LoadF64(a+8) != -1.25e10 {
			t.Error("float round trip failed")
		}
	})
}

func TestTrueSharingAcrossThreads(t *testing.T) {
	m := New(smallConfig())
	a := m.Alloc(4, 64)
	var got uint32
	m.Run(2, func(th *Thread) {
		if th.ID() == 0 {
			th.Store32(a, 42)
		}
		th.Barrier()
		if th.ID() == 1 {
			got = th.Load32(a)
		}
	})
	if got != 42 {
		t.Fatalf("consumer read %d, want 42", got)
	}
	if err := m.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierRendezvous(t *testing.T) {
	m := New(smallConfig())
	a := m.Alloc(4*8, 64)
	fail := false
	m.Run(8, func(th *Thread) {
		th.Store32(a+mem.Addr(4*th.ID()), uint32(th.ID()+1))
		th.Barrier()
		// After the barrier every thread must see every other thread's
		// coherent store.
		for i := 0; i < 8; i++ {
			if th.Load32(a+mem.Addr(4*i)) != uint32(i+1) {
				fail = true
			}
		}
		th.Barrier()
	})
	if fail {
		t.Fatal("stores not visible after barrier")
	}
}

func TestMigratoryFalseSharingGeneratesTraffic(t *testing.T) {
	// Listing 1's pattern: each thread read-modify-writes its own word of a
	// shared block. Baseline MESI must ping-pong with UPGRADE/GETX traffic.
	m := New(smallConfig())
	a := m.Alloc(4*8, 64) // 8 words, one block
	m.Run(4, func(th *Thread) {
		mine := a + mem.Addr(4*th.ID())
		for i := 0; i < 50; i++ {
			v := th.Load32(mine)
			th.Store32(mine, v+1)
		}
	})
	st := m.Stats()
	if st.Msgs[stats.MsgUPGRADE]+st.Msgs[stats.MsgGETX] < 20 {
		t.Fatalf("expected heavy invalidation traffic, got UPGRADE=%d GETX=%d",
			st.Msgs[stats.MsgUPGRADE], st.Msgs[stats.MsgGETX])
	}
	// Every thread's final count must be exactly 50: false sharing hurts
	// performance, never correctness, in baseline MESI.
	for i := 0; i < 4; i++ {
		if got := m.ReadCoherent(a+mem.Addr(4*i), 4); got != 50 {
			t.Fatalf("thread %d counter = %d, want 50", i, got)
		}
	}
	if err := m.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, stats.Stats) {
		m := New(gwConfig())
		a := m.AllocPadded(4 * 24)
		cycles := m.Run(6, func(th *Thread) {
			th.SetApproxDist(4)
			mine := a + mem.Addr(4*th.ID())
			for i := 0; i < 200; i++ {
				v := th.Load32(mine)
				th.Scribble32(mine, v+uint32(i%3))
			}
			th.Barrier()
			th.Load32(a)
		})
		return cycles, *m.Stats()
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 {
		t.Fatalf("cycles differ across identical runs: %d vs %d", c1, c2)
	}
	if s1 != s2 {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
}

func TestEvictionWriteback(t *testing.T) {
	// Write more conflicting blocks than L1 associativity; dirty victims
	// must write back through the directory so no update is lost.
	m := New(smallConfig())
	cfgSets := m.Config().L1.SizeBytes / (m.Config().L1.Ways * m.Config().L1.BlockSize)
	stride := mem.Addr(cfgSets * m.Config().L1.BlockSize)
	base := m.Alloc(int(stride)*8, 64)
	m.Run(1, func(th *Thread) {
		for i := 0; i < 8; i++ {
			th.Store32(base+stride*mem.Addr(i), uint32(100+i))
		}
		for i := 0; i < 8; i++ {
			if got := th.Load32(base + stride*mem.Addr(i)); got != uint32(100+i) {
				t.Errorf("after eviction, load[%d] = %d", i, got)
			}
		}
	})
	if err := m.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if got := m.ReadCoherent(base+stride*mem.Addr(i), 4); got != uint64(100+i) {
			t.Fatalf("writeback lost: block %d = %d", i, got)
		}
	}
}

// TestDRAMFillsAllocateByTheChunk: a cold miss that the L2 bank has room for
// costs the host a fraction of an allocation — the request, the grant and
// the DRAM read run on pooled records and bound handlers, and the line, its
// 64-byte buffer and the L1 frame it lands in are each carved from a slab
// that allocates once per chunk (64 lines, 64 buffers, up to 256 frames).
// What is left is those chunks and the line table and resident list
// doubling.
func TestDRAMFillsAllocateByTheChunk(t *testing.T) {
	m := New(smallConfig())
	const blocks, passes = 2048, 4
	next := m.AllocPadded(64 * blocks * passes)
	stream := func() {
		base := next
		next += 64 * blocks
		m.Run(1, func(th *Thread) {
			for b := 0; b < blocks; b++ {
				th.Load32(base + mem.Addr(64*b))
			}
		})
	}
	perPass := testing.AllocsPerRun(passes-1, stream) // plus one unmeasured pass first
	if got := m.Stats().DRAMAccesses; got != passes*blocks {
		t.Fatalf("%d DRAM accesses, want one per block streamed (%d)", got, passes*blocks)
	}
	if perFill := perPass / blocks; perFill > 0.1 {
		t.Errorf("%.3f allocations per DRAM fill, want at most 0.1", perFill)
	}
}

// TestHostMemoryFollowsUse: a machine costs what its run touches. Building
// the largest grid allocates frame metadata but no block data (16.9 MB
// before L1 frames were carved on first use), and once a working set's
// frames and lines exist, a run's allocations are its thread set-up alone:
// four times the memory operations over the same blocks allocate the same.
func TestHostMemoryFollowsUse(t *testing.T) {
	var m0, m1 runtime.MemStats
	cfg := topoMachineConfig(t, "torus", 256)
	runtime.ReadMemStats(&m0)
	New(cfg)
	runtime.ReadMemStats(&m1)
	if got := float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20); got >= 8 {
		t.Errorf("New of a 256-node torus allocates %.1f MB, want < 8", got)
	}

	m := New(gwConfig())
	const threads, blocks = 8, 96
	base := m.AllocPadded(64 * blocks)
	mallocs := func(rounds int) float64 {
		runtime.ReadMemStats(&m0)
		m.Run(threads, func(th *Thread) {
			th.SetApproxDist(4)
			for r := 0; r < rounds; r++ {
				for b := th.ID(); b < blocks; b += 3 {
					a := base + mem.Addr(64*b)
					th.Scribble32(a, th.Load32(a)+1)
				}
				th.Barrier()
			}
		})
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs - m0.Mallocs)
	}
	mallocs(8) // carve the frames, lines, pooled records and queues the kernel needs
	one, four := mallocs(2), mallocs(8)
	if diff := math.Abs(four - one); diff >= 0.05*one {
		t.Errorf("Run allocates %v objects for 2 rounds and %v for 8, want within 5%%: allocations must not follow the op count", one, four)
	}
}

func TestScribbleEntersGSAndHidesUpdate(t *testing.T) {
	m := New(gwConfig())
	a := m.AllocPadded(64)
	m.Run(2, func(th *Thread) {
		if th.ID() == 0 {
			th.Store32(a, 100) // owner in M
		}
		th.Barrier()
		if th.ID() == 1 {
			_ = th.Load32(a) // brings block S in both... S in thread 1
			th.Barrier()
			th.SetApproxDist(4)
			th.Scribble32(a, 101) // within 4-distance of 100 → GS
			th.Barrier()
			if got := th.Load32(a); got != 101 {
				t.Errorf("local read of GS block = %d, want hidden 101", got)
			}
		} else {
			th.Barrier()
			th.Barrier()
		}
		th.Barrier()
	})
	st := m.Stats()
	if st.GSEntries == 0 || st.ServicedByGS == 0 {
		t.Fatalf("expected GS entry, got %+v", st)
	}
	// The hidden update must be invisible to the coherent view.
	if got := m.ReadCoherent(a, 4); got != 100 {
		t.Fatalf("coherent view = %d, want 100 (scribble hidden)", got)
	}
	if err := m.CheckInvariants(false); err != nil {
		t.Fatal(err)
	}
}

func TestScribbleFallsBackWhenDissimilar(t *testing.T) {
	m := New(gwConfig())
	a := m.AllocPadded(64)
	m.Run(2, func(th *Thread) {
		if th.ID() == 0 {
			th.Store32(a, 100)
		}
		th.Barrier()
		if th.ID() == 1 {
			_ = th.Load32(a)
			th.SetApproxDist(4)
			// 100 → 4000: differs far above the low 4 bits; must fall back
			// to a conventional UPGRADE and become globally visible.
			th.Scribble32(a, 4000)
		}
	})
	st := m.Stats()
	if st.ScribbleFallbacks == 0 {
		t.Fatal("expected a scribble fallback")
	}
	if st.GSEntries != 0 {
		t.Fatal("dissimilar scribble must not enter GS")
	}
	if got := m.ReadCoherent(a, 4); got != 4000 {
		t.Fatalf("fallback store not coherent: %d", got)
	}
}

func TestGITimeoutRevertsBlock(t *testing.T) {
	cfg := gwConfig()
	cfg.GITimeout = 128
	m := New(cfg)
	a := m.AllocPadded(64)
	var before, after uint32
	m.Run(2, func(th *Thread) {
		switch th.ID() {
		case 0:
			th.Store32(a, 10)
			th.Barrier()
			th.Barrier()
			// Invalidate thread 1's copy via a conventional store.
			th.Store32(a, 12)
			th.Barrier()
			th.Barrier()
		case 1:
			th.Barrier()
			_ = th.Load32(a) // cache the block
			th.Barrier()
			th.Barrier()
			// Our copy is now I (tag present, stale data 10). A similar
			// scribble enters GI without any GETX.
			th.SetApproxDist(4)
			th.Scribble32(a, 11)
			before = th.Load32(a) // hits GI: sees hidden 11
			th.Compute(1000)      // outlive the 128-cycle timeout
			after = th.Load32(a)  // GI timed out → miss → coherent 12
			th.Barrier()
		}
	})
	st := m.Stats()
	if st.GIEntries == 0 {
		t.Fatalf("expected GI entry, got %+v", st)
	}
	if st.GITimeouts == 0 {
		t.Fatal("expected a GI timeout")
	}
	if before != 11 {
		t.Fatalf("read under GI = %d, want hidden 11", before)
	}
	if after != 12 {
		t.Fatalf("read after timeout = %d, want coherent 12", after)
	}
}

func TestBaselineIgnoresScribbles(t *testing.T) {
	m := New(smallConfig()) // Ghostwriter off
	a := m.AllocPadded(64)
	m.Run(2, func(th *Thread) {
		if th.ID() == 0 {
			th.Store32(a, 100)
		}
		th.Barrier()
		if th.ID() == 1 {
			_ = th.Load32(a)
			th.SetApproxDist(4)
			th.Scribble32(a, 101)
		}
	})
	st := m.Stats()
	if st.GSEntries != 0 || st.GIEntries != 0 {
		t.Fatal("baseline must never enter approximate states")
	}
	if got := m.ReadCoherent(a, 4); got != 101 {
		t.Fatalf("baseline scribble must behave as a store: %d", got)
	}
	if err := m.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}

// TestRandomStress drives many threads over a small shared region and
// checks (a) protocol invariants at quiesce and (b) that every load
// returned some value that was actually stored to that address (or the
// initial zero) — a safety property that holds even for Ghostwriter's
// stale reads.
func TestRandomStress(t *testing.T) {
	for _, gw := range []bool{false, true} {
		gw := gw
		name := "baseline"
		if gw {
			name = "ghostwriter"
		}
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Protocol = protocolFor(gw)
			cfg.GITimeout = 256
			m := New(cfg)
			const words = 32 // two blocks, heavily contended
			a := m.AllocPadded(4 * words)

			nthreads := 8
			type access struct {
				addr mem.Addr
				val  uint32
			}
			storesByThread := make([][]access, nthreads)
			loadsByThread := make([][]access, nthreads)
			m.Run(nthreads, func(th *Thread) {
				rng := rand.New(rand.NewSource(int64(1000 + th.ID())))
				if gw {
					th.SetApproxDist(4)
				}
				for i := 0; i < 400; i++ {
					w := rng.Intn(words)
					addr := a + mem.Addr(4*w)
					switch rng.Intn(3) {
					case 0:
						v := th.Load32(addr)
						loadsByThread[th.ID()] = append(loadsByThread[th.ID()], access{addr, v})
					case 1:
						v := uint32(rng.Intn(1 << 16))
						th.Store32(addr, v)
						storesByThread[th.ID()] = append(storesByThread[th.ID()], access{addr, v})
					case 2:
						v := uint32(rng.Intn(1 << 16))
						if gw {
							th.Scribble32(addr, v)
						} else {
							th.Store32(addr, v)
						}
						storesByThread[th.ID()] = append(storesByThread[th.ID()], access{addr, v})
					}
				}
			})
			if err := m.CheckInvariants(!gw); err != nil {
				t.Fatal(err)
			}
			written := make(map[mem.Addr]map[uint32]bool)
			for _, ss := range storesByThread {
				for _, s := range ss {
					if written[s.addr] == nil {
						written[s.addr] = map[uint32]bool{}
					}
					written[s.addr][s.val] = true
				}
			}
			for tid, ls := range loadsByThread {
				for _, l := range ls {
					if l.val == 0 {
						continue // initial value
					}
					if !written[l.addr][l.val] {
						t.Fatalf("thread %d loaded %d from %#x, never stored there",
							tid, l.val, l.addr)
					}
				}
			}
		})
	}
}

func TestGhostwriterReducesTrafficOnFalseSharing(t *testing.T) {
	// The paper's core claim in miniature: the migratory false-sharing
	// pattern generates less coherence traffic under Ghostwriter when
	// store deltas stay within the d-distance.
	run := func(gw bool) *stats.Stats {
		cfg := DefaultConfig()
		cfg.Protocol = protocolFor(gw)
		m := New(cfg)
		a := m.AllocPadded(4 * 8)
		m.Run(4, func(th *Thread) {
			th.SetApproxDist(4)
			mine := a + mem.Addr(4*th.ID())
			for i := 0; i < 200; i++ {
				v := th.Load32(mine)
				th.Scribble32(mine, v+1) // +1 is almost always within 4-distance
			}
		})
		return m.Stats()
	}
	base := run(false)
	gw := run(true)
	if gw.TotalMsgs() >= base.TotalMsgs() {
		t.Fatalf("ghostwriter traffic %d not below baseline %d",
			gw.TotalMsgs(), base.TotalMsgs())
	}
	if gw.Msgs[stats.MsgUPGRADE] >= base.Msgs[stats.MsgUPGRADE] {
		t.Fatalf("UPGRADE count did not drop: %d vs %d",
			gw.Msgs[stats.MsgUPGRADE], base.Msgs[stats.MsgUPGRADE])
	}
}

func TestGhostwriterSpeedsUpFalseSharing(t *testing.T) {
	run := func(gw bool) uint64 {
		cfg := DefaultConfig()
		cfg.Protocol = protocolFor(gw)
		m := New(cfg)
		a := m.AllocPadded(4 * 24)
		return m.Run(8, func(th *Thread) {
			th.SetApproxDist(8)
			mine := a + mem.Addr(4*th.ID())
			for i := 0; i < 300; i++ {
				v := th.Load32(mine)
				th.Scribble32(mine, v+1)
			}
		})
	}
	base := run(false)
	gw := run(true)
	if gw >= base {
		t.Fatalf("ghostwriter (%d cycles) not faster than baseline (%d)", gw, base)
	}
}

func TestCoreReport(t *testing.T) {
	m := New(DefaultConfig())
	a := m.AllocPadded(4 * 4)
	wall := m.Run(3, func(th *Thread) {
		for i := 0; i < 50; i++ {
			th.Store32(a+mem.Addr(4*th.ID()), uint32(i))
		}
		th.Compute(uint64(100 * (th.ID() + 1)))
		th.Barrier()
	})
	rep := m.CoreReport()
	if len(rep) != 3 {
		t.Fatalf("report for %d threads, want 3", len(rep))
	}
	for _, r := range rep {
		if r.Ops != 50 {
			t.Errorf("thread %d ops = %d, want 50", r.Thread, r.Ops)
		}
		if r.ComputeCycles != uint64(100*(r.Thread+1)) {
			t.Errorf("thread %d compute = %d, want %d", r.Thread, r.ComputeCycles, 100*(r.Thread+1))
		}
		if r.MemCycles == 0 || r.FinishCycle == 0 || r.FinishCycle > wall+1 {
			t.Errorf("thread %d accounting odd: %+v", r.Thread, r)
		}
	}
	// Thread 0 computes least, so it waits longest at the barrier.
	if rep[0].BarrierCycles <= rep[2].BarrierCycles {
		t.Errorf("barrier accounting inverted: t0=%d t2=%d",
			rep[0].BarrierCycles, rep[2].BarrierCycles)
	}
}

func TestResetStatsKeepsArchitecturalState(t *testing.T) {
	m := New(DefaultConfig())
	a := m.AllocPadded(64 * 2) // one private block per thread
	// Warm-up: fault everything in.
	m.Run(2, func(th *Thread) { th.Store32(a+mem.Addr(64*th.ID()), 9) })
	if m.Stats().L1StoreMisses == 0 {
		t.Fatal("warm-up generated no misses")
	}
	m.ResetStats()
	if m.Stats().TotalMsgs() != 0 || m.Energy().TotalPJ() != 0 {
		t.Fatal("reset incomplete")
	}
	// Measured region: the same stores now hit in the warm caches.
	m.Run(2, func(th *Thread) { th.Store32(a+mem.Addr(64*th.ID()), 10) })
	st := m.Stats()
	if st.L1StoreMisses != 0 {
		t.Fatalf("measured region missed %d times; caches should be warm", st.L1StoreMisses)
	}
	if st.L1StoreHits == 0 {
		t.Fatal("measured region recorded no hits")
	}
	if got := m.ReadCoherent(a, 4); got != 10 {
		t.Fatalf("state corrupted by reset: %d", got)
	}
}

// TestPoliciesAgreeWithoutScribbles: with no scribbles in the program, the
// three residency-policy tables and the monitor knob must produce identical
// executions — the approximate machinery is strictly opt-in per
// instruction.
func TestPoliciesAgreeWithoutScribbles(t *testing.T) {
	run := func(protocol string, bound uint32) (uint64, uint64) {
		cfg := DefaultConfig()
		cfg.Protocol = protocol
		cfg.ErrorBound = bound
		m := New(cfg)
		a := m.AllocPadded(4 * 16)
		cycles := m.Run(4, func(th *Thread) {
			th.SetApproxDist(8) // armed, but no scribbles issued
			for i := 0; i < 150; i++ {
				v := th.Load32(a + mem.Addr(4*((i+th.ID())%16)))
				th.Store32(a+mem.Addr(4*th.ID()), v+1)
			}
		})
		return cycles, m.Stats().TotalMsgs()
	}
	c0, m0 := run("ghostwriter", 0)
	c1, m1 := run("gw-resident", 0)
	c2, m2 := run("gw-escalate", 5)
	if c0 != c1 || c0 != c2 || m0 != m1 || m0 != m2 {
		t.Fatalf("scribble-free runs diverged: cycles %d/%d/%d msgs %d/%d/%d",
			c0, c1, c2, m0, m1, m2)
	}
}

// TestReadCoherentOracle: for single-threaded random programs, the
// coherent view after the run must equal a flat-memory oracle replay.
func TestReadCoherentOracle(t *testing.T) {
	f := func(seed int64) bool {
		cfg := DefaultConfig()
		cfg.L2PerCoreBytes = 4 * 64 // force hierarchy traffic
		m := New(cfg)
		const words = 128
		a := m.AllocPadded(4 * words)
		oracle := make([]uint32, words)
		rng := rand.New(rand.NewSource(seed))
		type op struct {
			w  int
			v  uint32
			ld bool
		}
		var prog []op
		for i := 0; i < 300; i++ {
			prog = append(prog, op{
				w: rng.Intn(words), v: uint32(rng.Intn(1 << 20)),
				ld: rng.Intn(3) == 0,
			})
		}
		ok := true
		m.Run(1, func(th *Thread) {
			for _, o := range prog {
				addr := a + mem.Addr(4*o.w)
				if o.ld {
					if th.Load32(addr) != oracle[o.w] {
						ok = false
						return
					}
				} else {
					th.Store32(addr, o.v)
					oracle[o.w] = o.v
				}
			}
		})
		if !ok {
			return false
		}
		for w := 0; w < words; w++ {
			if uint32(m.ReadCoherent(a+mem.Addr(4*w), 4)) != oracle[w] {
				return false
			}
		}
		return true
	}
	for seed := int64(1); seed <= 6; seed++ {
		if !f(seed) {
			t.Fatalf("oracle mismatch at seed %d", seed)
		}
	}
}

// TestCheckInvariantsIsTheCheckersAudit: a machine run is held to the same
// per-block audit as a model-checker schedule (coherence.AuditBlock), so
// the two corruptions only the checker used to see — dirty data under a
// clean Exclusive label, a GI holder left on the sharer list — fail here too.
func TestCheckInvariantsIsTheCheckersAudit(t *testing.T) {
	m := New(gwConfig())
	a := m.Alloc(128, 64)
	m.Run(2, func(th *Thread) {
		th.Load32(a + 64) // both cores share the second block
		if th.ID() == 0 {
			th.Load32(a) // core 0 alone reads the first: granted Exclusive
		}
	})
	if err := m.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
	plant := func(name, want string, corrupt, restore func()) {
		t.Helper()
		corrupt()
		err := m.CheckInvariants(false)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: CheckInvariants = %v, want an error mentioning %q", name, err, want)
		}
		restore()
	}
	e := m.l1s[0].Array().Lookup(a)
	if e == nil || e.State != cache.Exclusive {
		t.Fatalf("core 0 holds %#x as %+v, want Exclusive", a, e)
	}
	plant("dirty exclusive", "dirty data in a clean state",
		func() { e.Data[0] ^= 0xFF }, func() { e.Data[0] ^= 0xFF })
	s := m.l1s[1].Array().Lookup(a + 64)
	if s == nil || s.State != cache.Shared {
		t.Fatalf("core 1 holds %#x as %+v, want Shared", a+64, s)
	}
	plant("listed GI", "as sharer but it holds GI",
		func() { s.State = cache.GI }, func() { s.State = cache.Shared })
	if err := m.CheckInvariants(true); err != nil {
		t.Fatalf("after restoring both copies: %v", err)
	}
}

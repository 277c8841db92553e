package machine

import (
	"fmt"
	"math/rand"
	"testing"

	"ghostwriter/internal/cache"
	"ghostwriter/internal/coherence/proto"
	"ghostwriter/internal/mem"
	"ghostwriter/internal/sim"
)

// tinyConfig builds a machine with pathologically small caches so that
// evictions, forwarded requests to EV_A blocks, stale PUTs, and L2 recalls
// happen constantly — the race paths a friendly working set never touches.
func tinyConfig(gw bool) Config {
	cfg := DefaultConfig()
	cfg.Cores = 8
	cfg.L1 = cache.Config{SizeBytes: 4 * 64, Ways: 2, BlockSize: 64} // 2 sets x 2 ways
	cfg.L2PerCoreBytes = 2 * 64                                      // 4 blocks per bank
	cfg.Protocol = protocolFor(gw)
	cfg.GITimeout = 128
	return cfg
}

// TestEvictionRaceSoak drives random traffic through the tiny machine with
// many seeds and validates the protocol invariants and load-value safety
// after every run. This is the test that exercises EV_A serving forwards,
// stale PUT acks, upgrade races, and recalls concurrently.
func TestEvictionRaceSoak(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 34}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, gw := range []bool{false, true} {
		for _, seed := range seeds {
			gw, seed := gw, seed
			t.Run(fmt.Sprintf("gw=%v/seed=%d", gw, seed), func(t *testing.T) {
				t.Parallel()
				m := New(tinyConfig(gw))
				// 24 blocks: 12x the L1 capacity, 1.5x the total L2.
				const words = 24 * 16
				a := m.AllocPadded(4 * words)
				nthreads := 8
				type acc struct {
					addr mem.Addr
					val  uint32
				}
				stores := make([][]acc, nthreads)
				loads := make([][]acc, nthreads)
				m.Run(nthreads, func(th *Thread) {
					rng := rand.New(rand.NewSource(seed*100 + int64(th.ID())))
					if gw {
						th.SetApproxDist(4)
					}
					for i := 0; i < 250; i++ {
						w := rng.Intn(words)
						addr := a + mem.Addr(4*w)
						switch rng.Intn(4) {
						case 0, 1:
							v := th.Load32(addr)
							loads[th.ID()] = append(loads[th.ID()], acc{addr, v})
						case 2:
							v := uint32(rng.Intn(4096))
							th.Store32(addr, v)
							stores[th.ID()] = append(stores[th.ID()], acc{addr, v})
						case 3:
							v := uint32(rng.Intn(4096))
							if gw {
								th.Scribble32(addr, v)
							} else {
								th.Store32(addr, v)
							}
							stores[th.ID()] = append(stores[th.ID()], acc{addr, v})
						}
					}
				})
				if err := m.CheckInvariants(!gw); err != nil {
					t.Fatal(err)
				}
				if m.Stats().L2Recalls == 0 {
					t.Error("tiny L2 should have recalled lines")
				}
				// Load-value safety: every loaded value was stored by
				// someone (or is the initial zero).
				written := map[mem.Addr]map[uint32]bool{}
				for _, ss := range stores {
					for _, s := range ss {
						if written[s.addr] == nil {
							written[s.addr] = map[uint32]bool{}
						}
						written[s.addr][s.val] = true
					}
				}
				for tid, ls := range loads {
					for _, l := range ls {
						if l.val != 0 && !written[l.addr][l.val] {
							t.Fatalf("thread %d loaded %d from %#x, never stored",
								tid, l.val, l.addr)
						}
					}
				}
			})
		}
	}
}

// TestWritebackThroughTinyHierarchy checks that dirty data survives the
// full journey L1 → (eviction) → L2 → (recall) → DRAM → back.
func TestWritebackThroughTinyHierarchy(t *testing.T) {
	m := New(tinyConfig(false))
	const blocks = 64
	a := m.AllocPadded(64 * blocks)
	m.Run(1, func(th *Thread) {
		for b := 0; b < blocks; b++ {
			th.Store32(a+mem.Addr(64*b), uint32(7000+b))
		}
		// Everything has been evicted from the 4-block L1 and mostly
		// recalled out of the 4-block-per-bank L2 by now.
		for b := 0; b < blocks; b++ {
			if got := th.Load32(a + mem.Addr(64*b)); got != uint32(7000+b) {
				t.Errorf("block %d: %d", b, got)
			}
		}
	})
	if m.Stats().DRAMAccesses == 0 {
		t.Error("tiny hierarchy must have gone to DRAM")
	}
	if err := m.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}

// TestApproxStatesSurviveEvictionPressure: GS/GI blocks forfeiting their
// updates on eviction must never corrupt the coherent view.
func TestApproxStatesSurviveEvictionPressure(t *testing.T) {
	m := New(tinyConfig(true))
	a := m.AllocPadded(64 * 8)
	m.Run(2, func(th *Thread) {
		th.SetApproxDist(4)
		switch th.ID() {
		case 0:
			th.Store32(a, 50)
			th.Barrier()
			th.Barrier()
		case 1:
			th.Barrier()
			th.Load32(a)
			th.Scribble32(a, 51) // GS, hidden
			// Blow the tiny L1: the GS block gets evicted (PUTS, updates
			// forfeited) long before these complete.
			for b := 1; b < 8; b++ {
				th.Store32(a+mem.Addr(64*b), uint32(b))
				th.Load32(a + mem.Addr(64*b))
			}
			th.Barrier()
		}
	})
	// The hidden 51 must be gone; the coherent 50 must have survived the
	// pressure.
	if got := m.ReadCoherent(a, 4); got != 50 {
		t.Fatalf("coherent value %d, want 50", got)
	}
	if err := m.CheckInvariants(false); err != nil {
		t.Fatal(err)
	}
}

// TestDeterminismUnderPressure re-runs a tiny-cache contended workload and
// demands bit-identical statistics.
func TestDeterminismUnderPressure(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		m := New(tinyConfig(true))
		a := m.AllocPadded(4 * 64 * 4)
		cycles := m.Run(8, func(th *Thread) {
			th.SetApproxDist(8)
			rng := rand.New(rand.NewSource(int64(th.ID())))
			for i := 0; i < 200; i++ {
				addr := a + mem.Addr(4*rng.Intn(256))
				if rng.Intn(2) == 0 {
					th.Load32(addr)
				} else {
					th.Scribble32(addr, uint32(i))
				}
			}
		})
		return cycles, m.Stats().TotalMsgs(), m.Stats().L2Recalls
	}
	c1, m1, r1 := run()
	c2, m2, r2 := run()
	if c1 != c2 || m1 != m2 || r1 != r2 {
		t.Fatalf("nondeterministic under pressure: (%d,%d,%d) vs (%d,%d,%d)",
			c1, m1, r1, c2, m2, r2)
	}
}

// TestConfigFuzz runs the stress kernel across randomized machine
// geometries (cores, L1 shape, L2 size, protocol tables, the residency
// policies among them) and validates the protocol invariants for each —
// configuration-dependent
// protocol bugs (set-index aliasing, sharer-bitmask overflow, bank mapping)
// die here.
func TestConfigFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	meshes := []struct {
		nodes int // folded into a 6x4, 4x2, 2x2 or 3x3 mesh
		dirs  []int
	}{
		{24, []int{0, 5, 18, 23}},
		{8, []int{0, 7}},
		{4, []int{0, 3}},
		{9, []int{0, 4, 8}}, // a home count that is no power of two
	}
	tables := proto.Names()
	for trial := 0; trial < 12; trial++ {
		mesh := meshes[rng.Intn(len(meshes))]
		cores := 2 + rng.Intn(mesh.nodes-1)
		ways := 1 << rng.Intn(3)       // 1, 2, 4
		sets := 1 << (1 + rng.Intn(4)) // 2..16
		blockSize := 64
		cfg := DefaultConfig()
		cfg.Cores = cores
		cfg.NoC.Nodes = mesh.nodes
		cfg.DirNodes = mesh.dirs
		cfg.L1 = cache.Config{SizeBytes: sets * ways * blockSize, Ways: ways, BlockSize: blockSize}
		cfg.L2PerCoreBytes = (1 + rng.Intn(4)) * blockSize
		cfg.Protocol = tables[rng.Intn(len(tables))]
		cfg.GITimeout = sim.Cycle(64 << rng.Intn(4))
		// Shared copies match the L2 home byte-for-byte unless GS can hide
		// writes in them.
		strict := proto.MustLookup(cfg.Protocol).L1[cache.GS][proto.EvLoad] == nil

		m := New(cfg)
		const words = 192
		a := m.AllocPadded(4 * words)
		nthreads := 1 + rng.Intn(cores)
		seed := rng.Int63()
		m.Run(nthreads, func(th *Thread) {
			r := rand.New(rand.NewSource(seed + int64(th.ID())))
			th.SetApproxDist(1 + r.Intn(10))
			for i := 0; i < 150; i++ {
				addr := a + mem.Addr(4*r.Intn(words))
				switch r.Intn(3) {
				case 0:
					th.Load32(addr)
				case 1:
					th.Store32(addr, uint32(r.Intn(1<<20)))
				default:
					th.Scribble32(addr, uint32(r.Intn(1<<20)))
				}
			}
		})
		if err := m.CheckInvariants(strict); err != nil {
			t.Fatalf("trial %d (%s, cores=%d mesh nodes=%d ways=%d sets=%d): %v",
				trial, cfg.Protocol, cores, mesh.nodes, ways, sets, err)
		}
	}
}

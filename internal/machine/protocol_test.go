package machine

import (
	"testing"

	"ghostwriter/internal/cache"
	"ghostwriter/internal/mem"
	"ghostwriter/internal/stats"
)

// stateOf returns the coherence state core i's L1 holds for addr
// (cache.Invalid with present=false when the tag is absent).
func stateOf(m *Machine, core int, a mem.Addr) (cache.State, bool) {
	arr := m.L1(core).Array()
	b := arr.Lookup(a)
	if b == nil {
		return cache.Invalid, false
	}
	return b.State, true
}

// TestFig3Transitions walks the documented edges of the paper's Fig. 3
// state machine, one scenario per edge, asserting the observed L1 states.
func TestFig3Transitions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = "ghostwriter"
	cfg.GITimeout = 512

	t.Run("I_load_E_then_store_M", func(t *testing.T) {
		m := New(cfg)
		a := m.AllocPadded(64)
		m.Run(1, func(th *Thread) {
			th.Load32(a)
			if st, ok := stateOf(m, 0, a); !ok || st != cache.Exclusive {
				t.Errorf("after cold load: %v, want E", st)
			}
			th.Store32(a, 1) // E → M is silent
			th.Sync()
			if st, _ := stateOf(m, 0, a); st != cache.Modified {
				t.Errorf("after store on E: %v, want M", st)
			}
		})
		if m.Stats().Msgs[stats.MsgUPGRADE] != 0 || m.Stats().Msgs[stats.MsgGETX] != 0 {
			t.Error("E→M must be silent")
		}
	})

	t.Run("S_store_UPGRADE_M", func(t *testing.T) {
		m := New(cfg)
		a := m.AllocPadded(64)
		m.Run(2, func(th *Thread) {
			th.Load32(a) // both load: E then S/S
			th.Barrier()
			if th.ID() == 0 {
				th.Store32(a, 7)
				th.Sync()
				if st, _ := stateOf(m, 0, a); st != cache.Modified {
					t.Errorf("after store on S: %v, want M", st)
				}
				if st, ok := stateOf(m, 1, a); ok && st != cache.Invalid {
					t.Errorf("remote copy after UPGRADE: %v, want I", st)
				}
			}
			th.Barrier()
		})
		if m.Stats().Msgs[stats.MsgUPGRADE] == 0 {
			t.Error("store on S must issue an UPGRADE")
		}
	})

	t.Run("S_scribble_GS_and_Inv_returns_I", func(t *testing.T) {
		m := New(cfg)
		a := m.AllocPadded(64)
		m.Run(2, func(th *Thread) {
			th.SetApproxDist(4)
			th.Load32(a)
			th.Barrier()
			if th.ID() == 1 {
				th.Scribble32(a, 1) // 0 → 1: within 4-distance → GS
				th.Sync()
				if st, _ := stateOf(m, 1, a); st != cache.GS {
					t.Errorf("after similar scribble on S: %v, want GS", st)
				}
			}
			th.Barrier()
			if th.ID() == 0 {
				th.Store32(a, 100) // conventional: invalidates the GS copy
			}
			th.Barrier()
			if th.ID() == 1 {
				if st, ok := stateOf(m, 1, a); !ok || st != cache.Invalid {
					t.Errorf("GS after remote store: %v (present=%v), want I with tag", st, ok)
				}
			}
			th.Barrier()
		})
		if m.Stats().GSEntries == 0 || m.Stats().GSInvalidations == 0 {
			t.Errorf("expected GS entry + invalidation, got %+v", m.Stats())
		}
	})

	t.Run("I_scribble_GI_and_timeout_returns_I", func(t *testing.T) {
		m := New(cfg)
		a := m.AllocPadded(64)
		m.Run(2, func(th *Thread) {
			th.SetApproxDist(4)
			switch th.ID() {
			case 0:
				th.Store32(a, 8)
				th.Barrier() // t1 caches it
				th.Barrier()
				th.Store32(a, 12) // invalidate t1
				th.Barrier()
			case 1:
				th.Barrier()
				th.Load32(a)
				th.Barrier()
				th.Barrier()
				// t1 now holds the tag in I. A similar scribble enters GI
				// without a GETX.
				before := m.Stats().Msgs[stats.MsgGETX]
				th.Scribble32(a, 13)
				th.Sync()
				if st, _ := stateOf(m, 1, a); st != cache.GI {
					t.Errorf("after similar scribble on I: %v, want GI", st)
				}
				if m.Stats().Msgs[stats.MsgGETX] != before {
					t.Error("GI entry must not send GETX")
				}
				th.Compute(2000) // outlive the timeout
				th.Sync()
				if st, _ := stateOf(m, 1, a); st != cache.Invalid {
					t.Errorf("GI after timeout: %v, want I", st)
				}
			}
		})
	})

	t.Run("M_remote_load_downgrades_to_S", func(t *testing.T) {
		m := New(cfg)
		a := m.AllocPadded(64)
		m.Run(2, func(th *Thread) {
			if th.ID() == 0 {
				th.Store32(a, 3)
			}
			th.Barrier()
			if th.ID() == 1 {
				if got := th.Load32(a); got != 3 {
					t.Errorf("forwarded load = %d, want 3", got)
				}
			}
			th.Barrier()
			st0, _ := stateOf(m, 0, a)
			st1, _ := stateOf(m, 1, a)
			if st0 != cache.Shared || st1 != cache.Shared {
				t.Errorf("after FwdGETS: owner=%v requestor=%v, want S/S", st0, st1)
			}
			th.Barrier()
		})
	})

	t.Run("M_remote_store_invalidates_owner", func(t *testing.T) {
		m := New(cfg)
		a := m.AllocPadded(64)
		m.Run(2, func(th *Thread) {
			if th.ID() == 0 {
				th.Store32(a, 3)
			}
			th.Barrier()
			if th.ID() == 1 {
				th.Store32(a+4, 9) // GETX → FwdGETX
			}
			th.Barrier()
			st0, ok0 := stateOf(m, 0, a)
			st1, _ := stateOf(m, 1, a)
			if ok0 && st0 != cache.Invalid {
				t.Errorf("old owner after FwdGETX: %v, want I", st0)
			}
			if st1 != cache.Modified {
				t.Errorf("new owner: %v, want M", st1)
			}
			th.Barrier()
		})
	})

	t.Run("GS_GI_grant_local_read_write", func(t *testing.T) {
		m := New(cfg)
		a := m.AllocPadded(64)
		m.Run(2, func(th *Thread) {
			th.SetApproxDist(4)
			th.Load32(a)
			th.Barrier()
			if th.ID() == 1 {
				th.Scribble32(a, 2) // → GS
				th.Sync()
				loads, hits := m.Stats().Loads, m.Stats().L1LoadHits
				if th.Load32(a) != 2 {
					t.Error("load on GS must see the hidden value")
				}
				if m.Stats().Loads != loads+1 || m.Stats().L1LoadHits != hits+1 {
					t.Error("load on GS must hit")
				}
				th.Store32(a, 3) // conventional store also hits (approx mode on)
				th.Sync()
				if st, _ := stateOf(m, 1, a); st != cache.GS {
					t.Errorf("store on GS left state %v, want GS", st)
				}
				if th.Load32(a) != 3 {
					t.Error("hidden store lost")
				}
			}
			th.Barrier()
		})
	})
}

// TestFig4MigratorySharing reproduces the paper's Fig. 4 two-core
// migratory false-sharing example: under baseline MESI every epoch costs an
// UPGRADE/GETS pair; under Ghostwriter the scribble in epoch 1 keeps Core
// 0's copy valid, so its epoch-2 load hits.
func TestFig4MigratorySharing(t *testing.T) {
	scenario := func(gw bool) (loadHits uint64, upgrades uint64, c0Reads uint32) {
		cfg := DefaultConfig()
		cfg.Protocol = protocolFor(gw)
		m := New(cfg)
		a := m.AllocPadded(64) // offsets 0 and 4 within one block
		m.Run(2, func(th *Thread) {
			th.SetApproxDist(4)
			switch th.ID() {
			case 0:
				th.Store32(a, 100) // epoch 0: store <a> at offset 0
				th.Barrier()
				th.Barrier()
				// Epoch 2: Core 0 loads its own offset again.
				before := m.Stats().L1LoadHits
				c0Reads = th.Load32(a)
				loadHits = m.Stats().L1LoadHits - before
			case 1:
				th.Barrier()
				// Epoch 1: Core 1 loads offset 4 then scribbles it.
				th.Load32(a + 4)
				th.Scribble32(a+4, 1) // 0 → 1, within 4-distance
				th.Barrier()
			}
		})
		return loadHits, m.Stats().Msgs[stats.MsgUPGRADE], c0Reads
	}

	baseHit, baseUpg, baseVal := scenario(false)
	gwHit, gwUpg, gwVal := scenario(true)

	if baseVal != 100 || gwVal != 100 {
		t.Fatalf("Core 0 must read its own value back: base=%d gw=%d", baseVal, gwVal)
	}
	if baseHit != 0 {
		t.Error("baseline: Core 0's epoch-2 load must miss (invalidated by Core 1's UPGRADE)")
	}
	if gwHit != 1 {
		t.Error("ghostwriter: Core 0's epoch-2 load must hit (Core 1 scribbled into GS)")
	}
	if gwUpg >= baseUpg {
		t.Errorf("ghostwriter should issue fewer UPGRADEs: %d vs %d", gwUpg, baseUpg)
	}
}

// TestFig5ProducerConsumer reproduces the paper's Fig. 5 three-core
// producer-consumer example: Core 1's scribble to its invalid copy enters
// GI without a GETX, so Core 2's epoch-1 load still hits its shared copy,
// and the GI timeout later restores coherence, losing the hidden update.
func TestFig5ProducerConsumer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = "ghostwriter"
	cfg.GITimeout = 512
	m := New(cfg)
	a := m.AllocPadded(64)
	var consumerHit bool
	m.Run(3, func(th *Thread) {
		th.SetApproxDist(4)
		switch th.ID() {
		case 1:
			th.Store32(a+4, 20) // epoch -1: Core 1 owns the block in M
			th.Barrier()
			th.Barrier() // epoch 0 ends: Core 0 produced, Core 2 consumed
			// Epoch 1: Core 1 becomes the producer but its copy is now I.
			before := m.Stats().Msgs[stats.MsgGETX]
			th.Scribble32(a+4, 21) // within 4-distance of the stale 20
			th.Sync()
			if st, _ := stateOf(m, 1, a); st != cache.GI {
				t.Errorf("producer state %v, want GI", st)
			}
			if m.Stats().Msgs[stats.MsgGETX] != before {
				t.Error("GI entry must suppress the GETX")
			}
			th.Barrier()
			th.Compute(2000) // epoch 2: timeout
			th.Sync()
			if st, _ := stateOf(m, 1, a); st != cache.Invalid {
				t.Errorf("after timeout: %v, want I", st)
			}
			th.Barrier()
		case 0:
			th.Barrier()
			th.Store32(a, 10) // epoch 0: Core 0 produces at offset 0
			th.Barrier()
			th.Barrier()
			th.Barrier()
		case 2:
			th.Barrier()
			th.Barrier()
			th.Load32(a) // consume Core 0's value; copy now S
			hitsBefore := m.Stats().L1LoadHits
			// Epoch 1: Core 1's hidden GI write must not have invalidated
			// our copy, so this load hits.
			if got := th.Load32(a); got != 10 {
				t.Errorf("consumer read %d, want 10", got)
			}
			consumerHit = m.Stats().L1LoadHits == hitsBefore+1
			th.Barrier()
			th.Barrier()
		}
	})
	if !consumerHit {
		t.Error("consumer load must hit: the GI write is hidden from the directory")
	}
	// The hidden 21 is lost; the coherent value at offset 4 is the old 20.
	if got := m.ReadCoherent(a+4, 4); got != 20 {
		t.Errorf("coherent value after timeout = %d, want 20 (update forfeited)", got)
	}
}

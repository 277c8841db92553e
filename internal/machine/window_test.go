package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"ghostwriter/internal/mem"
)

// Window-boundary pin at the machine level: Compute bursts of co-prime
// lengths walk the per-thread issue cycles across every residue of the
// lookahead grid, so memory operations land on window-edge cycles (the
// last cycle of one window, the first of the next) in every thread.

// windowEdgeFingerprint is scribbleFingerprint's boundary-targeted twin:
// same observable hash, but the kernel staggers issue cycles with
// Compute(1..3) so ops cluster on window boundaries instead of being
// smeared by uniform memory latency.
func windowEdgeFingerprint(tb testing.TB, protocol string, seed uint64) string {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Protocol = protocol
	m := New(cfg)

	const (
		threads = 6
		blocks  = 16
		ops     = 160
	)
	region := m.AllocPadded(blocks * 64)
	for i := 0; i < blocks*64/8; i++ {
		m.WriteBackingUint(region+mem.Addr(8*i), 8, splitmix64(seed+uint64(i)))
	}

	elapsed := m.Run(threads, func(th *Thread) {
		r := splitmix64(seed ^ uint64(th.ID())*0xFEED)
		th.SetApproxDist(4)
		for i := 0; i < ops; i++ {
			r = splitmix64(r)
			// Burst lengths 1..3 are co-prime with the default lookahead
			// (2), so consecutive ops issue on alternating grid residues
			// and every thread repeatedly hits the window-edge cycle.
			th.Compute(1 + r%3)
			a := region + mem.Addr(r%uint64(blocks*64)&^3)
			switch r >> 32 % 8 {
			case 0, 1, 2:
				th.Scribble32(a, uint32(r))
			case 3, 4:
				th.Store32(a, uint32(r>>8))
			case 5, 6:
				th.Load32(a)
			default:
				th.FetchAdd32(region+mem.Addr(th.ID()%4*64), 1)
			}
			if i == ops/2 {
				th.Barrier()
			}
		}
		th.Barrier()
	})

	var b strings.Builder
	fmt.Fprintf(&b, "elapsed=%d cycles=%d\n", elapsed, m.Cycles())
	stj, err := json.Marshal(m.Stats())
	if err != nil {
		tb.Fatal(err)
	}
	b.Write(stj)
	e := m.Energy()
	fmt.Fprintf(&b, "\nenergy=%x/%x\n", e.MemoryPJ, e.NetworkPJ)
	crj, err := json.Marshal(m.CoreReport())
	if err != nil {
		tb.Fatal(err)
	}
	b.Write(crj)
	for i := 0; i < blocks*64/8; i++ {
		fmt.Fprintf(&b, "%x,", m.ReadCoherent(region+mem.Addr(8*i), 8))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// TestWindowEdgeFingerprintAcrossShards pins the window-edge kernel's
// fingerprint per protocol (seed 0xB0DA), recorded at commit 0a96c2e on the
// shared-wheel engine, where the windowed engine agreed at 2 and 4 shards.
// The ghostwriter values moved only in Stats.Events when the GI sweep
// became one machine-level timer (EXPERIMENTS.md, "One GI-sweep timer").
func TestWindowEdgeFingerprintAcrossShards(t *testing.T) {
	pinned := map[string]string{
		"mesi":        "133eae517dcc0fa364760a817c11218c1c8214434e851b88fea598eb24d1a5a6",
		"ghostwriter": "34380ea680fee8aaba788d174b7ccf8ed33ed6f3c996e3d6f5fa742ae3d50866",
		"gw-noGI":     "a44c329824d09638b57b11530826dea5b472848387f1cf30f0738055be174803",
	}
	for _, p := range shardProtocols {
		p := p
		t.Run(p, func(t *testing.T) {
			if got := windowEdgeFingerprint(t, p, 0xB0DA); got != pinned[p] {
				t.Errorf("fingerprint %s, want %s", got, pinned[p])
			}
		})
	}
}

// TestWindowStatsLive pins that the observability counters are live on a
// machine run: windows drained, barriers merged, events counted.
func TestWindowStatsLive(t *testing.T) {
	m := New(DefaultConfig())
	region := m.AllocPadded(4 * 64)
	m.Run(4, func(th *Thread) {
		th.SetApproxDist(4)
		for i := 0; i < 50; i++ {
			th.Scribble32(region+mem.Addr(th.ID()%4*64), uint32(i))
			th.Load32(region + mem.Addr((th.ID()+1)%4*64))
		}
		th.Barrier()
	})
	if ws := m.WindowStats(); ws.Windows == 0 || ws.Merges == 0 || ws.Events == 0 {
		t.Errorf("window counters dead: %+v", ws)
	}
}

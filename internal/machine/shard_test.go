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

// shardProtocols are the registered tables the fingerprint pins sweep —
// the same set as the harness protocol-ablation grid.
var shardProtocols = []string{"mesi", "ghostwriter", "gw-noGI"}

// splitmix64 is a tiny deterministic PRNG for kernel op streams; the
// simulation must be a pure function of the seed, never of host state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// scribbleFingerprint runs a cross-tile scribble-heavy kernel on a fresh
// machine and returns a hash over everything observable: elapsed cycles,
// the merged stats and energy, the per-thread utilization report, and the
// coherent post-run memory image. It also holds the quiesced machine to
// CheckInvariants.
func scribbleFingerprint(tb testing.TB, protocol string, seed uint64, ddist int) string {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Protocol = protocol
	return configFingerprint(tb, cfg, seed, ddist)
}

// configFingerprint is scribbleFingerprint for an arbitrary machine config
// (the topology pins reuse the same kernel on other interconnects).
func configFingerprint(tb testing.TB, cfg Config, seed uint64, ddist int) string {
	tb.Helper()
	m := New(cfg)

	const (
		threads = 8
		blocks  = 32
		ops     = 300
	)
	region := m.AllocPadded(blocks * 64)
	for i := 0; i < blocks*64/8; i++ {
		m.WriteBackingUint(region+mem.Addr(8*i), 8, splitmix64(seed+uint64(i)))
	}

	elapsed := m.Run(threads, func(th *Thread) {
		r := splitmix64(seed ^ uint64(th.ID())*0x1234567)
		th.SetApproxDist(ddist)
		for i := 0; i < ops; i++ {
			r = splitmix64(r)
			a := region + mem.Addr(r%uint64(blocks*64)&^3)
			switch r >> 32 % 10 {
			case 0, 1, 2, 3:
				// Scribbles into shared blocks: GS/GI entries and the
				// hidden-update traffic the barrier-window merge must keep
				// in canonical order.
				th.Scribble32(a, uint32(r))
			case 4, 5:
				th.Store32(a, uint32(r>>8))
			case 6, 7, 8:
				th.Load32(a)
			default:
				th.FetchAdd32(region+mem.Addr(th.ID()%4*64), 1)
			}
			if i == ops/3 {
				th.Barrier()
			}
			if i == ops/2 {
				// Hop to a guaranteed-free core and keep scribbling from
				// there: migration is applied at the window merge.
				th.Migrate(th.N() + th.ID())
			}
		}
		th.Barrier()
	})
	if err := m.CheckInvariants(false); err != nil {
		tb.Fatal(err)
	}

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

// TestShardDeterminismScribbleTraffic pins the scribble kernel's
// fingerprint per protocol (seed 0xD00D, d = 8). The values were recorded
// at commit 0a96c2e on the shared-wheel engine, the last commit that also
// had a windowed one, which produced the same values at 2, 4 and 8 shards:
// they are the proof that deleting it moved nothing.
func TestShardDeterminismScribbleTraffic(t *testing.T) {
	pinned := map[string]string{
		"mesi":        "6575c98153bb2dad6d834c92e3ca53f6b05eb4c3e40113769a507d44f57116fb",
		"ghostwriter": "b8dd59e26e0b44c2d3f24a615bea9699bfce6943a84aadc43b251b9225fafb42",
		"gw-noGI":     "b8789e683de2533e1a829b7a6d93eca4019afa44151ee4216bb042607bac2c26",
	}
	for _, p := range shardProtocols {
		p := p
		t.Run(p, func(t *testing.T) {
			if got := scribbleFingerprint(t, p, 0xD00D, 8); got != pinned[p] {
				t.Errorf("fingerprint %s, want %s", got, pinned[p])
			}
		})
	}
}

// FuzzShardScribbles fuzzes determinism and soundness: for any seed and
// d-distance, two runs on fresh machines are byte-identical and the
// machine ends quiescent with every invariant intact. The seeds cover the
// GS/GI transition traffic crossing barrier windows in both protocol
// families.
func FuzzShardScribbles(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(0))
	f.Add(uint64(0xBADC0FFEE), uint8(8), uint8(1))
	f.Add(uint64(42), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, d uint8, protoIdx uint8) {
		p := shardProtocols[int(protoIdx)%len(shardProtocols)]
		ddist := int(d % 16)
		want := scribbleFingerprint(t, p, seed, ddist)
		if got := scribbleFingerprint(t, p, seed, ddist); got != want {
			t.Fatalf("seed=%d d=%d proto=%s: second run fingerprint %s, first %s", seed, ddist, p, got, want)
		}
	})
}

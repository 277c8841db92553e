package machine

import (
	"testing"

	"ghostwriter/internal/coherence"
	"ghostwriter/internal/noc"
	"ghostwriter/internal/sim"
)

// topoMachineConfig builds the machine for one registered topology the way
// the top-level package derives it: geometry from noc.Geometry, directory
// homes re-placed by noc.DefaultHomes, one core per node.
func topoMachineConfig(tb testing.TB, topo string, nodes int) Config {
	tb.Helper()
	cfg := DefaultConfig()
	geo, err := noc.Geometry(topo, nodes)
	if err != nil {
		tb.Fatalf("Geometry(%q, %d): %v", topo, nodes, err)
	}
	cfg.NoC = geo
	cfg.DirNodes = noc.DefaultHomes(geo, len(cfg.DirNodes))
	cfg.Cores = geo.Nodes
	if cfg.Cores > coherence.MaxCores {
		cfg.Cores = coherence.MaxCores
	}
	cfg.Protocol = "ghostwriter"
	return cfg
}

// TestTopologyShardDeterminism pins the scribble kernel's fingerprint on
// every registered interconnect at 24 nodes (seed 0xD00D, d = 8) — each
// topology stages its merges on its own conservative window width, the
// crossbar's 3-cycle lookahead vs 2 for the others. Recorded at commit
// 0a96c2e on the shared-wheel engine, where the windowed engine agreed at
// 2, 4 and 8 shards. The mesh is the Table 1 machine, so its value is
// TestShardDeterminismScribbleTraffic's ghostwriter one.
func TestTopologyShardDeterminism(t *testing.T) {
	pinned := map[string]string{
		"mesh":  "b8dd59e26e0b44c2d3f24a615bea9699bfce6943a84aadc43b251b9225fafb42",
		"ring":  "d9c7c46edd2d6400abcaac785f57834b00b1c1ef851d0dbe817ddad3e26fe3e6",
		"torus": "9dbdc62728d6cae8d8ac5379930f5d44a6dff944efaf9446f4f7ab9a76d78978",
		"xbar":  "85748cacfa87f20cb7e8b318c69b65cec592bbfc8287f989ad97b10bf1682394",
	}
	for _, name := range noc.Topologies() {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := topoMachineConfig(t, name, 24)
			wantWidth := sim.Cycle(2)
			if name == "xbar" {
				wantWidth = 3
			}
			if got := cfg.NoC.Lookahead(); got != wantWidth {
				t.Fatalf("window width %d, want %d — the per-topology lookahead must drive the barrier", got, wantWidth)
			}
			if got := configFingerprint(t, cfg, 0xD00D, 8); got != pinned[name] {
				t.Errorf("fingerprint %s, want %s", got, pinned[name])
			}
		})
	}
}

// TestTopologyShardDeterminismGrownGrids pins the kernel on the grown
// interconnects the sweep recipes use — a 64-tile (8x8) mesh and torus with
// one core per tile (seed 0xFEED, d = 8, same provenance) — holding the
// engine and the SharerSet-widened directory past the paper's 24 tiles.
func TestTopologyShardDeterminismGrownGrids(t *testing.T) {
	pinned := map[string]string{
		"mesh":  "3278305e0e1d58d76b4e946967466b2fa58f72556cfc8160c9ee6270790746b2",
		"torus": "382ac619fe0c495684f34e56c0699fbb618575921e24b8c78d5314bcdea99650",
	}
	for _, name := range []string{"mesh", "torus"} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := topoMachineConfig(t, name, 64)
			if cfg.Cores != 64 {
				t.Fatalf("cores = %d, want 64", cfg.Cores)
			}
			if got := configFingerprint(t, cfg, 0xFEED, 8); got != pinned[name] {
				t.Errorf("fingerprint %s, want %s", got, pinned[name])
			}
		})
	}
}

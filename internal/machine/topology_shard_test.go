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
// TestShardDeterminismScribbleTraffic's ghostwriter one. Every value here
// and below moved only in Stats.Events when the GI sweep became one
// machine-level timer (EXPERIMENTS.md, "One GI-sweep timer").
func TestTopologyShardDeterminism(t *testing.T) {
	pinned := map[string]string{
		"mesh":  "40be7eaeab9c61ff55e8730bf9e333552ea8c2f4f8f9687bdd67e85c7c6249fa",
		"ring":  "86eafb9de828141fbe2fcaca4a183ae9cd11c9890fddfac52c8d2252e560f6f0",
		"torus": "d72da04d931cf50db3d937c4d5a6ec5fdd00b3822d2955f553d4b67e0e2aee9c",
		"xbar":  "bac9e1bf3da18c5a64e12651dfa31a9659bf3551f9eb61207e7436c1041ee25c",
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
		"mesh":  "8b9f6776f0f2e501f557dfe0ccf68da209bbda4c00f4420a032252a9b2126b40",
		"torus": "89f84d463375a88da263c52bcf4994fdc82c2ab69a830774e24e33588db01ebd",
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

package harness

import (
	"bytes"
	"strings"
	"testing"

	ghostwriter "ghostwriter"
)

// TestTopologyAblationSmoke runs the full interconnect ablation grid once
// at test scale: every registered topology must carry every Table 2
// application end-to-end, and the paper's qualitative claims must hold on
// every network — traffic never increases and errors stay small.
func TestTopologyAblationSmoke(t *testing.T) {
	var buf bytes.Buffer
	rows, err := NewRunner(0).TopologyGrid(&buf, Options{Scale: 1, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	topos := ghostwriter.Topologies()
	wantRows := 6 * len(topos)
	if len(rows) != wantRows {
		t.Fatalf("got %d rows, want %d (6 apps x %d topologies)", len(rows), wantRows, len(topos))
	}
	byTopo := map[string]int{}
	for _, r := range rows {
		byTopo[r.Topo]++
		if r.BaseCycles == 0 || r.Cycles == 0 {
			t.Errorf("%s on %s: zero cycles", r.App, r.Topo)
		}
		if r.Nodes != 24 {
			t.Errorf("%s on %s: %d nodes, want the default 24", r.App, r.Topo, r.Nodes)
		}
		if r.TrafficNorm > 1.02 {
			t.Errorf("%s on %s: traffic increased (%.3f)", r.App, r.Topo, r.TrafficNorm)
		}
		if r.ErrorPct > 5 {
			t.Errorf("%s on %s: error %.3f%% too high", r.App, r.Topo, r.ErrorPct)
		}
	}
	for _, tp := range topos {
		if byTopo[tp] != 6 {
			t.Errorf("topology %s has %d rows, want 6", tp, byTopo[tp])
		}
		if !strings.Contains(buf.String(), tp) {
			t.Errorf("rendered table missing topology %s", tp)
		}
	}
}

// TestTopologySweep64TileTorus drives the grown-grid recipe through the
// full harness path: the headline application on a 64-tile (8x8) torus,
// baseline against d=8, with the protocol still paying off.
func TestTopologySweep64TileTorus(t *testing.T) {
	opt := Options{Scale: 1, Threads: 8, Topo: "torus", Nodes: 64}
	base, err := NewRunner(0).RunApp("linear_regression", opt, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	d8, err := NewRunner(0).RunApp("linear_regression", opt, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if base.Cycles == 0 || d8.Cycles == 0 {
		t.Fatal("64-tile torus run completed with zero cycles")
	}
	if got, want := d8.Stats.TotalMsgs() < base.Stats.TotalMsgs(), true; got != want {
		t.Errorf("d=8 traffic %d not below baseline %d on the 64-tile torus",
			d8.Stats.TotalMsgs(), base.Stats.TotalMsgs())
	}
	if d8.ErrorPct > 5 {
		t.Errorf("64-tile torus error %.3f%% too high", d8.ErrorPct)
	}
}

// TestRunAppRejectsBadTopology: an unknown interconnect must fail loudly
// before any simulation, not fall back to the mesh.
func TestRunAppRejectsBadTopology(t *testing.T) {
	if _, err := NewRunner(0).RunApp("histogram", Options{Scale: 1, Threads: 4, Topo: "hypercube"}, 0, false); err == nil {
		t.Fatal("unknown topology must error")
	}
	if _, err := NewRunner(0).RunApp("histogram", Options{Scale: 1, Threads: 4, Topo: "mesh", Nodes: 5000}, 0, false); err == nil {
		t.Fatal("oversized node count must error")
	}
}

// TestTable1RendersTopology: Table 1 must describe the interconnect the
// options select, not hard-coded mesh prose.
func TestTable1RendersTopology(t *testing.T) {
	cases := []struct {
		opt  Options
		want []string
	}{
		{Options{}, []string{"24 in-order cores", "6x4 mesh, XY routing", "4 directories at nodes [0 5 18 23]"}},
		{Options{Topo: "ring"}, []string{"24-node bidirectional ring", "nodes [0 6 12 18]"}},
		{Options{Topo: "torus", Nodes: 64}, []string{"64 in-order cores", "8x8 torus", "nodes [0 7 56 63]"}},
		{Options{Topo: "xbar"}, []string{"24-port crossbar, single hop"}},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		Table1(&buf, c.opt)
		for _, want := range c.want {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("Table 1 for %+v missing %q:\n%s", c.opt, want, buf.String())
			}
		}
	}
}

// TestManifestTopologies: the "topologies" experiment must lay out the
// full grid and be part of "all".
func TestManifestTopologies(t *testing.T) {
	items, err := Manifest("topologies", Options{Scale: 1, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := 6 * len(ghostwriter.Topologies()) * 2
	if len(items) != want {
		t.Fatalf("topologies manifest has %d items, want %d", len(items), want)
	}
	all, err := Manifest("all", Options{Scale: 1, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, it := range all {
		keys[it.Key] = true
	}
	missing := 0
	for _, it := range items {
		if !keys[it.Key] {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%d topology cells missing from the \"all\" manifest", missing)
	}
}

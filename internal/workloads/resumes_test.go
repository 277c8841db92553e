package workloads

import (
	"testing"

	ghostwriter "ghostwriter"
)

// TestResumesPerMemop caps the coroutine switches into kernels per memory
// operation on the apps behind the cell_hits and cell_sharing benchmark
// workloads, run as those cells run them (24 threads, baseline) at scale 1.
// A resume is the host's kernel↔engine handoff, and the count depends only
// on the kernels and the ring depth, so it gates on any host what timing
// pairs resolve only to a few percent. Each ceiling sits between the
// figure with the app's input loads declared constant (first column of
// the comment) and the figure with them as plain loads (second); tighten
// one in the change that lowers it.
func TestResumesPerMemop(t *testing.T) {
	for _, c := range []struct {
		app     string
		ceiling float64
	}{
		{"histogram", 0.55},         // 0.452, 0.722
		{"pca", 0.20},               // 0.100, 0.984
		{"priv_dot_product", 0.15},  // 0.063, 1.000
		{"sobel", 0.15},             // 0.063, 0.924
		{"linear_regression", 0.20}, // 0.127, 0.376
		{"kmeans", 0.20},            // 0.086, 0.405
	} {
		t.Run(c.app, func(t *testing.T) {
			f, err := Lookup(c.app)
			if err != nil {
				t.Fatal(err)
			}
			sys := runApp(t, f.New(1), ghostwriter.Baseline, 24, -1)
			st := sys.Stats()
			memops := st.Loads + st.Stores + st.Scribbles
			if got := float64(sys.Resumes()) / float64(memops); got > c.ceiling {
				t.Errorf("%d resumes over %d memops = %.3f per memop, ceiling %.2f", sys.Resumes(), memops, got, c.ceiling)
			}
		})
	}
}

// TestEventsPerMemop caps the engine events fired per memory operation on
// a cell where the GI sweep dominates them: histogram at d = 8 under
// ghostwriter on the 128-node torus, one thread per node, scale 1 (the
// torus256 benchmark cell's shape at half the nodes, and half the test
// time). Like resumes, the count depends only on the simulator, so it
// gates on any host. A sweep timer per L1 fired 9.13 events per memop
// here (14.81 on 256 nodes); one sweep event per period for the whole
// machine fires 6.51 (7.77).
func TestEventsPerMemop(t *testing.T) {
	const nodes, ceiling = 128, 8.0
	f, err := Lookup("histogram")
	if err != nil {
		t.Fatal(err)
	}
	app := f.New(1)
	sys := ghostwriter.New(ghostwriter.Config{Protocol: ghostwriter.Ghostwriter, Topo: "torus", Nodes: nodes})
	app.SetDDist(8)
	app.Prepare(sys)
	sys.Run(nodes, app.Kernel)
	st := sys.Stats()
	memops := st.Loads + st.Stores + st.Scribbles
	if got := float64(st.Events) / float64(memops); got > ceiling {
		t.Errorf("%d events over %d memops = %.2f per memop, ceiling %.1f", st.Events, memops, got, ceiling)
	}
}

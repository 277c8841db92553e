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

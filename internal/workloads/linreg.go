package workloads

import ghostwriter "ghostwriter"

// LinearRegression is the Phoenix linear_regression benchmark: fit
// y = slope*x + intercept over a stream of (x, y) byte pairs. Each thread
// accumulates five statistics (SX, SXX, SY, SYY, SXY) into its own
// lreg_args struct. As §4.2 of the paper describes, the struct is smaller
// than a cache block (52 B in Phoenix; 56 B here after 8-byte alignment of
// the accumulators), so neighbouring threads' structs pack into the same
// blocks and every update exhibits migratory false sharing — this is the
// application where Ghostwriter helps most.
type LinearRegression struct {
	n     int
	xs    []uint8
	ys    []uint8
	ddist int

	ptsAddr  ghostwriter.Addr
	args     ghostwriter.Addr // packed lreg_args[nthreads], 56 B stride
	totals   ghostwriter.Addr // uint64[5] reduced by the main thread
	nthreads int
	golden   []float64
}

// lregStride is the packed per-thread struct footprint: five 8-byte
// accumulators plus the 16 bytes of pointer/length bookkeeping fields the
// Phoenix struct carries, giving a footprint smaller than a 64 B block.
const (
	lregStride = 56
	lregFields = 5
)

// NewLinearRegression builds the app. The paper uses a 50 MB point file;
// scale 1 streams 12k synthetic points whose y is a noisy linear function
// of x.
func NewLinearRegression(scale int) *LinearRegression {
	n := 12_000 * scale
	l := &LinearRegression{n: n, ddist: -1}
	r := rng(11)
	l.xs = make([]uint8, n)
	l.ys = make([]uint8, n)
	// Byte-valued coordinates as parsed from the Phoenix key file. The
	// accumulator write-through stream then mixes frequently-similar values
	// (SX, SY steps) with frequently-dissimilar ones (SXX, SXY steps), so
	// GS residencies keep ending in conventional escalations that publish
	// the register-carried running totals — which is what keeps output
	// error low (§4.3) while still servicing most S-store misses from GS
	// (§4.1).
	for i := 0; i < n; i++ {
		x := r.Intn(256)
		y := (x*3)/4 + 20 + r.Intn(17) - 8
		if y > 255 {
			y = 255
		}
		l.xs[i] = uint8(x)
		l.ys[i] = uint8(y)
	}
	l.golden = regress(goldenSums(l.xs, l.ys), n)
	return l
}

// goldenSums computes the exact five statistics.
func goldenSums(xs, ys []uint8) [lregFields]uint64 {
	var s [lregFields]uint64
	for i := range xs {
		x, y := uint64(xs[i]), uint64(ys[i])
		s[0] += x
		s[1] += x * x
		s[2] += y
		s[3] += y * y
		s[4] += x * y
	}
	return s
}

// regress turns the five statistics into [slope, intercept].
func regress(s [lregFields]uint64, n int) []float64 {
	sx, sxx, sy, sxy := float64(s[0]), float64(s[1]), float64(s[2]), float64(s[4])
	fn := float64(n)
	denom := fn*sxx - sx*sx
	slope := (fn*sxy - sx*sy) / denom
	intercept := (sy - slope*sx) / fn
	return []float64{slope, intercept}
}

// SetDDist implements App.
func (l *LinearRegression) SetDDist(d int) { l.ddist = d }

// Prepare implements App.
func (l *LinearRegression) Prepare(sys *ghostwriter.System) {
	pts := make([]uint8, 2*l.n)
	for i := 0; i < l.n; i++ {
		pts[2*i] = l.xs[i]
		pts[2*i+1] = l.ys[i]
	}
	// The points are never written: the kernel loads them with LoadConst8.
	l.ptsAddr = sys.Alloc(len(pts), 64)
	sys.Preload(l.ptsAddr, pts)
	// The packed struct array: 56 B stride deliberately mis-tiles the 64 B
	// blocks, reproducing the paper's false-sharing hotspot. Each struct
	// also carries the Phoenix bookkeeping fields (points pointer and
	// element count) after the five accumulators.
	l.args = sys.Alloc(lregStride*sys.Cores(), 8)
	l.totals = sys.Alloc(8*lregFields, 8)
}

// field returns the address of accumulator f in thread tid's struct.
func (l *LinearRegression) field(tid, f int) ghostwriter.Addr {
	return l.args + ghostwriter.Addr(lregStride*tid+8*f)
}

// Kernel implements App.
func (l *LinearRegression) Kernel(t *ghostwriter.Thread) {
	if t.ID() == 0 {
		l.nthreads = t.N()
	}
	if t.ID() == 0 {
		// The main thread fills in each worker's bookkeeping fields before
		// the parallel loop, as Phoenix's dispatcher does.
		for tid := 0; tid < t.N(); tid++ {
			wlo, whi := span(l.n, tid, t.N())
			t.Store64(l.args+ghostwriter.Addr(lregStride*tid+8*lregFields), uint64(whi-wlo))
		}
	}
	t.Barrier()
	t.SetApproxDist(l.ddist)
	lo, hi := span(l.n, t.ID(), t.N())
	// The five statistics live in registers and are written through to the
	// shared struct on every element — the store stream §4.2 measures,
	// where over 12% of stores miss on shared blocks. The loop bound is
	// re-read from the struct's num_elems field each iteration (the
	// compiler cannot hoist it past the stores into *args), which is what
	// pulls invalidated struct blocks back to Shared — and why 9% of the
	// application's loads miss on invalid blocks.
	nElems := l.args + ghostwriter.Addr(lregStride*t.ID()+8*lregFields)
	var acc [lregFields]uint64
	for i := lo; uint64(i-lo) < t.Load64(nElems); i++ {
		x := uint64(t.LoadConst8(l.ptsAddr + ghostwriter.Addr(2*i)))
		y := uint64(t.LoadConst8(l.ptsAddr + ghostwriter.Addr(2*i+1)))
		for f, delta := range [lregFields]uint64{x, x * x, y, y * y, x * y} {
			acc[f] += delta
			t.Scribble64(l.field(t.ID(), f), acc[f])
		}
	}
	_ = hi
	// approx_end (Listing 3): the approximate region closes with the hot
	// loop, so the result handoff below runs precisely and publishes the
	// register-carried totals coherently. This is how the paper's
	// programming model keeps output error bounded to the divergence
	// accumulated *inside* the region.
	t.SetApproxDist(-1)
	for f := 0; f < lregFields; f++ {
		t.Store64(l.field(t.ID(), f), acc[f])
	}
	t.Barrier()
	if t.ID() == 0 {
		for f := 0; f < lregFields; f++ {
			var sum uint64
			for tid := 0; tid < t.N(); tid++ {
				sum += t.Load64(l.field(tid, f))
			}
			t.Store64(l.totals+ghostwriter.Addr(8*f), sum)
		}
	}
}

// Output implements App: [slope, intercept] from the coherent totals.
func (l *LinearRegression) Output(sys *ghostwriter.System) []float64 {
	var s [lregFields]uint64
	for f := range s {
		s[f] = sys.ReadCoherent64(l.totals + ghostwriter.Addr(8*f))
	}
	return regress(s, l.n)
}

// Golden implements App.
func (l *LinearRegression) Golden() []float64 { return l.golden }

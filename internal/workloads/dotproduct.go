package workloads

import ghostwriter "ghostwriter"

// DotProduct is the Listing 1 / Listing 2 microbenchmark pair from §2 of
// the paper. The naive version (Listing 1) writes each thread's running
// partial sum into its slot of the packed shared array total[] on every
// element, so all threads hammer the same cache block — the canonical
// false-sharing pattern Fig. 1 and Fig. 12 are built on. The privatized
// version (Listing 2) accumulates in a register and stores once.
type DotProduct struct {
	n          int
	privatized bool
	a, b       []uint8
	ddist      int

	aAddr, bAddr ghostwriter.Addr
	total        ghostwriter.Addr // packed uint32[nthreads]
	nthreads     int
	golden       []float64
}

// NewDotProduct builds the microbenchmark. The paper feeds 8M ints in
// [0,255]; scale 1 uses 24k elements, growing linearly.
func NewDotProduct(scale int, privatized bool) *DotProduct {
	n := 24_000 * scale
	r := rng(42)
	d := &DotProduct{n: n, privatized: privatized, ddist: -1}
	d.a = make([]uint8, n)
	d.b = make([]uint8, n)
	for i := range d.a {
		d.a[i] = uint8(r.Intn(256))
		d.b[i] = uint8(r.Intn(256))
	}
	var sum float64
	for i := range d.a {
		sum += float64(uint32(d.a[i]) * uint32(d.b[i]))
	}
	d.golden = []float64{sum}
	return d
}

// SetDDist implements App.
func (d *DotProduct) SetDDist(dd int) { d.ddist = dd }

// Prepare implements App.
func (d *DotProduct) Prepare(sys *ghostwriter.System) {
	// a and b are never written: the kernel loads them with LoadConst8.
	d.aAddr = sys.Alloc(d.n, 64)
	sys.Preload(d.aAddr, d.a)
	d.bAddr = sys.Alloc(d.n, 64)
	sys.Preload(d.bAddr, d.b)
	// total[] is deliberately packed: all slots in one or two blocks, as
	// in Listing 1.
	d.total = sys.Alloc(4*sys.Cores(), 4)
}

// Kernel implements App.
func (d *DotProduct) Kernel(t *ghostwriter.Thread) {
	if t.ID() == 0 {
		d.nthreads = t.N()
	}
	t.SetApproxDist(d.ddist)
	lo, hi := span(d.n, t.ID(), t.N())
	mine := d.total + ghostwriter.Addr(4*t.ID())
	if d.privatized {
		// Listing 2: accumulate in a register, store once.
		var sum uint32
		for i := lo; i < hi; i++ {
			av := uint32(t.LoadConst8(d.aAddr + ghostwriter.Addr(i)))
			bv := uint32(t.LoadConst8(d.bAddr + ghostwriter.Addr(i)))
			sum += av * bv
		}
		t.Store32(mine, sum)
		return
	}
	// Listing 1, literally: total[thread_id] += a[i]*b[i] — a naive
	// read-modify-write of the packed shared array on every element. Every
	// thread contends for the same block, and under Ghostwriter a reload
	// after an invalidation or GI timeout resumes accumulation from the
	// stale coherent value, permanently dropping the hidden updates — the
	// mechanism behind Fig. 12's error growth with the timeout period.
	for i := lo; i < hi; i++ {
		av := uint32(t.LoadConst8(d.aAddr + ghostwriter.Addr(i)))
		bv := uint32(t.LoadConst8(d.bAddr + ghostwriter.Addr(i)))
		cur := t.Load32(mine)
		t.Scribble32(mine, cur+av*bv)
	}
}

// Output implements App: the dot product summed from the coherent view of
// the per-thread slots.
func (d *DotProduct) Output(sys *ghostwriter.System) []float64 {
	var sum float64
	for i := 0; i < d.nthreads; i++ {
		sum += float64(sys.ReadCoherent32(d.total + ghostwriter.Addr(4*i)))
	}
	return []float64{sum}
}

// Golden implements App.
func (d *DotProduct) Golden() []float64 { return d.golden }

package workloads

import (
	"math"

	ghostwriter "ghostwriter"
)

// BlackScholes is the AxBench blackscholes benchmark: price European call
// options with the closed-form Black–Scholes model. Multi-threaded as in
// the paper (contiguous option chunks per thread, the OpenMP static
// schedule). Option pricing is compute-dominated and each thread writes its
// own contiguous output range, so coherence misses are negligible and — as
// the paper reports — Ghostwriter neither helps nor hurts.
type BlackScholes struct {
	n          int
	s, k, v, t []float32
	ddist      int

	sAddr, kAddr, vAddr, tAddr ghostwriter.Addr
	out                        ghostwriter.Addr // float32[n]
	counts                     ghostwriter.Addr // packed uint32[nthreads] progress counters
	golden                     []float64
}

// bsRate is the risk-free rate used for every option.
const bsRate = 0.02

// bsComputeCycles models the option-pricing FLOPs (log, exp, erf chains)
// between memory operations.
const bsComputeCycles = 150

// NewBlackScholes builds the app. The paper prices 200K options; scale 1
// prices 1500.
func NewBlackScholes(scale int) *BlackScholes {
	n := 1500 * scale
	b := &BlackScholes{n: n, ddist: -1}
	r := rng(31)
	b.s = make([]float32, n)
	b.k = make([]float32, n)
	b.v = make([]float32, n)
	b.t = make([]float32, n)
	b.golden = make([]float64, n)
	for i := 0; i < n; i++ {
		b.s[i] = 20 + 80*r.Float32()
		b.k[i] = 20 + 80*r.Float32()
		b.v[i] = 0.1 + 0.5*r.Float32()
		b.t[i] = 0.25 + 2*r.Float32()
		b.golden[i] = float64(callPrice(b.s[i], b.k[i], b.v[i], b.t[i]))
	}
	return b
}

// callPrice is the Black–Scholes closed form, evaluated identically by the
// kernel (on loaded values) and the golden path.
func callPrice(s, k, v, t float32) float32 {
	sf, kf, vf, tf := float64(s), float64(k), float64(v), float64(t)
	d1 := (math.Log(sf/kf) + (bsRate+vf*vf/2)*tf) / (vf * math.Sqrt(tf))
	d2 := d1 - vf*math.Sqrt(tf)
	return float32(sf*cndf(d1) - kf*math.Exp(-bsRate*tf)*cndf(d2))
}

// cndf is the cumulative normal distribution function.
func cndf(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }

// SetDDist implements App.
func (b *BlackScholes) SetDDist(d int) { b.ddist = d }

// Prepare implements App.
func (b *BlackScholes) Prepare(sys *ghostwriter.System) {
	// The four option arrays are never written: the kernel loads them with
	// LoadConstF32.
	load := func(vals []float32) ghostwriter.Addr {
		a := sys.Alloc(4*len(vals), 64)
		for i, v := range vals {
			sys.PreloadUint(a+ghostwriter.Addr(4*i), 4, uint64(math.Float32bits(v)))
		}
		return a
	}
	b.sAddr = load(b.s)
	b.kAddr = load(b.k)
	b.vAddr = load(b.v)
	b.tAddr = load(b.t)
	b.out = sys.Alloc(4*b.n, 4)
	b.counts = sys.Alloc(4*sys.Cores(), 4)
}

// Kernel implements App.
func (b *BlackScholes) Kernel(t *ghostwriter.Thread) {
	t.SetApproxDist(b.ddist)
	lo, hi := span(b.n, t.ID(), t.N())
	mine := b.counts + ghostwriter.Addr(4*t.ID())
	for i := lo; i < hi; i++ {
		s := t.LoadConstF32(b.sAddr + ghostwriter.Addr(4*i))
		k := t.LoadConstF32(b.kAddr + ghostwriter.Addr(4*i))
		v := t.LoadConstF32(b.vAddr + ghostwriter.Addr(4*i))
		tt := t.LoadConstF32(b.tAddr + ghostwriter.Addr(4*i))
		t.Compute(bsComputeCycles)
		t.ScribbleF32(b.out+ghostwriter.Addr(4*i), callPrice(s, k, v, tt))
		if (i-lo)%64 == 63 {
			// Coarse shared progress counter (packed across threads, like
			// the instrumentation counters real kernels keep).
			c := t.Load32(mine)
			t.Scribble32(mine, c+64)
		}
	}
}

// Output implements App.
func (b *BlackScholes) Output(sys *ghostwriter.System) []float64 {
	out := make([]float64, b.n)
	for i := range out {
		bits := sys.ReadCoherent32(b.out + ghostwriter.Addr(4*i))
		out[i] = float64(math.Float32frombits(bits))
	}
	return out
}

// Golden implements App.
func (b *BlackScholes) Golden() []float64 { return b.golden }

package workloads

import (
	"math"

	ghostwriter "ghostwriter"
)

// FFT is an AxBench-style fft benchmark, included as an extension: an
// in-place radix-2 decimation-in-time FFT over a shared complex signal.
// Each stage's butterflies are disjoint, so threads split them and
// synchronize at stage barriers; with eight complex64 values per cache
// block, interleaved butterfly assignment falsely shares blocks at every
// stage, and later stages read values earlier stages wrote on other cores —
// both of the paper's sharing patterns in one kernel. Stage outputs are
// written as scribbles (signal processing tolerates low-mantissa noise);
// the final normalization pass runs precisely.
type FFT struct {
	n      int // points (power of two)
	signal []complex64
	ddist  int

	reAddr, imAddr ghostwriter.Addr
	golden         []float64
}

// NewFFT builds the app: scale 1 transforms 1024 points of a synthetic
// multi-tone signal; each scale doubling doubles the points.
func NewFFT(scale int) *FFT {
	n := 1024
	for s := 1; s < scale; s++ {
		n *= 2
	}
	f := &FFT{n: n, ddist: -1}
	r := rng(71)
	f.signal = make([]complex64, n)
	for i := range f.signal {
		x := float64(i)
		v := math.Sin(2*math.Pi*5*x/float64(n)) +
			0.5*math.Sin(2*math.Pi*17*x/float64(n)) +
			0.1*r.Float64()
		f.signal[i] = complex(float32(v), 0)
	}
	f.golden = f.goldenOutput()
	return f
}

// bitRev returns the bit-reversal permutation index of i for n points.
func bitRev(i, n int) int {
	r := 0
	for n >>= 1; n > 0; n >>= 1 {
		r = (r << 1) | (i & 1)
		i >>= 1
	}
	return r
}

// twiddle returns e^{-2πi·k/m} as a complex64 (the same rounding the
// kernel uses).
func twiddle(k, m int) complex64 {
	ang := -2 * math.Pi * float64(k) / float64(m)
	return complex(float32(math.Cos(ang)), float32(math.Sin(ang)))
}

// goldenOutput runs the identical FFT (same float32 arithmetic, same
// butterfly order within stages — stages are order-independent because
// butterflies are disjoint) on the host.
func (f *FFT) goldenOutput() []float64 {
	buf := make([]complex64, f.n)
	for i, v := range f.signal {
		buf[bitRev(i, f.n)] = v
	}
	for m := 2; m <= f.n; m *= 2 {
		half := m / 2
		for base := 0; base < f.n; base += m {
			for k := 0; k < half; k++ {
				u := buf[base+k]
				v := buf[base+k+half] * twiddle(k, m)
				buf[base+k] = u + v
				buf[base+k+half] = u - v
			}
		}
	}
	out := make([]float64, 2*f.n)
	for i, c := range buf {
		out[2*i] = float64(real(c))
		out[2*i+1] = float64(imag(c))
	}
	return out
}

// SetDDist implements App.
func (f *FFT) SetDDist(d int) { f.ddist = d }

// Prepare implements App.
func (f *FFT) Prepare(sys *ghostwriter.System) {
	// Planar layout (separate real and imaginary arrays), bit-reversed on
	// load, exactly as the golden path starts.
	f.reAddr = sys.Alloc(4*f.n, 64)
	f.imAddr = sys.Alloc(4*f.n, 64)
	for i, v := range f.signal {
		j := bitRev(i, f.n)
		sys.PreloadUint(f.reAddr+ghostwriter.Addr(4*j), 4, uint64(math.Float32bits(real(v))))
		sys.PreloadUint(f.imAddr+ghostwriter.Addr(4*j), 4, uint64(math.Float32bits(imag(v))))
	}
}

// Kernel implements App.
func (f *FFT) Kernel(t *ghostwriter.Thread) {
	t.SetApproxDist(f.ddist)
	for m := 2; m <= f.n; m *= 2 {
		half := m / 2
		nb := f.n / m // butterfly groups this stage
		for g := 0; g < nb; g++ {
			if g%t.N() != t.ID() {
				continue
			}
			base := g * m
			for k := 0; k < half; k++ {
				i0 := base + k
				i1 := base + k + half
				ur := t.LoadF32(f.reAddr + ghostwriter.Addr(4*i0))
				ui := t.LoadF32(f.imAddr + ghostwriter.Addr(4*i0))
				vr := t.LoadF32(f.reAddr + ghostwriter.Addr(4*i1))
				vi := t.LoadF32(f.imAddr + ghostwriter.Addr(4*i1))
				t.Compute(12) // twiddle multiply + adds
				w := twiddle(k, m)
				u := complex(ur, ui)
				v := complex(vr, vi) * w
				a, b := u+v, u-v
				t.ScribbleF32(f.reAddr+ghostwriter.Addr(4*i0), real(a))
				t.ScribbleF32(f.imAddr+ghostwriter.Addr(4*i0), imag(a))
				t.ScribbleF32(f.reAddr+ghostwriter.Addr(4*i1), real(b))
				t.ScribbleF32(f.imAddr+ghostwriter.Addr(4*i1), imag(b))
			}
		}
		t.Barrier()
	}
}

// Output implements App.
func (f *FFT) Output(sys *ghostwriter.System) []float64 {
	out := make([]float64, 2*f.n)
	for i := 0; i < f.n; i++ {
		rb := sys.ReadCoherent32(f.reAddr + ghostwriter.Addr(4*i))
		ib := sys.ReadCoherent32(f.imAddr + ghostwriter.Addr(4*i))
		out[2*i] = float64(math.Float32frombits(rb))
		out[2*i+1] = float64(math.Float32frombits(ib))
	}
	return out
}

// Golden implements App.
func (f *FFT) Golden() []float64 { return f.golden }

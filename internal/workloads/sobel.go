package workloads

import (
	"math"

	ghostwriter "ghostwriter"
)

// Sobel is the AxBench sobel benchmark, included as an extension beyond the
// paper's Table 2: 3x3 edge detection over a grayscale image. Threads
// process interleaved rows and write gradient magnitudes into a shared
// output image; with rows narrower than a multiple of the block size,
// vertically adjacent rows (different threads) falsely share boundary
// blocks, and gradient values are small and similar — good scribble food.
type Sobel struct {
	w, h   int
	pixels []uint8
	ddist  int

	pixAddr ghostwriter.Addr
	outAddr ghostwriter.Addr
	golden  []float64
}

// NewSobel builds the app: scale 1 filters a 56x56 synthetic image (a
// width that deliberately mis-tiles 64-byte blocks).
func NewSobel(scale int) *Sobel {
	s := &Sobel{w: 56, h: 56 * scale, ddist: -1}
	r := rng(67)
	s.pixels = make([]uint8, s.w*s.h)
	for y := 0; y < s.h; y++ {
		for x := 0; x < s.w; x++ {
			v := 128 + 100*math.Sin(float64(x+y)/6) + float64(r.Intn(21)-10)
			s.pixels[y*s.w+x] = clamp8(int(v))
		}
	}
	s.golden = s.goldenOutput()
	return s
}

// sobelAt computes the gradient magnitude at (x, y) from an image accessor.
func sobelAt(at func(x, y int) int, x, y int) uint8 {
	gx := -at(x-1, y-1) - 2*at(x-1, y) - at(x-1, y+1) +
		at(x+1, y-1) + 2*at(x+1, y) + at(x+1, y+1)
	gy := -at(x-1, y-1) - 2*at(x, y-1) - at(x+1, y-1) +
		at(x-1, y+1) + 2*at(x, y+1) + at(x+1, y+1)
	m := int(math.Sqrt(float64(gx*gx + gy*gy)))
	return clamp8(m)
}

// goldenOutput runs the identical filter on the host.
func (s *Sobel) goldenOutput() []float64 {
	out := make([]float64, s.w*s.h)
	at := func(x, y int) int { return int(s.pixels[y*s.w+x]) }
	for y := 1; y < s.h-1; y++ {
		for x := 1; x < s.w-1; x++ {
			out[y*s.w+x] = float64(sobelAt(at, x, y))
		}
	}
	return out
}

// SetDDist implements App.
func (s *Sobel) SetDDist(d int) { s.ddist = d }

// Prepare implements App.
func (s *Sobel) Prepare(sys *ghostwriter.System) {
	s.pixAddr = sys.Alloc(len(s.pixels), 64)
	sys.Preload(s.pixAddr, s.pixels)
	s.outAddr = sys.Alloc(s.w*s.h, 4)
}

// Kernel implements App.
func (s *Sobel) Kernel(t *ghostwriter.Thread) {
	// Per-region approx_dist (§3.1): the output is byte-wide and written
	// once per pixel, so the programmer picks a small d — at d near the
	// byte width, a scribble against a stale zero would accept half of all
	// gradient values and silently drop them.
	d := s.ddist
	if d > 3 {
		d = 3
	}
	t.SetApproxDist(d)
	for y := 1; y < s.h-1; y++ {
		if y%t.N() != t.ID() {
			continue
		}
		for x := 1; x < s.w-1; x++ {
			at := func(ax, ay int) int {
				return int(t.Load8(s.pixAddr + ghostwriter.Addr(ay*s.w+ax)))
			}
			t.Compute(14) // the 3x3 convolution + sqrt
			t.Scribble8(s.outAddr+ghostwriter.Addr(y*s.w+x), sobelAt(at, x, y))
		}
	}
}

// Output implements App.
func (s *Sobel) Output(sys *ghostwriter.System) []float64 {
	out := make([]float64, s.w*s.h)
	for i := range out {
		out[i] = float64(uint8(sys.ReadCoherent(s.outAddr+ghostwriter.Addr(i), 1)))
	}
	return out
}

// Golden implements App.
func (s *Sobel) Golden() []float64 { return s.golden }

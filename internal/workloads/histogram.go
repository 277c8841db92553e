package workloads

import ghostwriter "ghostwriter"

// Histogram is the Phoenix histogram benchmark: count the occurrences of
// every red, green, and blue intensity in an RGB image. As in Phoenix, each
// thread accumulates into its own bank of bins inside one shared allocation
// (the layout prior tools flagged for potential false sharing on
// arg.blue [12]), and the main thread reduces the banks at the end. Like
// the paper observed on their machine, the block-aligned bank size means
// very little false sharing actually materializes at runtime — histogram is
// one of the applications Ghostwriter leaves essentially untouched.
type Histogram struct {
	w, h   int
	pixels []uint8 // packed RGB
	ddist  int

	pixAddr  ghostwriter.Addr
	banks    ghostwriter.Addr // uint32[nthreads][3*256]
	result   ghostwriter.Addr // uint32[3*256]
	nthreads int
	golden   []float64
}

const histBins = 3 * 256

// NewHistogram builds the app. The paper processes a 400 MB image; scale 1
// uses a 96x96 synthetic image (gradient plus seeded noise).
func NewHistogram(scale int) *Histogram {
	h := &Histogram{w: 96, h: 96 * scale, ddist: -1}
	r := rng(7)
	h.pixels = make([]uint8, 3*h.w*h.h)
	for y := 0; y < h.h; y++ {
		for x := 0; x < h.w; x++ {
			i := 3 * (y*h.w + x)
			h.pixels[i] = uint8((x*255/h.w + r.Intn(32)) & 0xFF)
			h.pixels[i+1] = uint8((y*255/h.h + r.Intn(32)) & 0xFF)
			h.pixels[i+2] = uint8(((x + y) * 255 / (h.w + h.h) * 2 % 256) ^ r.Intn(16))
		}
	}
	h.golden = make([]float64, histBins)
	for p := 0; p < h.w*h.h; p++ {
		h.golden[int(h.pixels[3*p])]++
		h.golden[256+int(h.pixels[3*p+1])]++
		h.golden[512+int(h.pixels[3*p+2])]++
	}
	return h
}

// SetDDist implements App.
func (h *Histogram) SetDDist(d int) { h.ddist = d }

// Prepare implements App.
func (h *Histogram) Prepare(sys *ghostwriter.System) {
	h.pixAddr = sys.Alloc(len(h.pixels), 64)
	sys.Preload(h.pixAddr, h.pixels)
	// One shared allocation holding all threads' bin banks back to back,
	// exactly like Phoenix's malloc'd arrays.
	h.banks = sys.Alloc(4*histBins*sys.Cores(), 4)
	h.result = sys.Alloc(4*histBins, 4)
}

// Kernel implements App.
func (h *Histogram) Kernel(t *ghostwriter.Thread) {
	if t.ID() == 0 {
		h.nthreads = t.N()
	}
	t.SetApproxDist(h.ddist)
	mine := h.banks + ghostwriter.Addr(4*histBins*t.ID())
	lo, hi := span(h.w*h.h, t.ID(), t.N())
	for p := lo; p < hi; p++ {
		base := h.pixAddr + ghostwriter.Addr(3*p)
		r := int(t.Load8(base))
		g := int(t.Load8(base + 1))
		b := int(t.Load8(base + 2))
		for c, v := range [3]int{r, 256 + g, 512 + b} {
			_ = c
			bin := mine + ghostwriter.Addr(4*v)
			old := t.Load32(bin)
			t.Scribble32(bin, old+1)
		}
	}
	t.Barrier()
	if t.ID() == 0 {
		// Sequential reduction on the main thread, as in Phoenix.
		for v := 0; v < histBins; v++ {
			var sum uint32
			for tid := 0; tid < t.N(); tid++ {
				sum += t.Load32(h.banks + ghostwriter.Addr(4*(histBins*tid+v)))
			}
			t.Store32(h.result+ghostwriter.Addr(4*v), sum)
		}
	}
}

// Output implements App.
func (h *Histogram) Output(sys *ghostwriter.System) []float64 {
	out := make([]float64, histBins)
	for v := range out {
		out[v] = float64(sys.ReadCoherent32(h.result + ghostwriter.Addr(4*v)))
	}
	return out
}

// Golden implements App.
func (h *Histogram) Golden() []float64 { return h.golden }

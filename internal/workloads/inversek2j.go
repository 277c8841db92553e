package workloads

import (
	"math"

	ghostwriter "ghostwriter"
)

// InverseK2J is the AxBench inversek2j benchmark: inverse kinematics for a
// 2-joint planar arm. Targets are generated by forward kinematics from
// random joint angles (so every target is reachable), and the kernel
// recovers (θ1, θ2) per target. Threads process contiguous chunks and write
// their own output ranges; like blackscholes, the kernel is
// compute-dominated with negligible coherence misses.
type InverseK2J struct {
	n      int
	tx, ty []float32
	ddist  int

	xAddr, yAddr ghostwriter.Addr
	out          ghostwriter.Addr // float32[2n]: θ1, θ2 interleaved
	counts       ghostwriter.Addr
	golden       []float64
}

// Arm link lengths (AxBench uses 0.5/0.5).
const (
	ikL1 = 0.5
	ikL2 = 0.5
	// ikComputeCycles models the trigonometric kernel between accesses.
	ikComputeCycles = 120
)

// NewInverseK2J builds the app. The paper solves 1000K points; scale 1
// solves 2000.
func NewInverseK2J(scale int) *InverseK2J {
	n := 2000 * scale
	k := &InverseK2J{n: n, ddist: -1}
	r := rng(37)
	k.tx = make([]float32, n)
	k.ty = make([]float32, n)
	k.golden = make([]float64, 2*n)
	for i := 0; i < n; i++ {
		a1 := r.Float64() * math.Pi / 2
		a2 := r.Float64() * math.Pi / 2
		k.tx[i] = float32(ikL1*math.Cos(a1) + ikL2*math.Cos(a1+a2))
		k.ty[i] = float32(ikL1*math.Sin(a1) + ikL2*math.Sin(a1+a2))
		t1, t2 := ik2j(k.tx[i], k.ty[i])
		k.golden[2*i] = float64(t1)
		k.golden[2*i+1] = float64(t2)
	}
	return k
}

// ik2j recovers the joint angles for a target, evaluated identically by
// the kernel and the golden path.
func ik2j(x, y float32) (t1, t2 float32) {
	xf, yf := float64(x), float64(y)
	c2 := (xf*xf + yf*yf - ikL1*ikL1 - ikL2*ikL2) / (2 * ikL1 * ikL2)
	if c2 > 1 {
		c2 = 1
	}
	if c2 < -1 {
		c2 = -1
	}
	th2 := math.Acos(c2)
	th1 := math.Atan2(yf, xf) - math.Atan2(ikL2*math.Sin(th2), ikL1+ikL2*math.Cos(th2))
	return float32(th1), float32(th2)
}

// SetDDist implements App.
func (k *InverseK2J) SetDDist(d int) { k.ddist = d }

// Prepare implements App.
func (k *InverseK2J) Prepare(sys *ghostwriter.System) {
	// The x and y targets are never written: the kernel loads them with
	// LoadConstF32.
	load := func(vals []float32) ghostwriter.Addr {
		a := sys.Alloc(4*len(vals), 64)
		for i, v := range vals {
			sys.PreloadUint(a+ghostwriter.Addr(4*i), 4, uint64(math.Float32bits(v)))
		}
		return a
	}
	k.xAddr = load(k.tx)
	k.yAddr = load(k.ty)
	k.out = sys.Alloc(8*k.n, 4)
	k.counts = sys.Alloc(4*sys.Cores(), 4)
}

// Kernel implements App.
func (k *InverseK2J) Kernel(t *ghostwriter.Thread) {
	t.SetApproxDist(k.ddist)
	lo, hi := span(k.n, t.ID(), t.N())
	mine := k.counts + ghostwriter.Addr(4*t.ID())
	for i := lo; i < hi; i++ {
		x := t.LoadConstF32(k.xAddr + ghostwriter.Addr(4*i))
		y := t.LoadConstF32(k.yAddr + ghostwriter.Addr(4*i))
		t.Compute(ikComputeCycles)
		t1, t2 := ik2j(x, y)
		t.ScribbleF32(k.out+ghostwriter.Addr(8*i), t1)
		t.ScribbleF32(k.out+ghostwriter.Addr(8*i+4), t2)
		if (i-lo)%64 == 63 {
			c := t.Load32(mine)
			t.Scribble32(mine, c+64)
		}
	}
}

// Output implements App.
func (k *InverseK2J) Output(sys *ghostwriter.System) []float64 {
	out := make([]float64, 2*k.n)
	for i := range out {
		bits := sys.ReadCoherent32(k.out + ghostwriter.Addr(4*i))
		out[i] = float64(math.Float32frombits(bits))
	}
	return out
}

// Golden implements App.
func (k *InverseK2J) Golden() []float64 { return k.golden }

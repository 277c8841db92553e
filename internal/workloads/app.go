// Package workloads re-implements the paper's benchmark suite (Table 2) as
// kernels over the simulated machine: the Phoenix applications (histogram,
// linear_regression, pca), the AxBench applications multi-threaded as in
// the paper (blackscholes, inversek2j, jpeg), and the Listing 1/2
// dot-product microbenchmarks used in Fig. 1 and Fig. 12.
//
// Each application reproduces the memory behaviour the evaluation depends
// on — which data structures are shared, how they are laid out (e.g.
// linear_regression's packed accumulator struct that straddles cache
// blocks), and which stores the paper's compiler would emit as scribbles —
// with real arithmetic, so output error is genuinely measured against a
// host-computed golden result.
package workloads

import (
	"fmt"

	ghostwriter "ghostwriter"
	"ghostwriter/internal/quality"
)

// App is one runnable benchmark. Use: Prepare once on a fresh System, Run,
// then Output/Golden for the quality metric. What Table 2 says about it —
// name, suite, domain, error metric — is on its Factory.
type App interface {
	// Prepare allocates and preloads the application's input and output
	// structures on the system.
	Prepare(sys *ghostwriter.System)
	// Kernel is the per-thread body. Approximatable stores are issued as
	// scribbles with the app's configured d-distance; with DDist < 0 (or
	// under the Baseline protocol) they execute as conventional stores.
	Kernel(t *ghostwriter.Thread)
	// Output reads the application's result from the coherent view.
	Output(sys *ghostwriter.System) []float64
	// Golden returns the host-computed exact result.
	Golden() []float64
	// SetDDist sets the d-distance the kernel programs into the scribe
	// comparator (the approx_dist pragma). Negative disables approximation.
	SetDDist(d int)
}

// Factory describes one registry entry: the application's Table 2 row and
// how to build it.
type Factory struct {
	Name   string
	Suite  string // "Phoenix", "AxBench", or "Micro"
	Domain string
	Metric quality.MetricKind
	// Input describes the paper's input and this reproduction's scaled
	// stand-in.
	Input string
	// New builds the app at a size scale (1 = test scale; larger values
	// grow the input roughly linearly).
	New func(scale int) App
}

// Suite returns the six Table 2 applications in paper order.
func Suite() []Factory {
	return []Factory{
		{
			Name: "histogram", Suite: "Phoenix", Domain: "Image Processing",
			Metric: quality.MPE,
			Input:  "400MB image in the paper; seeded synthetic RGB image here",
			New:    func(scale int) App { return NewHistogram(scale) },
		},
		{
			Name: "linear_regression", Suite: "Phoenix", Domain: "Machine Learning",
			Metric: quality.MPE,
			Input:  "50MB point file in the paper; seeded synthetic (x,y) bytes here",
			New:    func(scale int) App { return NewLinearRegression(scale) },
		},
		{
			Name: "pca", Suite: "Phoenix", Domain: "Machine Learning",
			Metric: quality.NRMSE,
			Input:  "4MB matrix in the paper; seeded synthetic byte matrix here",
			New:    func(scale int) App { return NewPCA(scale) },
		},
		{
			Name: "blackscholes", Suite: "AxBench", Domain: "Financial Analysis",
			Metric: quality.MPE,
			Input:  "200K options in the paper; seeded synthetic options here",
			New:    func(scale int) App { return NewBlackScholes(scale) },
		},
		{
			Name: "inversek2j", Suite: "AxBench", Domain: "Robotics",
			Metric: quality.NRMSE,
			Input:  "1000K points in the paper; seeded synthetic 2-joint targets here",
			New:    func(scale int) App { return NewInverseK2J(scale) },
		},
		{
			Name: "jpeg", Suite: "AxBench", Domain: "Image Compression",
			Metric: quality.NRMSE,
			Input:  "512x512 RGB in the paper; seeded synthetic grayscale image here",
			New:    func(scale int) App { return NewJPEG(scale) },
		},
	}
}

// Extensions returns additional error-tolerant applications from the same
// suites, beyond the paper's Table 2 (marked as reproductions' extensions).
func Extensions() []Factory {
	return []Factory{
		{
			Name: "kmeans", Suite: "Phoenix", Domain: "Machine Learning (extension)",
			Metric: quality.NRMSE,
			Input:  "seeded synthetic clustered 2-D points",
			New:    func(scale int) App { return NewKMeans(scale) },
		},
		{
			Name: "sobel", Suite: "AxBench", Domain: "Image Processing (extension)",
			Metric: quality.NRMSE,
			Input:  "seeded synthetic grayscale image",
			New:    func(scale int) App { return NewSobel(scale) },
		},
		{
			Name: "fft", Suite: "AxBench", Domain: "Signal Processing (extension)",
			Metric: quality.NRMSE,
			Input:  "seeded synthetic multi-tone signal",
			New:    func(scale int) App { return NewFFT(scale) },
		},
	}
}

// Micro returns the Listing 1 / Listing 2 microbenchmarks.
func Micro() []Factory {
	return []Factory{
		{
			Name: "bad_dot_product", Suite: "Micro", Domain: "Listing 1",
			Metric: quality.MPE,
			Input:  "8M ints 0..255 in the paper; scaled seeded ints here",
			New:    func(scale int) App { return NewDotProduct(scale, false) },
		},
		{
			Name: "priv_dot_product", Suite: "Micro", Domain: "Listing 2",
			Metric: quality.MPE,
			Input:  "same as bad_dot_product, privatized accumulation",
			New:    func(scale int) App { return NewDotProduct(scale, true) },
		},
	}
}

// All returns every registered application: the Table 2 suite, the
// extensions, and the microbenchmarks.
func All() []Factory {
	all := Suite()
	all = append(all, Extensions()...)
	all = append(all, Micro()...)
	return all
}

// Lookup returns the factory with the given name from All.
func Lookup(name string) (Factory, error) {
	for _, f := range All() {
		if f.Name == name {
			return f, nil
		}
	}
	return Factory{}, fmt.Errorf("workloads: unknown application %q", name)
}

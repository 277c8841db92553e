// Command gwprof runs the Fig. 2 value-similarity profiler: it executes a
// benchmark under the baseline protocol with the store profiler enabled and
// prints the cumulative distribution of d-distances between store values
// and the values they overwrite.
//
//	gwprof -app jpeg
//	gwprof                 # the whole Table 2 suite
package main

import (
	"flag"
	"fmt"
	"os"

	"ghostwriter/internal/harness"
)

func main() {
	var (
		app     = flag.String("app", "", "benchmark name (empty = whole suite)")
		scale   = flag.Int("scale", 1, "input scale factor")
		threads = flag.Int("threads", 24, "worker threads")
	)
	flag.Parse()
	opt := harness.Options{Scale: *scale, Threads: *threads}
	runner := harness.NewRunner(0)

	if *app == "" {
		if _, err := runner.Fig2(os.Stdout, opt); err != nil {
			fmt.Fprintln(os.Stderr, "gwprof:", err)
			os.Exit(1)
		}
		return
	}
	r, err := runner.RunApp(*app, opt, 0, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gwprof:", err)
		os.Exit(1)
	}
	cdf, n := r.Stats.DistCDF()
	fmt.Printf("%s: %d profiled stores\n", *app, n)
	fmt.Printf("%4s %10s\n", "d", "P(≤d)")
	for d := 0; d <= 16; d++ {
		fmt.Printf("%4d %9.2f%%\n", d, cdf[d]*100)
	}
	fmt.Printf("%4s %9.2f%%\n", "32", cdf[32]*100)
	fmt.Printf("%4s %9.2f%%\n", "64", cdf[64]*100)
}

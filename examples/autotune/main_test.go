package main

// Example_main pins what `go run ./examples/autotune` prints.
func Example_main() {
	main()
	// Output:
	// grid relaxation 48x48, 5 iterations, 8 threads
	// baseline MESI: 99792 cycles
	//
	//    d     cycles    speedup      NRMSE
	//   1       87574      1.14x     1.457%
	//   2       79404      1.26x     1.344%
	//   3       68996      1.45x     1.511%
	//   4       58496      1.71x     1.934%
	//   5       58088      1.72x     2.217%
	//   6       50034      1.99x     3.542%
	//   7       46586      2.14x     5.586%
	//
	// no d-distance met the 1.00% target: stay on the baseline protocol
}

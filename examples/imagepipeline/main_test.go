package main

// Example_main pins what `go run ./examples/imagepipeline` prints.
func Example_main() {
	main()
	// Output:
	// iterative smoothing, 64x64 image, 6 iterations, 8 threads
	//
	//    d     cycles   messages        NRMSE
	//    0     303014      82938       0.000%
	//    2     135244      38466       0.373%
	//    4      86020      20757       0.806%
	//    6      66162       7009       2.671%
	//
	// Small d-distances keep the smoothed image visually identical while
	// absorbing boundary-block false sharing; larger ones trade a little
	// pixel deviation for more traffic reduction — the paper's RGB example.
}

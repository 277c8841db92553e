package main

// Example_main pins what `go run ./examples/quickstart` prints.
func Example_main() {
	main()
	// Output:
	// false-sharing counters, 4 threads x 2000 increments
	//                            baseline  ghostwriter
	// cycles                        32891         6184
	// coherence messages             6759           31
	// speedup vs baseline           1.00x        5.32x
	// final counters         [        2000         2000         2000         2000] [        2000         2000         2000         2000]
	//
	// Ghostwriter absorbs most of the invalidation ping-pong into the
	// GS/GI approximate states; the conventional stores after approx_end
	// publish the exact totals, so the output stays correct.
}

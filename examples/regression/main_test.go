package main

// Example_main pins what `go run ./examples/regression` prints.
func Example_main() {
	main()
	// Output:
	// golden fit: y = 0.6670 x + 29.6608 (20000 points, 8 threads)
	//
	//    d     cycles   messages   absorbed                    fit    slope err
	//    0     168847      58347          0   y = 0.6670 x + 29.661     0.00000%
	//    2     159887      54131       2854   y = 0.6670 x + 29.661     0.00000%
	//    4     138952      45359       7800   y = 0.6670 x + 29.661     0.00000%
	//    8      67312       4863      38327   y = 0.6670 x + 29.661     0.00000%
	//   12      63328       2387      37061   y = 0.6670 x + 29.661     0.00000%
	//
	// Larger d-distances let the scribe comparator absorb more of the
	// false-sharing stores into GS/GI, cutting traffic and cycles, while
	// the post-region handoff keeps the fitted line essentially exact.
}

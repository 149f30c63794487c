package main

// Example pins what the example prints, so a change that moves its
// plan shows up in go test ./... rather than in a by-hand diff.
func Example() {
	main()
	// Output:
	// serving all demand takes 1.0510 s; one GOP period is 0.50 s
	//
	// budget (s)   delivered (Mb)   mean PSNR (dB)   plan time (s)
	//      0.125            91.2             31.1         0.1250
	//      0.250           182.4             32.3         0.2500
	//      0.375           271.6             33.4         0.3750
	//      0.500           354.3             34.4         0.5000
	//      0.750           516.4             36.5         0.7500
	//
	// quality saturates once the budget covers the min-time optimum — the
	// same column-generation machinery solves both objectives (DESIGN.md §6).
}

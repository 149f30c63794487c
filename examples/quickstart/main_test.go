package main

// Example pins what the example prints, so a change that moves its
// plan shows up in go test ./... rather than in a by-hand diff.
func Example() {
	main()
	// Output:
	// total scheduling time: 0.5129 s (lower bound 0.5129 s, converged=true)
	// column-generation iterations: 27
	//
	// schedule plan (τ = seconds the schedule runs):
	//   τ=0.1710s  schedule{l0→ch2 q4 lp p=0.222, l1→ch0 q4 lp p=0.131, l2→ch0 q4 lp p=0.188, l3→ch2 q4 lp p=0.220, l4→ch2 q4 lp p=0.335, l5→ch1 q4 hp p=0.151}
	//   τ=0.0684s  schedule{l0→ch2 q4 hp p=0.222, l1→ch0 q4 hp p=0.131, l2→ch0 q4 lp p=0.188, l3→ch2 q4 hp p=0.220, l4→ch2 q4 hp p=0.335, l5→ch1 q4 lp p=0.151}
	//   τ=0.1026s  schedule{l0→ch2 q4 lp p=0.222, l1→ch0 q4 lp p=0.131, l2→ch0 q4 hp p=0.188, l3→ch2 q4 hp p=0.220, l4→ch2 q4 lp p=0.335, l5→ch1 q4 lp p=0.151}
	//   τ=0.0342s  schedule{l0→ch2 q4 hp p=0.222, l1→ch0 q4 hp p=0.131, l2→ch0 q4 hp p=0.188, l3→ch2 q4 lp p=0.220, l4→ch2 q4 lp p=0.335, l5→ch1 q4 lp p=0.151}
	//   τ=0.0684s  schedule{l0→ch2 q4 hp p=0.222, l1→ch0 q4 lp p=0.131, l2→ch0 q4 lp p=0.188, l3→ch2 q4 lp p=0.220, l4→ch2 q4 hp p=0.335, l5→ch1 q4 lp p=0.151}
	//   τ=0.0342s  schedule{l0→ch2 q4 lp p=0.222, l1→ch0 q4 hp p=0.131, l2→ch0 q4 hp p=0.188, l3→ch2 q4 lp p=0.220, l4→ch2 q4 hp p=0.335, l5→ch1 q4 lp p=0.151}
	//   τ=0.0342s  schedule{l0→ch2 q4 lp p=0.222, l1→ch0 q4 hp p=0.131, l2→ch0 q4 lp p=0.188, l3→ch2 q4 lp p=0.220, l4→ch2 q4 lp p=0.335, l5→ch1 q4 lp p=0.151}
}

package main

// Example pins what the example prints, so a change that moves its
// plan shows up in go test ./... rather than in a by-hand diff.
func Example() {
	main()
	// Output:
	// streaming 5 GOPs (0.50 s each) over 4 links, 5 channels
	//
	// gop   total demand   schedule time   slots   pool   deadline met?
	//   0      162.4 Mb        0.3790 s     379     16   yes
	//   1      166.5 Mb        0.4140 s     414     16   yes
	//   2      174.7 Mb        0.3960 s     396     17   yes
	//   3      184.8 Mb        0.4320 s     432     17   yes
	//   4      169.7 Mb        0.3880 s     388     17   yes
	//
	// 5/5 GOPs finished within their period.
	// Each GOP re-solves P1 with an updated demand vector — exactly the paper's §III update rule.
}

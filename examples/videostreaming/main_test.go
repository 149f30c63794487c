package main

// Example pins what the example prints, so a change that moves its
// plan shows up in go test ./... rather than in a by-hand diff.
func Example() {
	main()
	// Output:
	// synthetic trace: 50 GOPs, 171.6 Mb/s mean rate (target 171.4), frame mix map[I:50 P:150 B:400]
	//
	// per-link GOP demands:
	//   link  0: hp=26.03Mb lp=46.68Mb
	//   link  1: hp=46.19Mb lp=47.61Mb
	//   link  2: hp=26.91Mb lp=51.08Mb
	//   link  3: hp=44.18Mb lp=48.12Mb
	//   link  4: hp=25.91Mb lp=51.82Mb
	//   link  5: hp=29.47Mb lp=58.93Mb
	//   link  6: hp=26.65Mb lp=53.30Mb
	//   link  7: hp=30.05Mb lp=53.15Mb
	//   link  8: hp=49.27Mb lp=55.59Mb
	//   link  9: hp=25.87Mb lp=51.74Mb
	//
	// scheduling time 1.1190 s over 1119 slots
	//
	// per-link delivery and reconstructed quality:
	//   link  0: served   72.7 Mb, delay 1.108 s, PSNR 37.3 dB
	//   link  1: served   93.8 Mb, delay 1.043 s, PSNR 39.4 dB
	//   link  2: served   78.0 Mb, delay 1.117 s, PSNR 37.8 dB
	//   link  3: served   92.3 Mb, delay 1.119 s, PSNR 39.2 dB
	//   link  4: served   77.7 Mb, delay 1.107 s, PSNR 37.8 dB
	//   link  5: served   88.4 Mb, delay 1.116 s, PSNR 38.8 dB
	//   link  6: served   80.0 Mb, delay 1.115 s, PSNR 38.0 dB
	//   link  7: served   83.2 Mb, delay 0.955 s, PSNR 38.3 dB
	//   link  8: served  104.9 Mb, delay 1.114 s, PSNR 40.5 dB
	//   link  9: served   77.6 Mb, delay 1.118 s, PSNR 37.8 dB
	//
	// quality model: PSNR = 30.0 + 0.050·r (r in Mb/s); delays feed the paper's Fig. 2/3 metrics
	//
	// proposed vs benchmark1: total time 1.1190 s vs 1.3750 s, mean delay 1.0912 s vs 1.1660 s
}

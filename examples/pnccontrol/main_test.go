package main

// Example pins what the example prints, so a change that moves its
// plan shows up in go test ./... rather than in a by-hand diff.
func Example() {
	main()
	// Output:
	// created cell 0: 8 links, 3 channels
	//
	// uplink control messages:
	//   link  0: demand report (hp=23.81Mb lp=47.62Mb)
	//   link  1: demand report (hp=41.55Mb lp=49.37Mb)
	//   link  2: demand report (hp=26.47Mb lp=52.94Mb)
	//   link  3: demand report (hp=29.75Mb lp=56.76Mb)
	//   link  4: demand report (hp=25.77Mb lp=51.53Mb)
	//   link  5: demand report (hp=30.96Mb lp=60.30Mb)
	//   link  6: demand report (hp=26.00Mb lp=51.68Mb)
	//   link  7: demand report (hp=34.40Mb lp=44.45Mb)
	//   link  0: channel update
	//
	// PNC solved P1: 1.0069 s of scheduled airtime across 16 grants
	// downlink grants: 1521 bytes total
	// control-plane cost this epoch: 25 messages, 358.4 µs of WiFi airtime (0.03559% of the data plane)
	//
	// execution: 1012 slots (1.0120 s); per-link delivery:
	//   link  0:   71.4 /   71.4 Mb  done at 1.011 s
	//   link  1:   90.9 /   90.9 Mb  done at 0.974 s
	//   link  2:   79.4 /   79.4 Mb  done at 1.010 s
	//   link  3:   86.5 /   86.5 Mb  done at 0.976 s
	//   link  4:   77.3 /   77.3 Mb  done at 1.012 s
	//   link  5:   91.3 /   91.3 Mb  done at 1.009 s
	//   link  6:   77.7 /   77.7 Mb  done at 0.975 s
	//   link  7:   78.9 /   78.9 Mb  done at 1.010 s
	//
	// all demands served via the granted plan — control plane round trip verified
	//
	// second epoch (same CSI, new demands — warm reuse):
	//   warm solve: true
	//   scheduled airtime 1.2083 s across 16 grants
	//
	// GET /v1/cells/0/plan: objective 1.2083 s, age 0 — matches the epoch report
}

package netmodel_test

import (
	"fmt"

	"mmwave/internal/channel"
	"mmwave/internal/netmodel"
)

// ExampleNetwork_MinPowersAssigned demonstrates the power-control
// feasibility primitive: the minimal transmit powers letting two
// co-channel links meet their SINR thresholds simultaneously.
func ExampleNetwork_MinPowersAssigned() {
	nw := &netmodel.Network{
		Links: []netmodel.Link{
			{TXNode: 0, RXNode: 1},
			{TXNode: 2, RXNode: 3},
		},
		NumChannels: 1,
		Gains: &channel.Gains{
			Direct: [][]float64{{1}, {1}},
			Cross: [][][]float64{
				{{0}, {0.5}},
				{{0.5}, {0}},
			},
		},
		Noise:       []float64{0.1, 0.1},
		PMax:        1,
		Rates:       netmodel.NewShannonRateTable(200e6, []float64{0.5}),
		BandwidthHz: 200e6,
	}
	// Both links want γ = 0.5 on channel 0 despite 0.5 cross gain.
	powers, ok := nw.MinPowersAssigned([]int{0, 1}, []int{0, 0}, []float64{0.5, 0.5})
	fmt.Printf("feasible: %v\n", ok)
	fmt.Printf("P0 = %.4f W, P1 = %.4f W\n", powers[0], powers[1])
	// The symmetric solution P = γρ/(1−γc) = 0.05/0.75.
	// Output:
	// feasible: true
	// P0 = 0.0667 W, P1 = 0.0667 W
}

// ExampleRateTable_BestLevel shows discrete link adaptation: the
// highest rate level whose threshold a measured SINR clears.
func ExampleRateTable_BestLevel() {
	rt := netmodel.NewShannonRateTable(200e6, []float64{0.1, 0.2, 0.3, 0.4, 0.5})
	for _, sinr := range []float64{0.05, 0.25, 3.0} {
		q := rt.BestLevel(sinr)
		if q < 0 {
			fmt.Printf("SINR %.2f: no feasible level\n", sinr)
			continue
		}
		fmt.Printf("SINR %.2f: level %d at %.1f Mb/s\n", sinr, q, rt.Rates[q]/1e6)
	}
	// Output:
	// SINR 0.05: no feasible level
	// SINR 0.25: level 1 at 52.6 Mb/s
	// SINR 3.00: level 4 at 117.0 Mb/s
}

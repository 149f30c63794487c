package baseline

import (
	"math/rand"
	"testing"

	"mmwave/internal/channel"
	"mmwave/internal/netmodel"
	"mmwave/internal/schedule"
	"mmwave/internal/sim"
	"mmwave/internal/video"
)

// TestBenchmark2UnservableAllocatedChannel reproduces a field failure:
// the [8]-style allocator once pushed a link onto a channel where it
// could not reach even the lowest rate level alone, stranding its
// demand. Channel preferences must exclude solo-unservable channels.
func TestBenchmark2UnservableAllocatedChannel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	nw := servable(rng, 4, 3, netmodel.Global)
	// Make channel 2 unservable for link 1 but attractive-adjacent:
	// gain below the γ^1 solo threshold (needs ≥ 0.01 here).
	nw.Gains.Direct[1][2] = 0.001
	b2 := &Benchmark2{Alloc: ChannelAllocation{ExclusionDist: 1000}} // force spreading
	demands := make([]video.Demand, 4)
	for i := range demands {
		demands[i] = video.TwoClass(1e6, 1e6)
	}
	exec, err := sim.Run(nw, demands, b2, sim.Options{SlotDuration: 1e-3, Validate: true})
	if err != nil {
		t.Fatalf("benchmark2 stranded a link: %v", err)
	}
	for l := range demands {
		if exec.ServedAt(0, l) < demands[l].At(0)*(1-1e-6) {
			t.Errorf("link %d underserved", l)
		}
	}
}

// TestBenchmark2MutualDrowningOvershoot pins the mutual-drowning
// fallback when every pending link has overshot its demand: remSum
// keeps negative overshoot unclamped, and one slot can overshoot a
// class by up to rate × slot, so every pending link may sit below −1
// bits. The neediest link must still be served alone.
func TestBenchmark2MutualDrowningOvershoot(t *testing.T) {
	const L, K = 2, 2
	gains := &channel.Gains{Direct: make([][]float64, L), Cross: make([][][]float64, L)}
	for l := 0; l < L; l++ {
		gains.Direct[l] = []float64{1, 1}
		gains.Cross[l] = make([][]float64, L)
		for j := 0; j < L; j++ {
			gains.Cross[l][j] = make([]float64, K)
			if j != l {
				gains.Cross[l][j] = []float64{20, 20}
			}
		}
	}
	nw := &netmodel.Network{
		Links:        []netmodel.Link{{TXNode: 0, RXNode: 1}, {TXNode: 2, RXNode: 3}},
		NumChannels:  K,
		Gains:        gains,
		Noise:        []float64{0.1, 0.1},
		PMax:         1,
		Rates:        netmodel.NewShannonRateTable(200e6, []float64{0.1, 0.2, 0.3, 0.4, 0.5}),
		BandwidthHz:  200e6,
		Interference: netmodel.Global,
	}
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	rem := sim.NewRemaining(2, L)
	for l := 0; l < L; l++ {
		rem.ByClass[0][l] = -1e5 // HP overshot by a slot's worth of bits
		rem.ByClass[1][l] = 10   // LP still pending
	}
	b2 := &Benchmark2{Alloc: ChannelAllocation{ExclusionDist: 1000}}
	s, err := b2.Decide(nw, rem, 0)
	if err != nil || s == nil {
		t.Fatalf("Decide = %v, %v; want a schedule", s, err)
	}
	want := schedule.Assignment{Link: 0, Channel: 0, Level: 4, Layer: schedule.ClassLayer(1), Power: 1}
	if len(s.Assignments) != 1 || s.Assignments[0] != want {
		t.Errorf("Decide = %v, want one assignment %+v", s, want)
	}
}

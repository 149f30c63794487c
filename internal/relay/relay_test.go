package relay

import (
	"context"
	"math/rand"
	"testing"

	"mmwave/internal/channel"
	"mmwave/internal/core"
	"mmwave/internal/geom"
	"mmwave/internal/netmodel"
	"mmwave/internal/video"
)

// testNetwork draws a Table-I instance; weakLinks get their direct
// gains crushed so they cannot reach any rate level.
func testNetwork(t *testing.T, seed int64, nLinks, nChannels int, weakLinks []int) *netmodel.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	room := geom.Room{Width: 20, Height: 20}
	segs := room.PlaceLinks(rng, nLinks, 2, 6)
	gains := channel.TableI{}.Generate(rng, segs, nChannels)
	links := make([]netmodel.Link, nLinks)
	noise := make([]float64, nLinks)
	for i := range links {
		links[i] = netmodel.Link{TXNode: 2 * i, RXNode: 2*i + 1, Seg: segs[i]}
		noise[i] = 0.1
	}
	nw := &netmodel.Network{
		Links:        links,
		NumChannels:  nChannels,
		Gains:        gains,
		Noise:        noise,
		PMax:         1,
		Rates:        netmodel.NewShannonRateTable(200e6, []float64{0.1, 0.2, 0.3, 0.4, 0.5}),
		BandwidthHz:  200e6,
		Interference: netmodel.Global,
	}
	// Strong direct paths for non-weak sessions.
	for l := 0; l < nLinks; l++ {
		weak := false
		for _, w := range weakLinks {
			weak = weak || w == l
		}
		for k := 0; k < nChannels; k++ {
			if weak {
				nw.Gains.Direct[l][k] = 1e-4 // below every threshold
			} else if nw.Gains.Direct[l][k] < 0.2 {
				nw.Gains.Direct[l][k] = 0.2
			}
		}
	}
	return nw
}

func uniformDemands(n int, total float64) []video.Demand {
	d := make([]video.Demand, n)
	for i := range d {
		d[i] = video.TwoClass(total/3, 2*total/3)
	}
	return d
}

func relayGrid() []geom.Point {
	return []geom.Point{{X: 5, Y: 5}, {X: 15, Y: 5}, {X: 5, Y: 15}, {X: 15, Y: 15}, {X: 10, Y: 10}}
}

func TestSelectRoutesWeakSessionViaRelay(t *testing.T) {
	nw := testNetwork(t, 1, 4, 2, []int{2})
	demands := uniformDemands(4, 3e7)
	exp, err := Selector{}.Select(nw, demands, relayGrid(), rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Routes) != 4 {
		t.Fatalf("routes = %d, want 4", len(exp.Routes))
	}
	if exp.NumRelayed() != 1 {
		t.Fatalf("relayed = %d, want exactly the weak session", exp.NumRelayed())
	}
	for _, rt := range exp.Routes {
		if rt.Session == 2 {
			if rt.Direct || len(rt.Links) != 2 {
				t.Fatalf("weak session route = %+v, want two hops", rt)
			}
			// Both hops share the relay node (half-duplex coupling).
			h1 := exp.Network.Links[rt.Links[0]]
			h2 := exp.Network.Links[rt.Links[1]]
			if h1.RXNode != h2.TXNode {
				t.Error("hops do not meet at the relay node")
			}
			// Both hops carry the session demand.
			for _, l := range rt.Links {
				if exp.Demands[l].At(0) != demands[2].At(0) || exp.Demands[l].At(1) != demands[2].At(1) {
					t.Errorf("hop %d demand %+v, want %+v", l, exp.Demands[l], demands[2])
				}
			}
		} else if !rt.Direct {
			t.Errorf("healthy session %d was relayed", rt.Session)
		}
	}
	if err := exp.Network.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDirectGainsPreserved(t *testing.T) {
	nw := testNetwork(t, 3, 3, 2, nil)
	demands := uniformDemands(3, 1e7)
	exp, err := Selector{}.Select(nw, demands, relayGrid(), rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if exp.NumRelayed() != 0 {
		t.Fatalf("healthy instance relayed %d sessions", exp.NumRelayed())
	}
	for _, rt := range exp.Routes {
		l := rt.Links[0]
		for k := 0; k < nw.NumChannels; k++ {
			if exp.Network.Gains.Direct[l][k] != nw.Gains.Direct[rt.Session][k] {
				t.Fatalf("direct route gains changed for session %d", rt.Session)
			}
		}
	}
}

func TestRelayedInstanceSolvesEndToEnd(t *testing.T) {
	// The headline property: a network with an unservable (blocked)
	// session — which core.NewSolver rejects outright — becomes
	// solvable after relay expansion.
	nw := testNetwork(t, 7, 5, 3, []int{1, 3})
	demands := uniformDemands(5, 2e7)

	if _, err := core.NewSolver(nw, demands, core.Options{}); err == nil {
		t.Fatal("expected the blocked instance to be unservable directly")
	}

	exp, err := Selector{}.Select(nw, demands, relayGrid(), rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if exp.NumRelayed() != 2 {
		t.Fatalf("relayed = %d, want 2", exp.NumRelayed())
	}
	solver, err := core.NewSolver(exp.Network, exp.Demands, core.Options{
		Pricer: core.NewBranchBoundPricer(4000),
	})
	if err != nil {
		t.Fatalf("expanded instance unservable: %v", err)
	}
	res, err := solver.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Objective <= 0 {
		t.Fatal("empty plan")
	}
	// Hop demands are all served.
	served := make([]float64, exp.Network.NumLinks())
	for i, sc := range res.Plan.Schedules {
		for _, r := range sc.RateVectorsByClass(exp.Network) {
			for l := range served {
				served[l] += r[l] * res.Plan.Tau[i]
			}
		}
	}
	for l, d := range exp.Demands {
		if served[l] < d.Total()*(1-1e-6) {
			t.Errorf("hop %d served %v of %v", l, served[l], d.Total())
		}
	}
}

func TestSessionCompletion(t *testing.T) {
	exp := &Expanded{Routes: []Route{
		{Session: 0, Direct: true, Links: []int{0}},
		{Session: 1, Direct: false, Links: []int{1, 2}},
	}}
	got := exp.SessionCompletion([]float64{0.5, 0.3, 0.9})
	if got[0] != 0.5 || got[1] != 0.9 {
		t.Errorf("completion = %v, want [0.5 0.9]", got)
	}
}

func TestSelectValidation(t *testing.T) {
	nw := testNetwork(t, 13, 2, 2, nil)
	demands := uniformDemands(2, 1e6)
	if _, err := (Selector{}).Select(nw, demands[:1], relayGrid(), rand.New(rand.NewSource(1))); err == nil {
		t.Error("demand mismatch accepted")
	}
	bad := *nw
	bad.PMax = 0
	if _, err := (Selector{}).Select(&bad, demands, relayGrid(), rand.New(rand.NewSource(1))); err == nil {
		t.Error("invalid network accepted")
	}
}

func TestNoRelayCandidatesFallsBackToDirect(t *testing.T) {
	nw := testNetwork(t, 17, 3, 2, []int{0})
	demands := uniformDemands(3, 1e7)
	exp, err := Selector{}.Select(nw, demands, nil, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if exp.NumRelayed() != 0 {
		t.Error("relayed without candidates")
	}
	if len(exp.Network.Links) != 3 {
		t.Errorf("expanded links = %d, want 3", len(exp.Network.Links))
	}
}

func TestMinDirectRateFloor(t *testing.T) {
	// With an absurdly high floor, every session with positive demand
	// gets relayed (relaying beats nothing when the floor disqualifies
	// the direct path, as long as a relay looks faster).
	nw := testNetwork(t, 19, 3, 2, nil)
	demands := uniformDemands(3, 1e7)
	sel := Selector{MinDirectRate: 1e12}
	exp, err := sel.Select(nw, demands, relayGrid(), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	// The estimate-based selection may keep some direct routes when no
	// relay improves the serial-time estimate; what must hold is that
	// the instance stays valid and the routes are well-formed.
	for _, rt := range exp.Routes {
		want := 1
		if !rt.Direct {
			want = 2
		}
		if len(rt.Links) != want {
			t.Fatalf("route %+v malformed", rt)
		}
	}
}

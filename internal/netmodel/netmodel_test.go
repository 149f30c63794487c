package netmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mmwave/internal/channel"
	"mmwave/internal/geom"
)

// testNetwork builds a small deterministic network: nLinks links on
// nChannels channels with unit direct gains and uniform cross gain x.
func testNetwork(nLinks, nChannels int, cross float64) *Network {
	g := &channel.Gains{
		Direct: make([][]float64, nLinks),
		Cross:  make([][][]float64, nLinks),
	}
	for i := 0; i < nLinks; i++ {
		g.Direct[i] = make([]float64, nChannels)
		for k := 0; k < nChannels; k++ {
			g.Direct[i][k] = 1
		}
		g.Cross[i] = make([][]float64, nLinks)
		for j := 0; j < nLinks; j++ {
			g.Cross[i][j] = make([]float64, nChannels)
			if i != j {
				for k := 0; k < nChannels; k++ {
					g.Cross[i][j][k] = cross
				}
			}
		}
	}
	links := make([]Link, nLinks)
	noise := make([]float64, nLinks)
	for i := range links {
		links[i] = Link{TXNode: 2 * i, RXNode: 2*i + 1}
		noise[i] = 0.1
	}
	return &Network{
		Links:       links,
		NumChannels: nChannels,
		Gains:       g,
		Noise:       noise,
		PMax:        1,
		Rates:       NewShannonRateTable(200e6, []float64{0.1, 0.2, 0.3, 0.4, 0.5}),
		BandwidthHz: 200e6,
	}
}

// randomNetwork draws a Table-I style instance.
func randomNetwork(rng *rand.Rand, nLinks, nChannels int) *Network {
	room := geom.Room{Width: 20, Height: 20}
	segs := room.PlaceLinks(rng, nLinks, 1, 5)
	gains := channel.TableI{}.Generate(rng, segs, nChannels)
	links := make([]Link, nLinks)
	noise := make([]float64, nLinks)
	for i := range links {
		links[i] = Link{TXNode: 2 * i, RXNode: 2*i + 1, Seg: segs[i]}
		noise[i] = 0.1
	}
	return &Network{
		Links:       links,
		NumChannels: nChannels,
		Gains:       gains,
		Noise:       noise,
		PMax:        1,
		Rates:       NewShannonRateTable(200e6, []float64{0.1, 0.2, 0.3, 0.4, 0.5}),
		BandwidthHz: 200e6,
	}
}

func TestShannonRateTable(t *testing.T) {
	rt := NewShannonRateTable(200e6, []float64{0.1, 0.5, 1})
	if rt.Levels() != 3 {
		t.Fatalf("Levels = %d, want 3", rt.Levels())
	}
	want := 200e6 * math.Log2(1.5)
	if math.Abs(rt.Rates[1]-want) > 1 {
		t.Errorf("rate[1] = %v, want %v", rt.Rates[1], want)
	}
	for q := 1; q < rt.Levels(); q++ {
		if rt.Rates[q] <= rt.Rates[q-1] {
			t.Errorf("rates not ascending at %d", q)
		}
	}
}

func TestBestLevel(t *testing.T) {
	rt := NewShannonRateTable(1, []float64{0.1, 0.2, 0.3})
	tests := []struct {
		sinr float64
		want int
	}{
		{0.05, -1},
		{0.1, 0},
		{0.15, 0},
		{0.2, 1},
		{0.31, 2},
		{100, 2},
	}
	for _, tc := range tests {
		if got := rt.BestLevel(tc.sinr); got != tc.want {
			t.Errorf("BestLevel(%v) = %d, want %d", tc.sinr, got, tc.want)
		}
	}
}

func TestRateTableValidate(t *testing.T) {
	tests := []struct {
		name    string
		rt      RateTable
		wantErr bool
	}{
		{"good", NewShannonRateTable(1e6, []float64{0.1, 0.2}), false},
		{"empty", RateTable{}, true},
		{"length mismatch", RateTable{Gammas: []float64{0.1}, Rates: []float64{1, 2}}, true},
		{"non-positive gamma", RateTable{Gammas: []float64{0}, Rates: []float64{1}}, true},
		{"non-ascending", RateTable{Gammas: []float64{0.2, 0.1}, Rates: []float64{1, 2}}, true},
		{"zero rate", RateTable{Gammas: []float64{0.1}, Rates: []float64{0}}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.rt.Validate(); (err != nil) != tc.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestNetworkValidate(t *testing.T) {
	good := testNetwork(3, 2, 0.1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid network rejected: %v", err)
	}

	t.Run("bad channels", func(t *testing.T) {
		nw := testNetwork(3, 2, 0.1)
		nw.NumChannels = 0
		if nw.Validate() == nil {
			t.Error("want error")
		}
	})
	t.Run("bad pmax", func(t *testing.T) {
		nw := testNetwork(3, 2, 0.1)
		nw.PMax = 0
		if nw.Validate() == nil {
			t.Error("want error")
		}
	})
	t.Run("nil gains", func(t *testing.T) {
		nw := testNetwork(3, 2, 0.1)
		nw.Gains = nil
		if nw.Validate() == nil {
			t.Error("want error")
		}
	})
	t.Run("noise mismatch", func(t *testing.T) {
		nw := testNetwork(3, 2, 0.1)
		nw.Noise = nw.Noise[:2]
		if nw.Validate() == nil {
			t.Error("want error")
		}
	})
	t.Run("self loop link", func(t *testing.T) {
		nw := testNetwork(3, 2, 0.1)
		nw.Links[0].RXNode = nw.Links[0].TXNode
		if nw.Validate() == nil {
			t.Error("want error")
		}
	})
	t.Run("zero noise", func(t *testing.T) {
		nw := testNetwork(3, 2, 0.1)
		nw.Noise[1] = 0
		if nw.Validate() == nil {
			t.Error("want error")
		}
	})
}

// TestNetworkFingerprint: equal networks hash equal (the unhashed
// bandwidth and geometry aside, and the default class count is two),
// and changing any single hashed field changes the hash.
func TestNetworkFingerprint(t *testing.T) {
	base := testNetwork(3, 2, 0.1).Fingerprint()
	if got := testNetwork(3, 2, 0.1).Fingerprint(); got != base {
		t.Fatalf("equal networks hash %#x and %#x", base, got)
	}
	same := map[string]func(*Network){
		"bandwidth":     func(n *Network) { n.BandwidthHz = 1 },
		"two classes":   func(n *Network) { n.NumTrafficClasses = 2 },
		"link geometry": func(n *Network) { n.Links[0].Seg.RX.X = 3 },
	}
	for name, edit := range same {
		nw := testNetwork(3, 2, 0.1)
		edit(nw)
		if got := nw.Fingerprint(); got != base {
			t.Errorf("%s: an unhashed or equivalent edit changed the fingerprint", name)
		}
	}
	changed := map[string]func(*Network){
		"tx node":       func(n *Network) { n.Links[1].TXNode = 40 },
		"rx node":       func(n *Network) { n.Links[2].RXNode = 41 },
		"link count":    func(n *Network) { n.Links = n.Links[:2] },
		"channels":      func(n *Network) { n.NumChannels = 3 },
		"direct gain":   func(n *Network) { n.Gains.Direct[0][1] = 2 },
		"cross gain":    func(n *Network) { n.Gains.Cross[2][0][1] = 0.2 },
		"noise":         func(n *Network) { n.Noise[1] = 0.2 },
		"pmax":          func(n *Network) { n.PMax = 2 },
		"gamma":         func(n *Network) { n.Rates.Gammas[4] = 0.6 },
		"rate":          func(n *Network) { n.Rates.Rates[0] = 1 },
		"rate levels":   func(n *Network) { n.Rates = NewShannonRateTable(200e6, []float64{0.1, 0.2}) },
		"interference":  func(n *Network) { n.Interference = Global },
		"multi-channel": func(n *Network) { n.MultiChannel = true },
		"class count":   func(n *Network) { n.NumTrafficClasses = 3 },
	}
	for name, edit := range changed {
		nw := testNetwork(3, 2, 0.1)
		edit(nw)
		if nw.Fingerprint() == base {
			t.Errorf("%s: fingerprint unchanged", name)
		}
	}
}

func TestSharesNode(t *testing.T) {
	nw := testNetwork(3, 1, 0)
	if nw.SharesNode(0, 1) {
		t.Error("disjoint links reported sharing a node")
	}
	nw.Links[1].TXNode = nw.Links[0].RXNode
	if !nw.SharesNode(0, 1) {
		t.Error("shared node not detected")
	}
}

func TestSINR(t *testing.T) {
	nw := testNetwork(2, 1, 0.5)
	// Both links at power 1: SINR = 1·1 / (0.1 + 0.5·1) = 1/0.6.
	got := nw.SINR(0, 0, []int{0, 1}, []float64{1, 1})
	want := 1 / 0.6
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("SINR = %v, want %v", got, want)
	}
	// Solo: 1/0.1 = 10.
	if got := nw.SINR(0, 0, []int{0}, []float64{1}); math.Abs(got-10) > 1e-12 {
		t.Errorf("solo SINR = %v, want 10", got)
	}
	// Link not active → 0.
	if got := nw.SINR(1, 0, []int{0}, []float64{1}); got != 0 {
		t.Errorf("inactive link SINR = %v, want 0", got)
	}
}

func TestMinPowersSingleLink(t *testing.T) {
	nw := testNetwork(1, 1, 0)
	// γ = 0.5 → P = γρ/H = 0.05.
	p, ok := nw.MinPowers(0, []int{0}, []float64{0.5})
	if !ok {
		t.Fatal("single link infeasible")
	}
	if math.Abs(p[0]-0.05) > 1e-9 {
		t.Errorf("P = %v, want 0.05", p[0])
	}
}

func TestMinPowersSymmetricPair(t *testing.T) {
	// Two symmetric links, cross gain c, threshold γ:
	// P = γ(ρ + cP) → P = γρ/(1−γc).
	nw := testNetwork(2, 1, 0.5)
	gamma := 0.5
	p, ok := nw.MinPowers(0, []int{0, 1}, []float64{gamma, gamma})
	if !ok {
		t.Fatal("pair infeasible")
	}
	want := gamma * 0.1 / (1 - gamma*0.5)
	for i := range p {
		if math.Abs(p[i]-want) > 1e-9 {
			t.Errorf("P[%d] = %v, want %v", i, p[i], want)
		}
	}
	// The resulting SINRs meet the threshold exactly.
	for _, l := range []int{0, 1} {
		if sinr := nw.SINR(l, 0, []int{0, 1}, p); sinr < gamma*(1-1e-9) {
			t.Errorf("SINR[%d] = %v < γ", l, sinr)
		}
	}
}

func TestMinPowersInfeasibleCoupling(t *testing.T) {
	// γ·c ≥ 1 makes the pair infeasible regardless of power.
	nw := testNetwork(2, 1, 1.0)
	if _, ok := nw.MinPowers(0, []int{0, 1}, []float64{1.5, 1.5}); ok {
		t.Error("infeasible coupling accepted")
	}
}

func TestMinPowersPMaxBound(t *testing.T) {
	// Solo with threshold needing P > Pmax: γρ/H = 20·0.1 = 2 > 1.
	nw := testNetwork(1, 1, 0)
	nw.Rates = RateTable{Gammas: []float64{20}, Rates: []float64{1}}
	if _, ok := nw.MinPowers(0, []int{0}, []float64{20}); ok {
		t.Error("over-PMax requirement accepted")
	}
}

func TestMinPowersZeroGain(t *testing.T) {
	nw := testNetwork(1, 1, 0)
	nw.Gains.Direct[0][0] = 0
	if _, ok := nw.MinPowers(0, []int{0}, []float64{0.1}); ok {
		t.Error("zero direct gain accepted")
	}
}

func TestMinPowersEmptySet(t *testing.T) {
	nw := testNetwork(2, 1, 0.1)
	if _, ok := nw.MinPowers(0, nil, nil); !ok {
		t.Error("empty active set must be feasible")
	}
}

func TestMinPowersPropertyFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	check := func(uint32) bool {
		nw := randomNetwork(rng, 2+rng.Intn(5), 1+rng.Intn(3))
		k := rng.Intn(nw.NumChannels)
		// Random subset of links with random levels.
		var active []int
		var gammas []float64
		for l := 0; l < nw.NumLinks(); l++ {
			if rng.Float64() < 0.5 {
				active = append(active, l)
				gammas = append(gammas, nw.Rates.Gammas[rng.Intn(nw.Rates.Levels())])
			}
		}
		p, ok := nw.MinPowers(k, active, gammas)
		if !ok {
			return true // infeasibility is a legal outcome
		}
		// Feasibility of the returned vector.
		for i, l := range active {
			if p[i] < -1e-12 || p[i] > nw.PMax*(1+1e-9) {
				return false
			}
			if nw.SINR(l, k, active, p) < gammas[i]*(1-1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMinPowersPropertyMonotone(t *testing.T) {
	// Adding a link to a feasible set can only raise the minimal
	// powers of the existing links.
	rng := rand.New(rand.NewSource(29))
	check := func(uint32) bool {
		nw := randomNetwork(rng, 3+rng.Intn(4), 1)
		n := nw.NumLinks()
		perm := rng.Perm(n)
		subset := perm[:2+rng.Intn(n-2)]
		gammas := make([]float64, len(subset))
		for i := range gammas {
			gammas[i] = nw.Rates.Gammas[0]
		}
		pAll, okAll := nw.MinPowers(0, subset, gammas)
		pSub, okSub := nw.MinPowers(0, subset[:len(subset)-1], gammas[:len(gammas)-1])
		if !okAll {
			return true
		}
		if !okSub {
			return false // subset of a feasible set must be feasible
		}
		for i := range pSub {
			if pSub[i] > pAll[i]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSoloRateAndBestChannel(t *testing.T) {
	nw := testNetwork(1, 3, 0)
	nw.Gains.Direct[0] = []float64{0.02, 0.09, 0.01}
	k, sinr := nw.BestSingleLinkChannel(0)
	if k != 1 {
		t.Errorf("best channel = %d, want 1", k)
	}
	if math.Abs(sinr-0.9) > 1e-12 {
		t.Errorf("solo SINR = %v, want 0.9", sinr)
	}
	// SINR 0.9 → best level index 4 (γ=0.5).
	if r := nw.SoloRate(0, 1); math.Abs(r-nw.Rates.Rates[4]) > 1e-9 {
		t.Errorf("SoloRate = %v, want %v", r, nw.Rates.Rates[4])
	}
	// SINR 0.021/0.1 = 0.21 → level 1 (γ=0.2).
	nw.Gains.Direct[0][0] = 0.021
	if r := nw.SoloRate(0, 0); math.Abs(r-nw.Rates.Rates[1]) > 1e-9 {
		t.Errorf("SoloRate ch0 = %v, want %v", r, nw.Rates.Rates[1])
	}
	nw.Gains.Direct[0][2] = 0.001 // SINR 0.01 → below all thresholds
	if r := nw.SoloRate(0, 2); r != 0 {
		t.Errorf("SoloRate below threshold = %v, want 0", r)
	}
}

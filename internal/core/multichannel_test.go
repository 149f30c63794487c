package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mmwave/internal/netmodel"
	"mmwave/internal/schedule"
	"mmwave/internal/video"
)

// bruteForcePrice enumerates every activation pattern of a tiny network
// and returns the maximal pricing value Σ λ_c[l]·u_q under the
// class-major duals lambda — the exact oracle for the pricers. Without
// MultiChannel a link is idle or carries one stream of any class on one
// (channel, level), worth max_c λ_c[l]·u_q. With MultiChannel each
// class of a link is idle or takes its own (channel, level), and a
// link's streams ride distinct channels. A pattern counts only if no
// two active links share a node (half duplex) and it admits powers
// within PMax under the network's interference model. Exponential;
// test-only.
func bruteForcePrice(nw *netmodel.Network, lambda [][]float64) float64 {
	L, K, Q := nw.NumLinks(), nw.NumChannels, nw.Rates.Levels()

	type stream struct {
		k, q int
		lam  float64
	}
	options := make([][][]stream, L)
	for l := range options {
		opts := [][]stream{nil} // idle
		if !nw.MultiChannel {
			lam := 0.0
			for c := range lambda {
				lam = math.Max(lam, lambda[c][l])
			}
			for k := 0; k < K; k++ {
				for q := 0; q < Q; q++ {
					opts = append(opts, []stream{{k, q, lam}})
				}
			}
			options[l] = opts
			continue
		}
		taken := make([]bool, K)
		var perClass func(c int, cur []stream)
		perClass = func(c int, cur []stream) {
			if c == len(lambda) {
				if len(cur) > 0 {
					opts = append(opts, append([]stream(nil), cur...))
				}
				return
			}
			perClass(c+1, cur) // class c idle
			for k := 0; k < K; k++ {
				if taken[k] {
					continue
				}
				taken[k] = true
				for q := 0; q < Q; q++ {
					perClass(c+1, append(cur, stream{k, q, lambda[c][l]}))
				}
				taken[k] = false
			}
		}
		perClass(0, nil)
		options[l] = opts
	}

	best := 0.0
	busy := map[int]bool{} // half-duplex node occupancy
	var active, chans []int
	var gammas []float64
	var rec func(l int, value float64)
	rec = func(l int, value float64) {
		if l == L {
			if value > best && nw.FeasibleAssigned(active, chans, gammas) {
				best = value
			}
			return
		}
		lk := nw.Links[l]
		for _, opt := range options[l] {
			if len(opt) > 0 && (busy[lk.TXNode] || busy[lk.RXNode]) {
				continue
			}
			v := value
			for _, s := range opt {
				active = append(active, l)
				chans = append(chans, s.k)
				gammas = append(gammas, nw.Rates.Gammas[s.q])
				v += s.lam * nw.Rates.Rates[s.q]
			}
			if len(opt) > 0 {
				busy[lk.TXNode], busy[lk.RXNode] = true, true
			}
			rec(l+1, v)
			if len(opt) > 0 {
				busy[lk.TXNode], busy[lk.RXNode] = false, false
			}
			active = active[:len(active)-len(opt)]
			chans = chans[:len(chans)-len(opt)]
			gammas = gammas[:len(gammas)-len(opt)]
		}
	}
	rec(0, 0)
	return best
}

// checkAgainstBruteForce requires an exact pricing result to agree
// with the brute-force optimum and to return a valid schedule worth
// exactly its reported value. The pricer prunes every column with
// Ψ ≤ 1 (its reduced cost is non-negative, so the master cannot use
// it); when the optimum lies below that line the pricer only has to
// stay at or below it.
func checkAgainstBruteForce(t *testing.T, label string, nw *netmodel.Network, lambda [][]float64, res *PriceResult) {
	t.Helper()
	if !res.Exact {
		t.Fatalf("%s: pricing not exact", label)
	}
	want := bruteForcePrice(nw, lambda)
	const tol = 1e-9
	switch {
	case want > 1+tol:
		if math.Abs(res.Value-want) > tol*want {
			t.Errorf("%s: pricer %v, brute force %v", label, res.Value, want)
		}
	case res.Value > want+tol:
		t.Errorf("%s: pricer %v above the brute-force optimum %v", label, res.Value, want)
	}
	if res.Schedule == nil {
		return
	}
	if err := res.Schedule.Validate(nw); err != nil {
		t.Errorf("%s: schedule invalid: %v", label, err)
	}
	if v := res.Schedule.Value(nw, lambda); math.Abs(v-res.Value) > tol*(1+res.Value) {
		t.Errorf("%s: reported value %v but schedule prices to %v", label, res.Value, v)
	}
}

// randomClassDuals draws class-major duals for C classes; each entry is
// zero with probability 1/5 so pruning of dual-free candidates is
// exercised too.
func randomClassDuals(rng *rand.Rand, C, L int) [][]float64 {
	lambda := make([][]float64, C)
	for c := range lambda {
		lambda[c] = make([]float64, L)
		for l := range lambda[c] {
			if rng.Float64() < 0.8 {
				lambda[c][l] = rng.Float64() * 2e-8
			}
		}
	}
	return lambda
}

func TestMultiChannelPricerMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	p := NewBranchBoundPricer(0)
	for trial := 0; trial < 6; trial++ {
		nw := randomNetwork(rng, 3, 2)
		nw.Rates = netmodel.NewShannonRateTable(200e6, []float64{0.1, 0.3})
		nw.MultiChannel = true
		lambda := randomClassDuals(rng, 2, nw.NumLinks())
		res, err := p.Price(nw, lambda)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstBruteForce(t, fmt.Sprintf("trial %d", trial), nw, lambda, res)
	}
}

// TestThreeClassPricerMatchesBruteForce prices the 3-class slice table
// (video.SliceClasses) with weight-scaled duals, with and without the
// multi-channel extension and under both interference models, and
// checks every result against exhaustive enumeration.
func TestThreeClassPricerMatchesBruteForce(t *testing.T) {
	classes := video.SliceClasses()
	rng := rand.New(rand.NewSource(131))
	p := NewBranchBoundPricer(0)
	for _, interference := range []netmodel.InterferenceModel{netmodel.PerChannel, netmodel.Global} {
		for _, multi := range []bool{false, true} {
			for trial := 0; trial < 4; trial++ {
				nw := randomNetwork(rng, 3, 2)
				nw.Rates = netmodel.NewShannonRateTable(200e6, []float64{0.1, 0.3})
				nw.Interference = interference
				nw.MultiChannel = multi
				nw.NumTrafficClasses = len(classes)
				lambda := randomClassDuals(rng, len(classes), nw.NumLinks())
				for c := range lambda {
					for l := range lambda[c] {
						lambda[c][l] *= classes[c].Weight / 2
					}
				}
				res, err := p.Price(nw, lambda)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%v multi=%v trial %d", interference, multi, trial)
				checkAgainstBruteForce(t, label, nw, lambda, res)
			}
		}
	}
}

func TestMultiChannelNeverWorseThanSingle(t *testing.T) {
	// Extra freedom cannot reduce the pricing value.
	rng := rand.New(rand.NewSource(73))
	p := NewBranchBoundPricer(0)
	for trial := 0; trial < 10; trial++ {
		nw := randomNetwork(rng, 4, 2)
		L := nw.NumLinks()
		lamHP := make([]float64, L)
		lamLP := make([]float64, L)
		for l := 0; l < L; l++ {
			lamHP[l] = rng.Float64() * 2e-8
			lamLP[l] = rng.Float64() * 2e-8
		}
		single, err := p.Price(nw, [][]float64{lamHP, lamLP})
		if err != nil {
			t.Fatal(err)
		}
		multiNW := *nw
		multiNW.MultiChannel = true
		multi, err := p.Price(&multiNW, [][]float64{lamHP, lamLP})
		if err != nil {
			t.Fatal(err)
		}
		if !single.Exact || !multi.Exact {
			continue
		}
		if multi.Value < single.Value-1e-9*(1+single.Value) {
			t.Errorf("trial %d: multi-channel value %v below single-channel %v",
				trial, multi.Value, single.Value)
		}
	}
}

func TestMultiChannelSolverEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	nw := servableNetwork(rng, 5, 3)
	nw.MultiChannel = true
	demands := uniformDemands(5, 3e7, 3e7)
	s, err := NewSolver(nw, demands, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range res.Plan.Schedules {
		if err := sc.Validate(nw); err != nil {
			t.Errorf("plan schedule %d invalid: %v", i, err)
		}
	}

	// The single-channel optimum upper-bounds the multi-channel one.
	singleNW := *nw
	singleNW.MultiChannel = false
	s2, err := NewSolver(&singleNW, demands, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := s2.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Objective > res2.Plan.Objective*(1+1e-6) {
		t.Errorf("multi-channel objective %v worse than single-channel %v",
			res.Plan.Objective, res2.Plan.Objective)
	}
}

func TestMultiChannelScheduleValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	nw := servableNetwork(rng, 2, 2)
	nw.MultiChannel = true
	// Same link, two layers on two channels at conservative powers.
	dual := &schedule.Schedule{Assignments: []schedule.Assignment{
		{Link: 0, Channel: 0, Level: 0, Layer: schedule.HP, Power: nw.PMax},
		{Link: 0, Channel: 1, Level: 0, Layer: schedule.LP, Power: nw.PMax},
	}}
	// Feasibility depends on the drawn gains; consistency matters more
	// than the verdict: the same schedule must be rejected in
	// single-channel mode.
	errMulti := dual.Validate(nw)
	singleNW := *nw
	singleNW.MultiChannel = false
	if err := dual.Validate(&singleNW); err == nil {
		t.Error("two-channel link accepted in single-channel mode")
	}
	// Same channel twice or same layer twice are always invalid.
	sameCh := &schedule.Schedule{Assignments: []schedule.Assignment{
		{Link: 0, Channel: 0, Level: 0, Layer: schedule.HP, Power: 0.5},
		{Link: 0, Channel: 0, Level: 0, Layer: schedule.LP, Power: 0.5},
	}}
	if err := sameCh.Validate(nw); err == nil {
		t.Error("same-channel dual stream accepted")
	}
	sameLayer := &schedule.Schedule{Assignments: []schedule.Assignment{
		{Link: 0, Channel: 0, Level: 0, Layer: schedule.HP, Power: 0.5},
		{Link: 0, Channel: 1, Level: 0, Layer: schedule.HP, Power: 0.5},
	}}
	if err := sameLayer.Validate(nw); err == nil {
		t.Error("duplicate-layer dual stream accepted")
	}
	_ = errMulti
}

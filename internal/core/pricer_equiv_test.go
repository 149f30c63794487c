package core

import (
	"math/rand"
	"reflect"
	"testing"

	"mmwave/internal/netmodel"
)

// randomDuals draws non-negative dual vectors with a sprinkling of
// zeros (links the pricer must ignore).
func randomDuals(rng *rand.Rand, L int) (hp, lp []float64) {
	hp = make([]float64, L)
	lp = make([]float64, L)
	for l := 0; l < L; l++ {
		if rng.Intn(4) > 0 {
			hp[l] = rng.Float64() * 1e-7
		}
		if rng.Intn(4) > 0 {
			lp[l] = rng.Float64() * 1e-7
		}
	}
	return
}

// TestPricerIncrementalMatchesReference prices seeded Table-I style
// instances twice — once with the incremental bordered-LU probe solver,
// which answers a channel's levels in one ProbeDown sweep and takes the
// levels below a feasible one as feasible, and once with the full
// pivoted solve asked level by level — and requires identical search
// telemetry (nodes, probes, exactness), value and relaxation bound,
// argmax schedule and pooled extras. This is the load-bearing
// equivalence check for the probe solver: equal node and probe counts
// mean the two searches explored the same tree, and under a probe
// budget that truncates the search they also mean the sweep counts one
// probe per level exactly as the per-level search does. The fixed-power
// case holds the per-level path's own counting to the same walk.
func TestPricerIncrementalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct {
		name         string
		interference netmodel.InterferenceModel
		multiChannel bool
		fixedPower   bool
		budget       int
	}{
		{name: "global", interference: netmodel.Global},
		{name: "per-channel", interference: netmodel.PerChannel},
		{name: "global/multi-channel", interference: netmodel.Global, multiChannel: true},
		{name: "per-channel/multi-channel", interference: netmodel.PerChannel, multiChannel: true},
		{name: "global/truncated", interference: netmodel.Global, budget: 400},
		{name: "per-channel/truncated", interference: netmodel.PerChannel, budget: 150},
		{name: "global/multi-channel/truncated", interference: netmodel.Global, multiChannel: true, budget: 400},
		{name: "fixed-power", interference: netmodel.Global, fixedPower: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			truncated := 0
			for inst := 0; inst < 6; inst++ {
				nw := randomNetwork(rng, 10, 3)
				nw.Interference = tc.interference
				nw.MultiChannel = tc.multiChannel
				hp, lp := randomDuals(rng, nw.NumLinks())
				if tc.interference == netmodel.PerChannel {
					// Per-channel blocks interfere little: duals this
					// small would let the greedy seed close most
					// searches at the root.
					hp, lp = pricingDuals(rng, nw.NumLinks())
				}

				fast := NewBranchBoundPricer(tc.budget)
				ref := NewBranchBoundPricer(tc.budget)
				ref.referenceProbes = true
				fast.FixedPower, ref.FixedPower = tc.fixedPower, tc.fixedPower

				got, err := fast.Price(nw, [][]float64{hp, lp})
				if err != nil {
					t.Fatalf("instance %d: fast pricer: %v", inst, err)
				}
				want, err := ref.Price(nw, [][]float64{hp, lp})
				if err != nil {
					t.Fatalf("instance %d: reference pricer: %v", inst, err)
				}
				if got.Value != want.Value || got.RelaxValue != want.RelaxValue || got.Exact != want.Exact ||
					got.Nodes != want.Nodes || got.Probes != want.Probes {
					t.Fatalf("instance %d: fast (value=%v relax=%v exact=%v nodes=%d probes=%d) != reference (value=%v relax=%v exact=%v nodes=%d probes=%d)",
						inst, got.Value, got.RelaxValue, got.Exact, got.Nodes, got.Probes,
						want.Value, want.RelaxValue, want.Exact, want.Nodes, want.Probes)
				}
				if !reflect.DeepEqual(got.Schedule, want.Schedule) {
					t.Fatalf("instance %d: schedules differ:\nfast: %+v\nreference: %+v",
						inst, got.Schedule, want.Schedule)
				}
				if !reflect.DeepEqual(got.Extras, want.Extras) {
					t.Fatalf("instance %d: pooled extras differ:\nfast: %+v\nreference: %+v",
						inst, got.Extras, want.Extras)
				}
				if !got.Exact {
					truncated++
				}
			}
			if tc.budget > 0 && truncated == 0 {
				t.Fatalf("budget %d truncated none of the searches", tc.budget)
			}
		})
	}
}

// TestGreedyPricerProbeSolver cross-checks the greedy heuristic's
// incremental probes: its schedule must be power-feasible and match a
// from-scratch feasibility audit of every accepted placement.
func TestGreedyPricerProbeSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for inst := 0; inst < 10; inst++ {
		nw := randomNetwork(rng, 12, 3)
		if inst%2 == 1 {
			nw.Interference = netmodel.Global
		}
		hp, lp := randomDuals(rng, nw.NumLinks())
		res, err := (GreedyPricer{}).Price(nw, [][]float64{hp, lp})
		if err != nil {
			t.Fatalf("instance %d: %v", inst, err)
		}
		if res.Schedule == nil {
			continue
		}
		var links, chans []int
		var gammas []float64
		for _, a := range res.Schedule.Assignments {
			links = append(links, a.Link)
			chans = append(chans, a.Channel)
			gammas = append(gammas, nw.Rates.Gammas[a.Level])
		}
		if !nw.FeasibleAssigned(links, chans, gammas) {
			t.Fatalf("instance %d: greedy schedule infeasible: %+v", inst, res.Schedule)
		}
	}
}

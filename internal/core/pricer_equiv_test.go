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
// instances twice — once with the incremental bordered-LU probe solver
// and once with the full pivoted solve on every probe — and requires
// byte-identical schedules, values, and search telemetry. This is the
// load-bearing equivalence check for the probe-solver rewrite: equal
// node and probe counts mean the two searches explored the same tree.
func TestPricerIncrementalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct {
		name         string
		interference netmodel.InterferenceModel
		multiChannel bool
	}{
		{"global", netmodel.Global, false},
		{"per-channel", netmodel.PerChannel, false},
		{"global/multi-channel", netmodel.Global, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for inst := 0; inst < 6; inst++ {
				nw := randomNetwork(rng, 10, 3)
				nw.Interference = tc.interference
				nw.MultiChannel = tc.multiChannel
				hp, lp := randomDuals(rng, nw.NumLinks())

				fast := NewBranchBoundPricer(0)
				ref := NewBranchBoundPricer(0)
				ref.referenceProbes = true

				got, err := fast.Price(nw, [][]float64{hp, lp})
				if err != nil {
					t.Fatalf("instance %d: fast pricer: %v", inst, err)
				}
				want, err := ref.Price(nw, [][]float64{hp, lp})
				if err != nil {
					t.Fatalf("instance %d: reference pricer: %v", inst, err)
				}
				if got.Value != want.Value || got.Exact != want.Exact ||
					got.Nodes != want.Nodes || got.Probes != want.Probes {
					t.Fatalf("instance %d: fast (value=%v exact=%v nodes=%d probes=%d) != reference (value=%v exact=%v nodes=%d probes=%d)",
						inst, got.Value, got.Exact, got.Nodes, got.Probes,
						want.Value, want.Exact, want.Nodes, want.Probes)
				}
				if !reflect.DeepEqual(got.Schedule, want.Schedule) {
					t.Fatalf("instance %d: schedules differ:\nfast: %+v\nreference: %+v",
						inst, got.Schedule, want.Schedule)
				}
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

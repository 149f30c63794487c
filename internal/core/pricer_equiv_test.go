package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mmwave/internal/netmodel"
	"mmwave/internal/schedule"
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

// TestMILPPricerRootBasisReuse prices a fixed instance under an
// evolving dual sequence with one stateful MILPPricer (which carries
// its root basis across calls, the column-generation reuse pattern)
// and with a fresh pricer per call, and requires identical values.
// Node counts may legitimately differ — a warm root can land on an
// alternative optimal vertex — and so, on value ties, may the
// incumbent the tree converges to; an alternative schedule is accepted
// only if it is power-feasible and worth exactly as much under the
// current duals, so warm reuse can never hand the column generation a
// worse or invalid column.
func TestMILPPricerRootBasisReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nw := randomNetwork(rng, 4, 2)
	stateful := &MILPPricer{}
	for iter := 0; iter < 5; iter++ {
		hp, lpd := randomDuals(rng, nw.NumLinks())
		got, err := stateful.Price(nw, [][]float64{hp, lpd})
		if err != nil {
			t.Fatalf("iteration %d: stateful: %v", iter, err)
		}
		want, err := (&MILPPricer{}).Price(nw, [][]float64{hp, lpd})
		if err != nil {
			t.Fatalf("iteration %d: fresh: %v", iter, err)
		}
		if got.Value != want.Value || got.Exact != want.Exact {
			t.Fatalf("iteration %d: stateful (value=%v exact=%v) != fresh (value=%v exact=%v)",
				iter, got.Value, got.Exact, want.Value, want.Exact)
		}
		if (got.Schedule == nil) != (want.Schedule == nil) {
			t.Fatalf("iteration %d: stateful schedule %+v, fresh %+v", iter, got.Schedule, want.Schedule)
		}
		if got.Schedule != nil && !reflect.DeepEqual(got.Schedule, want.Schedule) {
			// Tie between alternative optima: audit the stateful column.
			var links, chans []int
			var gammas []float64
			gv, wv := 0.0, 0.0
			for _, a := range got.Schedule.Assignments {
				links = append(links, a.Link)
				chans = append(chans, a.Channel)
				gammas = append(gammas, nw.Rates.Gammas[a.Level])
				gv += dualOf(a.Layer, hp, lpd)[a.Link] * nw.Rates.Rates[a.Level]
			}
			for _, a := range want.Schedule.Assignments {
				wv += dualOf(a.Layer, hp, lpd)[a.Link] * nw.Rates.Rates[a.Level]
			}
			if !nw.FeasibleAssigned(links, chans, gammas) {
				t.Fatalf("iteration %d: stateful schedule infeasible: %+v", iter, got.Schedule)
			}
			if math.Abs(gv-wv) > 1e-9*(1+math.Abs(wv)) {
				t.Fatalf("iteration %d: stateful column worth %g under the duals, fresh worth %g:\nstateful: %+v\nfresh: %+v",
					iter, gv, wv, got.Schedule, want.Schedule)
			}
		}
		if stateful.lastBasis == nil {
			t.Fatalf("iteration %d: no root basis cached", iter)
		}
	}
}

// dualOf selects the dual vector a layer's rate is priced against.
func dualOf(layer schedule.Layer, hp, lp []float64) []float64 {
	if layer == schedule.HP {
		return hp
	}
	return lp
}

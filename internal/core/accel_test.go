package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mmwave/internal/netmodel"
	"mmwave/internal/video"
)

// allOff reproduces the historical exact loop: a pricer that never
// exhausts its budget never opens the heuristic gate, so every round
// is priced exactly, and with no leaf pool it adds one column per
// round.
func allOff() []Option {
	p := NewBranchBoundPricer(1 << 40)
	p.PoolLeaves = 0
	return []Option{WithPricer(p)}
}

// checkPlanServes validates every schedule of the plan against the
// network and confirms the plan serves the demands it claims to.
func checkPlanServes(t *testing.T, tag string, nw *netmodel.Network, demands []video.Demand, plan Plan) {
	t.Helper()
	L := nw.NumLinks()
	served := make([][]float64, L)
	for l := range served {
		served[l] = make([]float64, demands[l].NumClasses())
	}
	for i, sc := range plan.Schedules {
		if err := sc.Validate(nw); err != nil {
			t.Fatalf("%s: plan schedule %d invalid: %v", tag, i, err)
		}
		if plan.Tau[i] < 0 {
			t.Fatalf("%s: plan schedule %d has negative τ", tag, i)
		}
		hp, lpr := sc.RateVectors(nw)
		for l := 0; l < L; l++ {
			served[l][0] += hp[l] * plan.Tau[i]
			served[l][1] += lpr[l] * plan.Tau[i]
		}
	}
	for l := 0; l < L; l++ {
		for c := 0; c < demands[l].NumClasses(); c++ {
			if want := demands[l].At(c); served[l][c] < want*(1-1e-6) {
				t.Fatalf("%s: link %d class %d served %v < demand %v",
					tag, l, c, served[l][c], want)
			}
		}
	}
}

// TestAcceleratedSolveProperties is the acceptance property for the
// accelerated engine, across ≥50 seeded Table-I-style instances:
//
//  1. the default solve (multi-column + heuristic-first pricing, both
//     on) converges to an objective within 1e-9 relative
//     of the all-off exact loop's optimum;
//  2. its Theorem-1 bounds are valid and monotone at every iteration —
//     the running lower bound never decreases, never exceeds the final
//     objective, and the master upper bound never falls below it;
//  3. anytime truncation (a context canceled before the solve) still
//     returns a feasible plan that serves the full demand.
func TestAcceleratedSolveProperties(t *testing.T) {
	if testing.Short() {
		t.Skip("50 paired solves")
	}
	const instances = 50
	for i := 0; i < instances; i++ {
		rng := rand.New(rand.NewSource(int64(9000 + i)))
		nLinks := 4 + rng.Intn(5)    // 4..8 links
		nChannels := 2 + rng.Intn(2) // 2..3 channels
		nw := servableNetwork(rng, nLinks, nChannels)
		hp := 2e6 + rng.Float64()*6e6
		demands := uniformDemands(nLinks, hp, hp/2)

		accel, err := New(nw, demands)
		if err != nil {
			t.Fatal(err)
		}
		resA, err := accel.Solve(context.Background())
		if err != nil {
			t.Fatalf("instance %d: accelerated solve: %v", i, err)
		}
		exact, err := New(nw, demands, allOff()...)
		if err != nil {
			t.Fatal(err)
		}
		resE, err := exact.Solve(context.Background())
		if err != nil {
			t.Fatalf("instance %d: exact solve: %v", i, err)
		}
		if !resA.Converged || !resE.Converged {
			t.Fatalf("instance %d: convergence accel=%v exact=%v", i, resA.Converged, resE.Converged)
		}

		// (1) Value equality against the historical exact loop.
		if rel := math.Abs(resA.Plan.Objective-resE.Plan.Objective) / resE.Plan.Objective; rel > 1e-9 {
			t.Errorf("instance %d (L=%d): accelerated objective %v vs exact %v (rel %g)",
				i, nLinks, resA.Plan.Objective, resE.Plan.Objective, rel)
		}

		// (2) Bound validity and monotonicity at every iteration.
		obj := resA.Plan.Objective
		prevBest := 0.0
		for j, st := range resA.Iterations {
			if st.BestLower < prevBest {
				t.Errorf("instance %d iter %d: best lower bound regressed %v → %v",
					i, j, prevBest, st.BestLower)
			}
			prevBest = st.BestLower
			if st.Lower > obj*(1+1e-9)+1e-12 {
				t.Errorf("instance %d iter %d: lower bound %v above optimum %v",
					i, j, st.Lower, obj)
			}
			if st.Upper < obj*(1-1e-9)-1e-12 {
				t.Errorf("instance %d iter %d: master objective %v below optimum %v",
					i, j, st.Upper, obj)
			}
		}
		if resA.LowerBound > obj*(1+1e-9)+1e-12 {
			t.Errorf("instance %d: final lower bound %v above objective %v", i, resA.LowerBound, obj)
		}
		checkPlanServes(t, "accel", nw, demands, resA.Plan)

		// (3) Anytime truncation stays feasible under the accelerations.
		trunc, err := New(nw, demands)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		resT, err := trunc.Solve(ctx)
		if err != nil {
			t.Fatalf("instance %d: canceled solve returned error: %v", i, err)
		}
		if !resT.Truncated {
			t.Fatalf("instance %d: canceled solve not flagged Truncated", i)
		}
		checkPlanServes(t, "anytime", nw, demands, resT.Plan)
	}
}

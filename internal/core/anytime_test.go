package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mmwave/internal/video"
)

// TestSolveBackgroundIdentical: two fresh solvers over the same
// instance with a never-canceled context must walk exactly the same
// path — identical plan, bounds, and telemetry (cold-solve
// determinism).
func TestSolveBackgroundIdentical(t *testing.T) {
	for _, nLinks := range []int{4, 6, 8} {
		rng := rand.New(rand.NewSource(int64(nLinks)))
		nw := servableNetwork(rng, nLinks, 3)
		demands := uniformDemands(nLinks, 4e6, 2e6)

		a, err := NewSolver(nw, demands, Options{})
		if err != nil {
			t.Fatal(err)
		}
		resA, err := a.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}

		b, err := NewSolver(nw, demands, Options{})
		if err != nil {
			t.Fatal(err)
		}
		resB, err := b.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}

		if resA.Plan.Objective != resB.Plan.Objective {
			t.Fatalf("L=%d: objectives differ: %v vs %v", nLinks, resA.Plan.Objective, resB.Plan.Objective)
		}
		if resA.LowerBound != resB.LowerBound || resA.Converged != resB.Converged {
			t.Fatalf("L=%d: bounds/convergence differ", nLinks)
		}
		if !reflect.DeepEqual(resA.Plan.Tau, resB.Plan.Tau) {
			t.Fatalf("L=%d: tau vectors differ: %v vs %v", nLinks, resA.Plan.Tau, resB.Plan.Tau)
		}
		if len(resA.Plan.Schedules) != len(resB.Plan.Schedules) {
			t.Fatalf("L=%d: plan sizes differ", nLinks)
		}
		for i := range resA.Plan.Schedules {
			if !reflect.DeepEqual(resA.Plan.Schedules[i].Assignments, resB.Plan.Schedules[i].Assignments) {
				t.Fatalf("L=%d: schedule %d differs", nLinks, i)
			}
		}
		if !reflect.DeepEqual(resA.Iterations, resB.Iterations) {
			t.Fatalf("L=%d: iteration telemetry differs", nLinks)
		}
		if resB.Truncated && resB.Converged {
			t.Fatalf("L=%d: result both converged and truncated", nLinks)
		}
		if resB.Converged && resB.Stop != nil {
			t.Fatalf("L=%d: converged result carries Stop=%v", nLinks, resB.Stop)
		}
	}
}

// TestSolveCanceledAnytime: a pre-canceled context must still return
// a feasible best-so-far plan with a valid lower bound, flagged
// Truncated with Stop wrapping ErrBudgetExceeded — never a bare error.
func TestSolveCanceledAnytime(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nw := servableNetwork(rng, 8, 3)
	demands := uniformDemands(8, 4e6, 2e6)

	s, err := NewSolver(nw, demands, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.Solve(ctx)
	if err != nil {
		t.Fatalf("canceled solve returned error %v, want anytime result", err)
	}
	if !res.Truncated {
		t.Fatal("canceled solve not flagged Truncated")
	}
	if !errors.Is(res.Stop, ErrBudgetExceeded) {
		t.Fatalf("Stop = %v, want ErrBudgetExceeded", res.Stop)
	}
	if res.Plan.Objective <= 0 || len(res.Plan.Schedules) == 0 {
		t.Fatalf("truncated plan empty: objective %v", res.Plan.Objective)
	}
	// The anytime plan must still cover every demand (the TDMA-seeded
	// master is always feasible).
	hp := make([]float64, 8)
	lp := make([]float64, 8)
	for i, sc := range res.Plan.Schedules {
		rv := sc.RateVectorsByClass(nw)
		rhp, rlp := rv[0], rv[1]
		for l := 0; l < 8; l++ {
			hp[l] += rhp[l] * res.Plan.Tau[i]
			lp[l] += rlp[l] * res.Plan.Tau[i]
		}
	}
	for l := 0; l < 8; l++ {
		if hp[l] < demands[l].At(0)*(1-1e-6) || lp[l] < demands[l].At(1)*(1-1e-6) {
			t.Fatalf("truncated plan under-serves link %d: hp %g/%g lp %g/%g", l, hp[l], demands[l].At(0), lp[l], demands[l].At(1))
		}
	}
	if res.LowerBound < 0 || res.LowerBound > res.Plan.Objective*(1+1e-9) {
		t.Fatalf("lower bound %v outside [0, %v]", res.LowerBound, res.Plan.Objective)
	}
}

// TestSolveDeadlineMidSolve: an aggressive deadline expiring during
// pricing must cancel the search mid-tree and still produce a feasible
// anytime plan with a valid bound.
func TestSolveDeadlineMidSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nw := servableNetwork(rng, 10, 3)
	demands := uniformDemands(10, 6e6, 3e6)

	s, err := NewSolver(nw, demands, Options{Pricer: NewBranchBoundPricer(100_000_000)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	res, err := s.Solve(ctx)
	cancel()
	if err != nil {
		t.Fatalf("deadline solve returned error %v", err)
	}
	if res.Plan.Objective <= 0 {
		t.Fatal("empty anytime plan")
	}
	if res.Truncated {
		if !errors.Is(res.Stop, ErrBudgetExceeded) {
			t.Fatalf("Stop = %v", res.Stop)
		}
		if res.LowerBound > res.Plan.Objective*(1+1e-9) {
			t.Fatalf("lower bound %v above objective %v", res.LowerBound, res.Plan.Objective)
		}
	}
}

// TestErrorTaxonomy: the sentinels must be errors.Is-able through the
// wrapping layers.
func TestErrorTaxonomy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))

	// ErrUnservable surfaces through NewSolver's wrap.
	nwBlocked := servableNetwork(rng, 4, 2)
	for k := 0; k < nwBlocked.NumChannels; k++ {
		nwBlocked.Gains.Direct[0][k] = 0
	}
	bad := append([]video.Demand(nil), uniformDemands(4, 1e6, 0)...)
	if _, err := NewSolver(nwBlocked, bad, Options{}); !errors.Is(err, ErrUnservable) {
		t.Fatalf("blocked-link NewSolver error = %v, want ErrUnservable", err)
	}

	// ErrBudgetExceeded from the iteration limit.
	nw := servableNetwork(rng, 4, 2)
	s, err := NewSolver(nw, uniformDemands(4, 8e6, 4e6), Options{MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged && !errors.Is(res.Stop, ErrBudgetExceeded) {
		t.Fatalf("iteration-limited Stop = %v, want ErrBudgetExceeded", res.Stop)
	}
}

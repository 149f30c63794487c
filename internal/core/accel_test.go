package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mmwave/internal/netmodel"
)

// allOff reproduces the historical exact loop: a pricer that never
// exhausts its budget prices every round exactly, and with no leaf pool
// it adds one column per round.
func allOff() []Option {
	p := NewBranchBoundPricer(1 << 40)
	p.PoolLeaves = 0
	return []Option{WithPricer(p)}
}

// TestAcceleratedSolveProperties is the acceptance property for the
// accelerated engine, across ≥50 seeded Table-I-style instances:
//
//  1. the default solve (multi-column pricing on) converges to an
//     objective within 1e-9 relative of the all-off exact loop's
//     optimum;
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
		auditPlan(t, "accel", nw, demands, resA.Plan)

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
		auditPlan(t, "anytime", nw, demands, resT.Plan)
	}
}

// countingPricer counts the calls that reach the pricer it wraps.
type countingPricer struct {
	inner *BranchBoundPricer
	calls int
}

func (c *countingPricer) String() string { return c.inner.String() }

func (c *countingPricer) Price(nw *netmodel.Network, lambda [][]float64) (*PriceResult, error) {
	c.calls++
	return c.inner.Price(nw, lambda)
}

func (c *countingPricer) PriceContext(ctx context.Context, nw *netmodel.Network, lambda [][]float64) (*PriceResult, error) {
	c.calls++
	return c.inner.PriceContext(ctx, nw, lambda)
}

// TestOnePricerPerRound: every column-generation round runs the
// configured pricer exactly once, also after budget-truncated rounds,
// so every round yields a Theorem-1 bound.
func TestOnePricerPerRound(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	nw := servableNetwork(rng, 14, 3)
	demands := uniformDemands(14, 4e6, 2e6)
	p := &countingPricer{inner: NewBranchBoundPricer(50)}
	s, err := New(nw, demands, WithPricer(p))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	truncated := 0
	for _, it := range res.Iterations {
		if !it.Exact {
			truncated++
		}
		if it.Lower <= 0 {
			t.Errorf("round %d yields no lower bound (Lower = %v)", it.Iter, it.Lower)
		}
	}
	if truncated < 2 {
		t.Fatalf("%d budget-truncated rounds, want at least 2 to exercise the round after one", truncated)
	}
	if p.calls != res.Rounds || res.Rounds != len(res.Iterations) {
		t.Errorf("pricer calls %d, rounds %d, iterations %d: want all equal", p.calls, res.Rounds, len(res.Iterations))
	}
}

package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mmwave/internal/lp"
)

// ulpOf returns the unit in the last place of x.
func ulpOf(x float64) float64 {
	x = math.Abs(x)
	return math.Nextafter(x, math.Inf(1)) - x
}

// samePlan reports whether two plans are byte-identical in structure —
// the same schedules with the same (link, channel, rate level, layer)
// assignments in the same order — with the continuous values riding
// along (τ, refit powers) equal to within 4 ulps. Master duals can
// differ in the last bit between the two arithmetic paths, which
// perturbs the pricer's probe order and the final time split by an ulp
// without changing any discrete decision.
func samePlan(a, b Plan) bool {
	if len(a.Schedules) != len(b.Schedules) || len(a.Tau) != len(b.Tau) {
		return false
	}
	for i, tau := range a.Tau {
		if math.Abs(tau-b.Tau[i]) > 4*ulpOf(b.Tau[i]) {
			return false
		}
	}
	for i := range a.Schedules {
		sa, sb := a.Schedules[i], b.Schedules[i]
		if len(sa.Assignments) != len(sb.Assignments) {
			return false
		}
		for k, x := range sa.Assignments {
			y := sb.Assignments[k]
			if x.Link != y.Link || x.Channel != y.Channel || x.Level != y.Level || x.Layer != y.Layer {
				return false
			}
			if math.Abs(x.Power-y.Power) > 4*ulpOf(y.Power) {
				return false
			}
		}
	}
	return true
}

// TestSparseVsDenseEndToEnd is the end-to-end differential guarantee
// for the sparse LP core: across 100+ random mmWave-shaped instances
// the full column-generation solve must reach the same objective to
// within 1e-12 relative (observed: a few ulps; the cg optimality
// tolerance is orders of magnitude looser) whether the masters run on
// the sparse revised simplex (the default) or the legacy dense tableau
// (Options.LPOpts.Dense, kept for exactly this test), and every sparse
// plan must pass a full independent audit — schedule power
// feasibility, demand service, Σ τ = objective. Together those pin the
// plans as equally optimal. Byte-identical plans are NOT required on
// every instance and the test reports how many matched: the master is
// inherently degenerate (every schedule column costs 1), so the two
// arithmetic paths routinely resolve a dual tie in opposite ways and
// the pricer then returns a different, equally-valuable column.
// Search telemetry (rounds, probes, pivot counts) is likewise allowed
// to differ.
func TestSparseVsDenseEndToEnd(t *testing.T) {
	instances, ties := 0, 0
	for _, nLinks := range []int{3, 4, 5, 6, 8} {
		for seed := int64(1); seed <= 21; seed++ {
			instances++
			rng := rand.New(rand.NewSource(seed*100 + int64(nLinks)))
			nw := servableNetwork(rng, nLinks, 3)
			// Heterogeneous per-link demands: realistic video workloads,
			// and they break the τ symmetry a uniform profile would
			// create on every instance.
			demands := uniformDemands(nLinks, 4e6, 2e6)
			for l := range demands {
				demands[l][0] *= 1 + 0.4*rng.Float64()
				demands[l][1] *= 1 + 0.4*rng.Float64()
			}

			sparse, err := NewSolver(nw, demands, Options{})
			if err != nil {
				t.Fatalf("L=%d seed=%d: %v", nLinks, seed, err)
			}
			resSparse, err := sparse.Solve(context.Background())
			if err != nil {
				t.Fatalf("L=%d seed=%d: sparse solve: %v", nLinks, seed, err)
			}

			dense, err := NewSolver(nw, demands, Options{LPOpts: lp.Options{Dense: true}})
			if err != nil {
				t.Fatalf("L=%d seed=%d: %v", nLinks, seed, err)
			}
			resDense, err := dense.Solve(context.Background())
			if err != nil {
				t.Fatalf("L=%d seed=%d: dense solve: %v", nLinks, seed, err)
			}

			if d := math.Abs(resSparse.Plan.Objective - resDense.Plan.Objective); d > 1e-12*(1+resDense.Plan.Objective) {
				t.Fatalf("L=%d seed=%d: objective %.17g (sparse) != %.17g (dense)",
					nLinks, seed, resSparse.Plan.Objective, resDense.Plan.Objective)
			}
			auditPlan(t, fmt.Sprintf("L=%d seed=%d (sparse)", nLinks, seed), nw, demands, resSparse.Plan)
			if !samePlan(resSparse.Plan, resDense.Plan) {
				ties++
			}
		}
	}
	if instances < 100 {
		t.Fatalf("only %d instances exercised, want 100+", instances)
	}
	t.Logf("%d/%d plans byte-identical, %d audited equal-objective ties", instances-ties, instances, ties)
}

package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mmwave/internal/netmodel"
	"mmwave/internal/video"
)

// auditPlan independently re-verifies a plan against the instance:
// every schedule power-feasible under the interference model, every τ
// positive, Σ τ equal to the objective, and every (class, link) demand
// row covered by the bits the plan's assignments deliver — summed per
// assignment class, so it holds for any class count.
func auditPlan(t *testing.T, tag string, nw *netmodel.Network, demands []video.Demand, plan Plan) {
	t.Helper()
	if len(plan.Tau) != len(plan.Schedules) {
		t.Fatalf("%s: %d schedules but %d shares", tag, len(plan.Schedules), len(plan.Tau))
	}
	served := make([][]float64, nw.TrafficClasses())
	for c := range served {
		served[c] = make([]float64, nw.NumLinks())
	}
	sum := 0.0
	for i, sc := range plan.Schedules {
		if err := sc.Validate(nw); err != nil {
			t.Fatalf("%s: plan schedule %d invalid: %v", tag, i, err)
		}
		tau := plan.Tau[i]
		if !(tau > 0) || math.IsInf(tau, 0) {
			t.Fatalf("%s: plan schedule %d has share %v", tag, i, tau)
		}
		sum += tau
		for _, a := range sc.Assignments {
			served[a.Layer.Class()][a.Link] += tau * nw.Rates.Rates[a.Level]
		}
	}
	for l, d := range demands {
		for c := 0; c < d.NumClasses(); c++ {
			if need := d.At(c); need > 0 && (c >= len(served) || served[c][l] < need*(1-1e-6)) {
				t.Fatalf("%s: link %d class %d underserved (need %v bits)", tag, l, c, need)
			}
		}
	}
	if math.Abs(sum-plan.Objective) > 1e-9*(1+sum) {
		t.Fatalf("%s: Σ τ = %.17g, objective %.17g", tag, sum, plan.Objective)
	}
}

// TestAuditThreeClassSolve audits converged and anytime 3-class solves
// (the slice scenario's urllc/embb/besteffort demand mix) and a 1-class
// one, so the audit covers class counts other than the paper's two.
func TestAuditThreeClassSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	for _, classes := range []int{3, 1} {
		for trial := 0; trial < 3; trial++ {
			nw := servableNetwork(rng, 5, 2)
			nw.NumTrafficClasses = classes
			demands := make([]video.Demand, nw.NumLinks())
			for l := range demands {
				d := make(video.Demand, classes)
				for c := range d {
					d[c] = (1 + 4*rng.Float64()) * 1e6
				}
				demands[l] = d
			}
			for _, cancelFirst := range []bool{false, true} {
				s, err := NewSolver(nw, demands, Options{})
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				if cancelFirst {
					cancel()
				}
				res, err := s.Solve(ctx)
				cancel()
				if err != nil {
					t.Fatal(err)
				}
				if res.Truncated != cancelFirst || res.Plan.Objective <= 0 {
					t.Fatalf("%d classes trial %d: truncated %v, objective %v", classes, trial, res.Truncated, res.Plan.Objective)
				}
				auditPlan(t, fmt.Sprintf("%d classes trial %d anytime=%v", classes, trial, cancelFirst), nw, demands, res.Plan)
			}
		}
	}
}

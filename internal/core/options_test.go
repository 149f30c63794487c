package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mmwave/internal/netmodel"
)

func TestSolverMaxIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	nw := servableNetwork(rng, 6, 3)
	nw.Interference = netmodel.Global
	demands := uniformDemands(6, 5e7, 2.5e7)

	s, err := NewSolver(nw, demands, Options{MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) > 3 {
		t.Errorf("iterations = %d, want ≤ 3", len(res.Iterations))
	}
	// The early-stopped plan must still serve the demands (any MP
	// solution is feasible for P1).
	gotHP := make([]float64, nw.NumLinks())
	for i, sc := range res.Plan.Schedules {
		hp := sc.RateVectorsByClass(nw)[0]
		for l := range gotHP {
			gotHP[l] += hp[l] * res.Plan.Tau[i]
		}
	}
	for l := range gotHP {
		if gotHP[l] < demands[l].At(0)*(1-1e-6) {
			t.Errorf("link %d HP underserved after early stop", l)
		}
	}
}

func TestSolverGapTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	nw := servableNetwork(rng, 6, 3)
	demands := uniformDemands(6, 5e7, 2.5e7)

	full, err := NewSolver(nw, demands, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fres, err := full.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	loose, err := NewSolver(nw, demands, Options{GapTarget: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	lres, err := loose.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(lres.Iterations) > len(fres.Iterations) {
		t.Errorf("gap-targeted solve used more iterations (%d) than full (%d)",
			len(lres.Iterations), len(fres.Iterations))
	}
	// The early answer respects the gap guarantee against its own bound.
	if lres.Plan.Objective > 0 && lres.LowerBound > 0 {
		gap := (lres.Plan.Objective - lres.LowerBound) / lres.Plan.Objective
		if gap > 0.25+1e-9 {
			t.Errorf("achieved gap %v above target 0.25", gap)
		}
	}
	// And it can never be better than the true optimum.
	if lres.Plan.Objective < fres.Plan.Objective*(1-1e-9) {
		t.Errorf("gap-targeted objective %v below optimum %v", lres.Plan.Objective, fres.Plan.Objective)
	}
}

func TestPricerStringers(t *testing.T) {
	if NewBranchBoundPricer(0).String() == "" {
		t.Error("empty pricer name")
	}
	fp := NewBranchBoundPricer(10)
	fp.FixedPower = true
	if fp.String() == NewBranchBoundPricer(10).String() {
		t.Error("fixed-power pricer not distinguished in name")
	}
	if (GreedyPricer{}).String() != "greedy" {
		t.Error("greedy pricer name mismatch")
	}
}

func TestPricerDualLengthValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	nw := randomNetwork(rng, 3, 2)
	for _, p := range []Pricer{NewBranchBoundPricer(0), GreedyPricer{}} {
		if _, err := p.Price(nw, [][]float64{[]float64{1}, []float64{1, 2, 3}}); err == nil {
			t.Errorf("%s accepted mismatched dual vectors", p)
		}
	}
}

func TestFixedPowerNeverBeatsAdaptive(t *testing.T) {
	// Power adaptation strictly enlarges the feasible schedule set, so
	// the fixed-power optimum can never be better.
	rng := rand.New(rand.NewSource(109))
	for trial := 0; trial < 5; trial++ {
		nw := servableNetwork(rng, 5, 2)
		nw.Interference = netmodel.Global
		demands := uniformDemands(5, 3e7, 1.5e7)

		adaptive, err := NewSolver(nw, demands, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ares, err := adaptive.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}

		fp := NewBranchBoundPricer(0)
		fp.FixedPower = true
		fixed, err := NewSolver(nw, demands, Options{Pricer: fp})
		if err != nil {
			t.Fatal(err)
		}
		fres, err := fixed.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if fres.Plan.Objective < ares.Plan.Objective*(1-1e-9) {
			t.Errorf("trial %d: fixed power %v beats adaptive %v",
				trial, fres.Plan.Objective, ares.Plan.Objective)
		}
		for i, sc := range fres.Plan.Schedules {
			if err := sc.Validate(nw); err != nil {
				t.Errorf("trial %d: fixed-power schedule %d invalid: %v", trial, i, err)
			}
		}
	}
}

func TestSolverSingleLink(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	nw := servableNetwork(rng, 1, 2)
	demands := uniformDemands(1, 1e7, 5e6)
	s, err := NewSolver(nw, demands, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("single link must converge")
	}
	// Serial bound: HP and LP cannot overlap for one link, so the
	// optimum is exactly d_hp/r_best + d_lp/r_best.
	bestRate := 0.0
	for k := 0; k < nw.NumChannels; k++ {
		if r := nw.SoloRate(0, k); r > bestRate {
			bestRate = r
		}
	}
	want := demands[0].At(0)/bestRate + demands[0].At(1)/bestRate
	if diff := res.Plan.Objective - want; diff > 1e-9*want || diff < -1e-9*want {
		t.Errorf("objective %v, want %v", res.Plan.Objective, want)
	}
}

func TestSetDemandsReusesPool(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	nw := servableNetwork(rng, 6, 3)
	d1 := uniformDemands(6, 4e7, 2e7)
	d2 := uniformDemands(6, 2e7, 5e7)

	// Reference: fresh solver for the second demand vector.
	fresh, err := NewSolver(nw, d2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fres, err := fresh.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Warm path: solve d1, then update to d2 on the same solver.
	s, err := NewSolver(nw, d1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.SetDemands(d2); err != nil {
		t.Fatal(err)
	}
	warm, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if diff := warm.Plan.Objective - fres.Plan.Objective; diff > 1e-6*(1+fres.Plan.Objective) || diff < -1e-6*(1+fres.Plan.Objective) {
		t.Errorf("warm objective %v != fresh %v", warm.Plan.Objective, fres.Plan.Objective)
	}
	if len(warm.Iterations) > len(fres.Iterations) {
		t.Errorf("warm re-solve used %d iterations, fresh used %d — pool reuse should not be slower",
			len(warm.Iterations), len(fres.Iterations))
	}
}

func TestSetDemandsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	nw := servableNetwork(rng, 3, 2)
	s, err := NewSolver(nw, uniformDemands(3, 1e6, 1e6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetDemands(uniformDemands(2, 1, 1)); err == nil {
		t.Error("demand count mismatch accepted")
	}
	bad := uniformDemands(3, 1e6, 1e6)
	bad[0][1] = math.Inf(1)
	if err := s.SetDemands(bad); err == nil {
		t.Error("invalid demand accepted")
	}
	// Zero demand everywhere is fine.
	if err := s.SetDemands(uniformDemands(3, 0, 0)); err != nil {
		t.Errorf("zero demands rejected: %v", err)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Objective > 1e-9 {
		t.Errorf("objective %v for zero demand", res.Plan.Objective)
	}
}

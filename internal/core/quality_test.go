package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mmwave/internal/netmodel"
	"mmwave/internal/schedule"
	"mmwave/internal/video"

	lppkg "mmwave/internal/lp"
)

func TestQualityGenerousBudgetDeliversEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	nw := servableNetwork(rng, 4, 2)
	demands := uniformDemands(4, 2e7, 1e7)

	// First find the minimal time, then give the quality solver more.
	mins, err := NewSolver(nw, demands, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mres, err := mins.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	qs, err := NewQualitySolver(nw, demands, mres.Plan.Objective*1.01, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	qres, err := qs.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, d := range demands {
		want += d.Total()
	}
	if math.Abs(qres.Quality-want) > 1e-6*want {
		t.Errorf("quality = %v, want full delivery %v", qres.Quality, want)
	}
	for l, d := range qres.Delivered {
		if d.At(0) > demands[l].At(0)*(1+1e-9) || d.At(1) > demands[l].At(1)*(1+1e-9) {
			t.Errorf("link %d over-delivered: %+v > %+v", l, d, demands[l])
		}
	}
	if qres.Plan.Objective > mres.Plan.Objective*1.01+1e-9 {
		t.Errorf("plan time %v exceeds budget", qres.Plan.Objective)
	}
}

func TestQualityZeroBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	nw := servableNetwork(rng, 3, 2)
	demands := uniformDemands(3, 1e7, 1e7)
	qs, err := NewQualitySolver(nw, demands, 0, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := qs.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality > 1e-6 {
		t.Errorf("quality = %v with zero budget, want 0", res.Quality)
	}
	if res.Plan.Objective > 1e-9 {
		t.Errorf("plan time = %v with zero budget", res.Plan.Objective)
	}
}

func TestQualityMonotoneInBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	nw := servableNetwork(rng, 4, 2)
	demands := uniformDemands(4, 3e7, 2e7)
	prev := -1.0
	for _, budget := range []float64{0.1, 0.3, 0.6, 1.2} {
		qs, err := NewQualitySolver(nw, demands, budget, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := qs.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Quality < prev-1e-6*(1+prev) {
			t.Errorf("quality decreased with larger budget: %v after %v", res.Quality, prev)
		}
		prev = res.Quality
		if res.Plan.Objective > budget*(1+1e-9) {
			t.Errorf("plan time %v exceeds budget %v", res.Plan.Objective, budget)
		}
	}
}

// bruteForceQuality solves the quality LP over the fully enumerated
// schedule pool (ground truth for small instances).
func bruteForceQuality(t *testing.T, nw *netmodel.Network, demands []video.Demand, budget float64) float64 {
	t.Helper()
	all := enumerateFeasible(nw)
	pool := schedule.NewPool()
	for _, s := range all {
		pool.Add(s)
	}
	n := pool.Len()
	L := nw.NumLinks()
	nVars := n + 2*L
	costs := make([]float64, nVars)
	for l := 0; l < L; l++ {
		costs[n+l] = -1
		costs[n+L+l] = -1
	}
	p := lppkg.NewProblem(costs)
	for l := 0; l < L; l++ {
		row := make([]float64, nVars)
		for j := 0; j < n; j++ {
			row[j] = pool.At(j).RateVectorsByClass(nw)[0][l]
		}
		row[n+l] = -1
		p.AddRow(row, lppkg.GE, 0)
	}
	for l := 0; l < L; l++ {
		row := make([]float64, nVars)
		for j := 0; j < n; j++ {
			row[j] = pool.At(j).RateVectorsByClass(nw)[1][l]
		}
		row[n+L+l] = -1
		p.AddRow(row, lppkg.GE, 0)
	}
	for l := 0; l < L; l++ {
		row := make([]float64, nVars)
		row[n+l] = 1
		p.AddRow(row, lppkg.LE, demands[l].At(0))
		row2 := make([]float64, nVars)
		row2[n+L+l] = 1
		p.AddRow(row2, lppkg.LE, demands[l].At(1))
	}
	row := make([]float64, nVars)
	for j := 0; j < n; j++ {
		row[j] = 1
	}
	p.AddRow(row, lppkg.LE, budget)

	sol, err := lppkg.Solve(p)
	if err != nil || sol.Status != lppkg.StatusOptimal {
		t.Fatalf("brute force quality LP: %v / %+v", err, sol)
	}
	return -sol.Objective
}

func TestQualityMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	for trial := 0; trial < 5; trial++ {
		nw := servableNetwork(rng, 3, 2)
		demands := uniformDemands(3, 1.5e7*(0.5+rng.Float64()), 1e7*(0.5+rng.Float64()))
		budget := 0.05 + rng.Float64()*0.3

		want := bruteForceQuality(t, nw, demands, budget)
		qs, err := NewQualitySolver(nw, demands, budget, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := qs.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Errorf("trial %d: not converged", trial)
		}
		if math.Abs(res.Quality-want) > 1e-5*(1+want) {
			t.Errorf("trial %d: quality %v, brute force %v", trial, res.Quality, want)
		}
	}
}

func TestQualityWeightsSteerAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(233))
	nw := servableNetwork(rng, 3, 2)
	demands := uniformDemands(3, 5e7, 0)
	// A tight budget and one link weighted far above the others: that
	// link must receive (weakly) the most service.
	weights := []float64{1, 10, 1}
	qs, err := NewQualitySolver(nw, demands, 0.2, weights, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := qs.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered[1].Total() < res.Delivered[0].Total()-1e-6 ||
		res.Delivered[1].Total() < res.Delivered[2].Total()-1e-6 {
		t.Errorf("weighted link under-served: %v vs %v / %v",
			res.Delivered[1].Total(), res.Delivered[0].Total(), res.Delivered[2].Total())
	}
}

func TestQualityPSNRHelper(t *testing.T) {
	res := &QualityResult{Delivered: []video.Demand{{25e6, 25e6}}}
	q := video.Quality{Alpha: 30, Beta: 0.05}
	// 50 Mb over 0.5 s = 100 Mb/s → PSNR 35.
	if got := res.PSNR(0, q, 0.5); math.Abs(got-35) > 1e-9 {
		t.Errorf("PSNR = %v, want 35", got)
	}
	if got := res.PSNR(0, q, 0); got != 0 {
		t.Errorf("PSNR with zero GOP = %v, want 0", got)
	}
}

func TestNewQualitySolverErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(239))
	nw := servableNetwork(rng, 2, 2)
	good := uniformDemands(2, 1e6, 1e6)

	if _, err := NewQualitySolver(nw, good[:1], 1, nil, Options{}); err == nil {
		t.Error("demand count mismatch accepted")
	}
	if _, err := NewQualitySolver(nw, good, -1, nil, Options{}); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := NewQualitySolver(nw, good, math.NaN(), nil, Options{}); err == nil {
		t.Error("NaN budget accepted")
	}
	if _, err := NewQualitySolver(nw, good, 1, []float64{1}, Options{}); err == nil {
		t.Error("weight count mismatch accepted")
	}
	if _, err := NewQualitySolver(nw, good, 1, []float64{1, -2}, Options{}); err == nil {
		t.Error("negative weight accepted")
	}
	bad := uniformDemands(2, 1e6, 1e6)
	bad[0][0] = math.Inf(1)
	if _, err := NewQualitySolver(nw, bad, 1, nil, Options{}); err == nil {
		t.Error("invalid demand accepted")
	}
	broken := *nw
	broken.PMax = 0
	if _, err := NewQualitySolver(&broken, good, 1, nil, Options{}); err == nil {
		t.Error("invalid network accepted")
	}
}

func TestQualityPropertyBudgetRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(241))
	check := func(uint32) bool {
		nw := servableNetwork(rng, 2+rng.Intn(3), 1+rng.Intn(2))
		demands := uniformDemands(nw.NumLinks(), rng.Float64()*3e7, rng.Float64()*2e7)
		budget := rng.Float64() * 0.5
		qs, err := NewQualitySolver(nw, demands, budget, nil, Options{})
		if err != nil {
			return false
		}
		res, err := qs.Solve(context.Background())
		if err != nil {
			return false
		}
		if res.Plan.Objective > budget*(1+1e-6)+1e-12 {
			return false
		}
		var total float64
		for l, d := range res.Delivered {
			if d.At(0) > demands[l].At(0)*(1+1e-6)+1e-9 || d.At(1) > demands[l].At(1)*(1+1e-6)+1e-9 {
				return false
			}
			if d.At(0) < -1e-9 || d.At(1) < -1e-9 {
				return false
			}
			total += d.Total()
		}
		// Every plan schedule must be feasible.
		for _, sc := range res.Plan.Schedules {
			if sc.Validate(nw) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

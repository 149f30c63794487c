package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mmwave/internal/channel"
	"mmwave/internal/geom"
	"mmwave/internal/lp"
	"mmwave/internal/netmodel"
	"mmwave/internal/schedule"
	"mmwave/internal/video"
)

// rateTable5 is the paper's Γ = {0.1, …, 0.5} at 200 MHz.
func rateTable5() netmodel.RateTable {
	return netmodel.NewShannonRateTable(200e6, []float64{0.1, 0.2, 0.3, 0.4, 0.5})
}

// randomNetwork draws a Table-I instance with disjoint nodes.
func randomNetwork(rng *rand.Rand, nLinks, nChannels int) *netmodel.Network {
	room := geom.Room{Width: 20, Height: 20}
	segs := room.PlaceLinks(rng, nLinks, 1, 5)
	gains := channel.TableI{}.Generate(rng, segs, nChannels)
	links := make([]netmodel.Link, nLinks)
	noise := make([]float64, nLinks)
	for i := range links {
		links[i] = netmodel.Link{TXNode: 2 * i, RXNode: 2*i + 1, Seg: segs[i]}
		noise[i] = 0.1
	}
	return &netmodel.Network{
		Links:       links,
		NumChannels: nChannels,
		Gains:       gains,
		Noise:       noise,
		PMax:        1,
		Rates:       rateTable5(),
		BandwidthHz: 200e6,
	}
}

// servableNetwork redraws until every link reaches at least the lowest
// rate level alone at PMax (so TDMA initialization covers all links).
func servableNetwork(rng *rand.Rand, nLinks, nChannels int) *netmodel.Network {
	for {
		nw := randomNetwork(rng, nLinks, nChannels)
		ok := true
		for l := 0; l < nLinks && ok; l++ {
			_, sinr := nw.BestSingleLinkChannel(l)
			ok = nw.Rates.BestLevel(sinr) >= 0
		}
		if ok {
			return nw
		}
	}
}

// uniformDemands gives every link the same HP/LP demand in bits.
func uniformDemands(n int, hp, lpBits float64) []video.Demand {
	d := make([]video.Demand, n)
	for i := range d {
		d[i] = video.TwoClass(hp, lpBits)
	}
	return d
}

// choice is a per-link decision in the brute-force enumeration: idle
// (k == -1) or an activation tuple.
type choice struct {
	k, q  int
	layer schedule.Layer
}

// enumerateFeasible lists every feasible discrete schedule of a small
// network (each link idle or assigned (channel, level, layer)),
// including minimal powers. Exponential; test-only.
func enumerateFeasible(nw *netmodel.Network) []*schedule.Schedule {
	L := nw.NumLinks()
	K := nw.NumChannels
	Q := nw.Rates.Levels()
	options := make([][]choice, L)
	for l := 0; l < L; l++ {
		opts := []choice{{k: -1}}
		for k := 0; k < K; k++ {
			for q := 0; q < Q; q++ {
				for _, layer := range []schedule.Layer{schedule.HP, schedule.LP} {
					opts = append(opts, choice{k: k, q: q, layer: layer})
				}
			}
		}
		options[l] = opts
	}
	var out []*schedule.Schedule
	assign := make([]choice, L)
	var rec func(l int)
	rec = func(l int) {
		if l == L {
			s := buildFromChoices(nw, assign)
			if s != nil {
				out = append(out, s)
			}
			return
		}
		for _, c := range options[l] {
			assign[l] = c
			rec(l + 1)
		}
	}
	rec(0)
	return out
}

// buildFromChoices converts per-link choices into a feasible schedule
// or nil. Feasibility is judged on the whole pattern under the
// network's interference model.
func buildFromChoices(nw *netmodel.Network, assign []choice) *schedule.Schedule {
	usedNode := map[int]bool{}
	var links, chans []int
	var gammas []float64
	for l, c := range assign {
		if c.k < 0 {
			continue
		}
		lk := nw.Links[l]
		if usedNode[lk.TXNode] || usedNode[lk.RXNode] {
			return nil
		}
		usedNode[lk.TXNode] = true
		usedNode[lk.RXNode] = true
		links = append(links, l)
		chans = append(chans, c.k)
		gammas = append(gammas, nw.Rates.Gammas[c.q])
	}
	powers, ok := nw.MinPowersAssigned(links, chans, gammas)
	if !ok {
		return nil
	}
	var s schedule.Schedule
	for i, l := range links {
		s.Assignments = append(s.Assignments, schedule.Assignment{
			Link: l, Channel: chans[i], Level: assign[l].q, Layer: assign[l].layer, Power: powers[i],
		})
	}
	s.Normalize()
	return &s
}

// bruteForceP1 solves P1 exactly by enumerating all feasible schedules
// and solving the full LP.
func bruteForceP1(t *testing.T, nw *netmodel.Network, demands []video.Demand) float64 {
	t.Helper()
	all := enumerateFeasible(nw)
	pool := schedule.NewPool()
	for _, s := range all {
		pool.Add(s)
	}
	n := pool.Len()
	L := nw.NumLinks()
	costs := make([]float64, n)
	for j := range costs {
		costs[j] = 1
	}
	p := lp.NewProblem(costs)
	colHP := make([][]float64, n)
	colLP := make([][]float64, n)
	for j := 0; j < n; j++ {
		rv := pool.At(j).RateVectorsByClass(nw)
		colHP[j], colLP[j] = rv[0], rv[1]
	}
	for l := 0; l < L; l++ {
		row := make([]float64, n)
		for j := 0; j < n; j++ {
			row[j] = colHP[j][l]
		}
		p.AddRow(row, lp.GE, demands[l].At(0))
	}
	for l := 0; l < L; l++ {
		row := make([]float64, n)
		for j := 0; j < n; j++ {
			row[j] = colLP[j][l]
		}
		p.AddRow(row, lp.GE, demands[l].At(1))
	}
	sol, err := lp.Solve(p)
	if err != nil || sol.Status != lp.StatusOptimal {
		t.Fatalf("brute force LP failed: %v / %v", err, sol)
	}
	return sol.Objective
}

// TestSolverMatchesBruteForce runs full column generation and requires
// the P1 optimum of the LP over every enumerated feasible schedule,
// under both interference models.
func TestSolverMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, interference := range []netmodel.InterferenceModel{netmodel.PerChannel, netmodel.Global} {
		for trial := 0; trial < 8; trial++ {
			nw := servableNetwork(rng, 3, 2)
			nw.Interference = interference
			demands := uniformDemands(3, 2e7*(0.5+rng.Float64()), 1e7*(0.5+rng.Float64()))
			want := bruteForceP1(t, nw, demands)

			s, err := NewSolver(nw, demands, Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Solve(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Errorf("%v trial %d: did not converge", interference, trial)
			}
			if math.Abs(res.Plan.Objective-want) > 1e-5*(1+want) {
				t.Errorf("%v trial %d: objective %v, brute force %v", interference, trial, res.Plan.Objective, want)
			}
			if res.LowerBound > res.Plan.Objective*(1+1e-6)+1e-9 {
				t.Errorf("%v trial %d: lower bound %v above objective %v", interference, trial, res.LowerBound, res.Plan.Objective)
			}
		}
	}
}

func TestSolverPlanFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nw := servableNetwork(rng, 6, 3)
	demands := uniformDemands(6, 5e7, 2.5e7)
	s, err := NewSolver(nw, demands, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Every schedule in the plan is feasible.
	for i, sc := range res.Plan.Schedules {
		if err := sc.Validate(nw); err != nil {
			t.Errorf("plan schedule %d invalid: %v", i, err)
		}
		if res.Plan.Tau[i] <= 0 {
			t.Errorf("plan schedule %d has non-positive τ", i)
		}
	}
	// Demands are served.
	L := nw.NumLinks()
	gotHP := make([]float64, L)
	gotLP := make([]float64, L)
	for i, sc := range res.Plan.Schedules {
		rv := sc.RateVectorsByClass(nw)
		hp, lpr := rv[0], rv[1]
		for l := 0; l < L; l++ {
			gotHP[l] += hp[l] * res.Plan.Tau[i]
			gotLP[l] += lpr[l] * res.Plan.Tau[i]
		}
	}
	for l := 0; l < L; l++ {
		if gotHP[l] < demands[l].At(0)*(1-1e-6) {
			t.Errorf("link %d HP served %v < demand %v", l, gotHP[l], demands[l].At(0))
		}
		if gotLP[l] < demands[l].At(1)*(1-1e-6) {
			t.Errorf("link %d LP served %v < demand %v", l, gotLP[l], demands[l].At(1))
		}
	}
	// Objective equals Σ τ.
	var sum float64
	for _, tau := range res.Plan.Tau {
		sum += tau
	}
	if math.Abs(sum-res.Plan.Objective) > 1e-6*(1+sum) {
		t.Errorf("Σ τ = %v, objective %v", sum, res.Plan.Objective)
	}
}

func TestSolverBeatsOrMatchesTDMA(t *testing.T) {
	// The column-generation optimum can never be worse than the pure
	// TDMA plan it starts from.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 5; trial++ {
		nw := servableNetwork(rng, 5, 2)
		demands := uniformDemands(5, 4e7, 2e7)

		s, err := NewSolver(nw, demands, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// TDMA-only objective: iteration 0's upper bound is the master
		// solved over the initial (TDMA) pool, before any pricing.
		if len(res.Iterations) == 0 {
			t.Fatal("no iteration telemetry")
		}
		tdmaObj := res.Iterations[0].Upper
		if res.Plan.Objective > tdmaObj*(1+1e-9) {
			t.Errorf("trial %d: colgen %v worse than TDMA %v", trial, res.Plan.Objective, tdmaObj)
		}
	}
}

func TestSolverConvergenceTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	nw := servableNetwork(rng, 6, 3)
	demands := uniformDemands(6, 6e7, 3e7)
	s, err := NewSolver(nw, demands, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) == 0 {
		t.Fatal("no iteration telemetry")
	}
	prevUpper := math.Inf(1)
	prevBestLower := 0.0
	for _, it := range res.Iterations {
		if it.Upper > prevUpper*(1+1e-9) {
			t.Errorf("iter %d: upper bound increased %v → %v", it.Iter, prevUpper, it.Upper)
		}
		if it.BestLower < prevBestLower-1e-9 {
			t.Errorf("iter %d: best lower bound decreased", it.Iter)
		}
		if it.BestLower > it.Upper*(1+1e-6) {
			t.Errorf("iter %d: lower %v above upper %v", it.Iter, it.BestLower, it.Upper)
		}
		prevUpper = it.Upper
		prevBestLower = it.BestLower
	}
	last := res.Iterations[len(res.Iterations)-1]
	if last.Phi < -1e-6 {
		t.Errorf("final Φ = %v, want ≈ ≥ 0", last.Phi)
	}
	if !res.Converged {
		t.Error("expected convergence")
	}
	if res.Gap() > 1e-6 {
		t.Errorf("gap = %v, want ~0", res.Gap())
	}
}

func TestSolverZeroDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	nw := servableNetwork(rng, 4, 2)
	demands := uniformDemands(4, 0, 0)
	s, err := NewSolver(nw, demands, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Objective > 1e-9 {
		t.Errorf("objective = %v, want 0 for zero demand", res.Plan.Objective)
	}
}

func TestNewSolverErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	nw := servableNetwork(rng, 3, 2)

	t.Run("demand count", func(t *testing.T) {
		if _, err := NewSolver(nw, uniformDemands(2, 1, 1), Options{}); err == nil {
			t.Error("want error for wrong demand count")
		}
	})
	t.Run("invalid demand", func(t *testing.T) {
		d := uniformDemands(3, 1, 1)
		d[1][0] = math.NaN()
		if _, err := NewSolver(nw, d, Options{}); err == nil {
			t.Error("want error for NaN demand")
		}
	})
	t.Run("invalid network", func(t *testing.T) {
		bad := *nw
		bad.PMax = 0
		if _, err := NewSolver(&bad, uniformDemands(3, 1, 1), Options{}); err == nil {
			t.Error("want error for invalid network")
		}
	})
	t.Run("unservable link", func(t *testing.T) {
		bad := randomNetwork(rng, 2, 1)
		bad.Gains.Direct[0][0] = 1e-6 // cannot reach any level
		bad.Gains.Direct[1][0] = 0.9
		_, err := NewSolver(bad, uniformDemands(2, 1e6, 0), Options{})
		if !errors.Is(err, ErrUnservable) {
			t.Errorf("err = %v, want ErrUnservable", err)
		}
	})
	t.Run("unservable with zero demand is fine", func(t *testing.T) {
		bad := randomNetwork(rng, 2, 1)
		bad.Gains.Direct[0][0] = 1e-6
		bad.Gains.Direct[1][0] = 0.9
		d := []video.Demand{{}, {1e6, 1e6}}
		if _, err := NewSolver(bad, d, Options{}); err != nil {
			t.Errorf("unexpected error: %v", err)
		}
	})
}

// TestPricerCrossValidation checks the branch-and-bound pricer against
// exhaustive enumeration of the pricing sub-problem (eqs. 27–33) under
// both interference models.
func TestPricerCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	bbP := NewBranchBoundPricer(0)
	for _, interference := range []netmodel.InterferenceModel{netmodel.PerChannel, netmodel.Global} {
		for trial := 0; trial < 6; trial++ {
			nw := randomNetwork(rng, 3, 2)
			nw.Interference = interference
			// Shrink the rate table to keep the enumeration small.
			nw.Rates = netmodel.NewShannonRateTable(200e6, []float64{0.1, 0.3})
			lambda := randomClassDuals(rng, 2, nw.NumLinks())
			bb, err := bbP.Price(nw, lambda)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstBruteForce(t, fmt.Sprintf("%v trial %d", interference, trial), nw, lambda, bb)
		}
	}
}

func TestBranchBoundPricerProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	p := NewBranchBoundPricer(0)
	check := func(uint32) bool {
		nw := randomNetwork(rng, 2+rng.Intn(5), 1+rng.Intn(3))
		L := nw.NumLinks()
		lamHP := make([]float64, L)
		lamLP := make([]float64, L)
		for l := 0; l < L; l++ {
			lamHP[l] = rng.Float64() * 2e-8
			lamLP[l] = rng.Float64() * 2e-8
		}
		res, err := p.Price(nw, [][]float64{lamHP, lamLP})
		if err != nil || !res.Exact {
			return false
		}
		if res.Value < -1e-12 || res.RelaxValue < res.Value-1e-9 {
			return false
		}
		if res.Schedule != nil {
			if err := res.Schedule.Validate(nw); err != nil {
				return false
			}
			v := res.Schedule.Value(nw, [][]float64{lamHP, lamLP})
			if math.Abs(v-res.Value) > 1e-6*(1+v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGreedyPricerNeverBeatsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	exact := NewBranchBoundPricer(0)
	greedy := GreedyPricer{}
	for trial := 0; trial < 20; trial++ {
		nw := randomNetwork(rng, 2+rng.Intn(5), 1+rng.Intn(3))
		L := nw.NumLinks()
		lamHP := make([]float64, L)
		lamLP := make([]float64, L)
		for l := 0; l < L; l++ {
			lamHP[l] = rng.Float64() * 2e-8
			lamLP[l] = rng.Float64() * 2e-8
		}
		ex, err := exact.Price(nw, [][]float64{lamHP, lamLP})
		if err != nil {
			t.Fatal(err)
		}
		gr, err := greedy.Price(nw, [][]float64{lamHP, lamLP})
		if err != nil {
			t.Fatal(err)
		}
		if gr.Value > ex.Value+1e-9*(1+ex.Value) {
			t.Errorf("trial %d: greedy %v beats exact %v", trial, gr.Value, ex.Value)
		}
		if gr.Schedule != nil {
			if err := gr.Schedule.Validate(nw); err != nil {
				t.Errorf("trial %d: greedy schedule invalid: %v", trial, err)
			}
		}
	}
}

func TestPricerBudgetTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	nw := servableNetwork(rng, 12, 3)
	// Global interference makes the pricing landscape hard: the greedy
	// seed cannot reach the interference-free relaxation bound, so a
	// tiny budget must truncate.
	nw.Interference = netmodel.Global
	L := nw.NumLinks()
	lamHP := make([]float64, L)
	lamLP := make([]float64, L)
	for l := 0; l < L; l++ {
		lamHP[l] = rng.Float64() * 2e-8
		lamLP[l] = rng.Float64() * 2e-8
	}
	tiny := NewBranchBoundPricer(5)
	res, err := tiny.Price(nw, [][]float64{lamHP, lamLP})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Error("budget 5 should truncate on an 8-link instance")
	}
	// RelaxValue must still upper-bound the exact optimum.
	full := NewBranchBoundPricer(0)
	fres, err := full.Price(nw, [][]float64{lamHP, lamLP})
	if err != nil {
		t.Fatal(err)
	}
	if res.RelaxValue < fres.Value-1e-9 {
		t.Errorf("relax %v below exact optimum %v", res.RelaxValue, fres.Value)
	}
}

func TestSolverWithGreedyPricerStillFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	nw := servableNetwork(rng, 5, 2)
	demands := uniformDemands(5, 3e7, 1.5e7)

	exact, err := NewSolver(nw, demands, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eres, err := exact.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	greedy, err := NewSolver(nw, demands, Options{Pricer: GreedyPricer{}})
	if err != nil {
		t.Fatal(err)
	}
	gres, err := greedy.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Heuristic pricing can stall early but never below the optimum.
	if gres.Plan.Objective < eres.Plan.Objective*(1-1e-6) {
		t.Errorf("greedy-priced plan %v below optimum %v", gres.Plan.Objective, eres.Plan.Objective)
	}
}

func TestPlanSlots(t *testing.T) {
	p := Plan{Tau: []float64{0.05, 0.149, 1.0}}
	if got := p.Slots(0.05); got != 1+3+20 {
		t.Errorf("Slots = %d, want 24", got)
	}
	if got := p.Slots(0); got != 0 {
		t.Errorf("Slots(0) = %d, want 0", got)
	}
}

func TestDualsNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	nw := servableNetwork(rng, 4, 2)
	demands := uniformDemands(4, 3e7, 1e7)
	s, err := NewSolver(nw, demands, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for l := range res.Duals.Class(0) {
		if res.Duals.Class(0)[l] < 0 || res.Duals.Class(1)[l] < 0 {
			t.Errorf("negative dual at link %d", l)
		}
	}
}

func TestResultGap(t *testing.T) {
	r := &Result{Plan: Plan{Objective: 2}, LowerBound: 1.5}
	if g := r.Gap(); math.Abs(g-0.25) > 1e-12 {
		t.Errorf("Gap = %v, want 0.25", g)
	}
	r.LowerBound = 3 // bound above objective from loose accounting clamps to 0
	if g := r.Gap(); g != 0 {
		t.Errorf("negative gap not clamped: %v", g)
	}
	zero := &Result{}
	if zero.Gap() != 0 {
		t.Error("zero-objective gap should be 0")
	}
}

func TestPlanTotalTime(t *testing.T) {
	p := Plan{Objective: 1.25}
	if p.TotalTime() != 1.25 {
		t.Errorf("TotalTime = %v", p.TotalTime())
	}
}

func TestRateVectorsValueHelper(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	nw := servableNetwork(rng, 2, 1)
	s := &schedule.Schedule{Assignments: []schedule.Assignment{
		{Link: 0, Channel: 0, Level: 0, Layer: schedule.HP, Power: 0.5},
	}}
	lam := []float64{2e-8, 0}
	zero := []float64{0, 0}
	want := 2e-8 * nw.Rates.Rates[0]
	if v := s.Value(nw, [][]float64{lam, zero}); math.Abs(v-want) > 1e-12 {
		t.Errorf("value = %v, want %v", v, want)
	}
}

// TestSolverWithMILPPricerMatchesBranchBound checks full column
// generation on the Shannon-rate instance once compared against the
// eqs.-(27)–(33) MILP pricer. That pricer is gone; the independent exact
// reference is now the P1 optimum over every enumerated feasible
// schedule, under both interference models.
func TestSolverWithMILPPricerMatchesBranchBound(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for _, interference := range []netmodel.InterferenceModel{netmodel.PerChannel, netmodel.Global} {
		nw := servableNetwork(rng, 3, 2)
		nw.Interference = interference
		nw.Rates = netmodel.NewShannonRateTable(200e6, []float64{0.1, 0.3})
		demands := uniformDemands(3, 1.5e7, 1e7)
		want := bruteForceP1(t, nw, demands)

		bb, err := NewSolver(nw, demands, Options{})
		if err != nil {
			t.Fatal(err)
		}
		bres, err := bb.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !bres.Converged {
			t.Fatalf("%v: did not converge", interference)
		}
		if math.Abs(bres.Plan.Objective-want) > 1e-5*(1+want) {
			t.Errorf("%v: bb optimum %v != brute-force optimum %v",
				interference, bres.Plan.Objective, want)
		}
	}
}

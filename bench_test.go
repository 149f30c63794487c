// Package mmwave's root benchmark harness regenerates every table and
// figure of the paper's evaluation (§VI) as Go benchmarks. Each
// BenchmarkFig* case measures one point of the corresponding figure at
// a fixed seed and reports the figure's metric (scheduling time,
// average delay, Jain fairness, convergence iterations) through
// b.ReportMetric, so `go test -bench=.` prints the series the paper
// plots. The full sweeps with 50-seed confidence intervals are
// produced by cmd/mmwavesim; see EXPERIMENTS.md.
package mmwave

import (
	"fmt"
	"math/rand"
	"testing"

	"mmwave/internal/core"
	"mmwave/internal/experiment"
	"mmwave/internal/lp"
	"mmwave/internal/netmodel"
	"mmwave/internal/pncd"
	"mmwave/internal/stats"
)

// benchConfig returns the Table I configuration tuned for benchmark
// iteration counts (single rep per measurement; the bench loop itself
// provides repetition).
func benchConfig() experiment.Config {
	cfg := experiment.DefaultConfig()
	cfg.Seeds = 1
	return cfg
}

// runPoint executes one (algorithm, links, demand-scale) measurement.
func runPoint(b *testing.B, cfg experiment.Config, algo experiment.Algorithm, rep int) *experiment.RunResult {
	b.Helper()
	res, err := experiment.RunOnce(cfg, algo, rep)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig1SchedulingTime regenerates Figure 1: overall scheduling
// time versus the number of links for the proposed scheme and both
// benchmarks. The reported "sched_s" metric is the figure's y-value.
func BenchmarkFig1SchedulingTime(b *testing.B) {
	for _, algo := range experiment.AllAlgorithms() {
		for _, links := range []int{10, 20, 30} {
			b.Run(fmt.Sprintf("%s/links=%d", algo, links), func(b *testing.B) {
				cfg := benchConfig()
				cfg.NumLinks = links
				b.ReportAllocs()
				var total float64
				for i := 0; i < b.N; i++ {
					res := runPoint(b, cfg, algo, i)
					total += res.Exec.TotalTime
				}
				b.ReportMetric(total/float64(b.N), "sched_s")
			})
		}
	}
}

// BenchmarkFig2AverageDelay regenerates Figure 2: average per-link
// delay versus traffic demand (×nominal GOP volume).
func BenchmarkFig2AverageDelay(b *testing.B) {
	for _, algo := range experiment.AllAlgorithms() {
		for _, scale := range []float64{0.5, 1, 2} {
			b.Run(fmt.Sprintf("%s/demand=%.1fx", algo, scale), func(b *testing.B) {
				cfg := benchConfig()
				cfg.NumLinks = 20
				cfg.DemandScale = scale
				var total float64
				for i := 0; i < b.N; i++ {
					res := runPoint(b, cfg, algo, i)
					total += res.Exec.AverageDelay()
				}
				b.ReportMetric(total/float64(b.N), "delay_s")
			})
		}
	}
}

// BenchmarkFig3Fairness regenerates Figure 3: the Jain fairness index
// of per-link delay versus the number of links.
func BenchmarkFig3Fairness(b *testing.B) {
	for _, algo := range experiment.AllAlgorithms() {
		for _, links := range []int{10, 20, 30} {
			b.Run(fmt.Sprintf("%s/links=%d", algo, links), func(b *testing.B) {
				cfg := benchConfig()
				cfg.NumLinks = links
				var total float64
				for i := 0; i < b.N; i++ {
					res := runPoint(b, cfg, algo, i)
					total += stats.Jain(res.Exec.Completion)
				}
				b.ReportMetric(total/float64(b.N), "jain")
			})
		}
	}
}

// BenchmarkFig4Convergence regenerates Figure 4: one column-generation
// solve to proven optimality, reporting iterations to convergence and
// the final optimality gap.
func BenchmarkFig4Convergence(b *testing.B) {
	cfg := benchConfig()
	cfg.NumLinks = 7            // exact pricing converges quickly at this scale
	cfg.PricerBudget = 50000000 // effectively unlimited
	var iters, gap float64
	for i := 0; i < b.N; i++ {
		res := runPoint(b, cfg, experiment.Proposed, i)
		if !res.Solver.Converged {
			b.Fatal("fig4 run did not converge")
		}
		iters += float64(len(res.Solver.Iterations))
		gap += res.Solver.Gap()
	}
	b.ReportMetric(iters/float64(b.N), "iters")
	b.ReportMetric(gap/float64(b.N), "gap")
}

// BenchmarkTableIInstance measures instance generation under the
// Table I parameters (the simulation setup itself).
func BenchmarkTableIInstance(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := stats.Fork(cfg.Seed, int64(i))
		if _, err := experiment.NewInstance(cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation measures the proposed scheme under each design
// ablation of DESIGN.md §4 (power adaptation off, single channel,
// greedy pricing, physical interference model) at ‖L‖ = 15.
func BenchmarkAblation(b *testing.B) {
	for _, v := range experiment.AllAblations() {
		b.Run(string(v), func(b *testing.B) {
			cfg := benchConfig()
			cfg.NumLinks = 15
			switch v {
			case experiment.AblationFixedPower:
				cfg.FixedPower = true
			case experiment.AblationSingleChan:
				cfg.NumChannels = 1
			case experiment.AblationGreedyPrice:
				cfg.GreedyPricing = true
			case experiment.AblationPhysical:
				cfg.Interference = "per-channel"
			case experiment.AblationMultiChan:
				cfg.MultiChannel = true
			}
			var total, probes, masters float64
			for i := 0; i < b.N; i++ {
				res := runPoint(b, cfg, experiment.Proposed, i)
				total += res.Exec.TotalTime
				if res.Solver != nil {
					probes += float64(res.Solver.Stats.Probes)
					masters += float64(res.Solver.Stats.MasterSolves)
				}
			}
			b.ReportMetric(total/float64(b.N), "sched_s")
			// Deterministic work counters: the bench-diff noise gate
			// excuses ns/op drift when these are byte-identical.
			b.ReportMetric(probes/float64(b.N), "probes/op")
			b.ReportMetric(masters/float64(b.N), "masters/op")
		})
	}
}

// BenchmarkFigQuality regenerates one point of the PSNR-within-a-GOP
// extension figure (quality-mode LP vs truncated P1 vs truncated
// benchmarks).
func BenchmarkFigQuality(b *testing.B) {
	cfg := benchConfig()
	cfg.NumLinks = 10
	var psnr float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		fig, err := experiment.FigQuality(cfg, []float64{1})
		if err != nil {
			b.Fatal(err)
		}
		psnr += fig.Series[0].Points[0].Mean
	}
	b.ReportMetric(psnr/float64(b.N), "psnr_dB")
}

// BenchmarkBlockageChurn regenerates the blockage re-optimization
// study at reduced scale.
func BenchmarkBlockageChurn(b *testing.B) {
	bc := experiment.DefaultBlockageConfig()
	bc.Net.NumLinks = 6
	bc.Net.NumChannels = 3
	bc.Net.Seeds = 2
	bc.Net.PricerBudget = 2000
	bc.Epochs = 4
	var reopt float64
	for i := 0; i < b.N; i++ {
		bc.Net.Seed = int64(i + 1)
		res, err := experiment.RunBlockage(bc)
		if err != nil {
			b.Fatal(err)
		}
		reopt += res.Reoptimized.Mean
	}
	b.ReportMetric(reopt/float64(b.N), "reopt_s")
}

// BenchmarkRelayRecovery regenerates the dual-hop recovery study at
// reduced scale.
func BenchmarkRelayRecovery(b *testing.B) {
	rc := experiment.DefaultRelayConfig()
	rc.Net.NumLinks = 6
	rc.Net.NumChannels = 3
	rc.Net.Seeds = 2
	rc.Net.PricerBudget = 2000
	var t float64
	for i := 0; i < b.N; i++ {
		rc.Net.Seed = int64(i + 1)
		res, err := experiment.RunRelay(rc)
		if err != nil {
			b.Fatal(err)
		}
		t += res.TimeWithRelay.Mean
	}
	b.ReportMetric(t/float64(b.N), "relayed_s")
}

// BenchmarkWarmEpochReuse measures the cross-epoch warm-reuse study:
// a multi-epoch demand sequence on one instance, each epoch solved
// both on the persistent warm solver (pool + basis carried over) and
// TDMA-cold. The reported metrics are the per-epoch means; warm must
// be strictly below cold on both (asserted, not just reported).
func BenchmarkWarmEpochReuse(b *testing.B) {
	wc := experiment.DefaultWarmReuseConfig()
	wc.Net.NumLinks = 10
	wc.Net.Seeds = 2
	wc.Epochs = 6
	b.ReportAllocs()
	var warmIters, coldIters, warmPivots, coldPivots float64
	for i := 0; i < b.N; i++ {
		wc.Net.Seed = int64(i + 1)
		res, err := experiment.RunWarmReuse(wc)
		if err != nil {
			b.Fatal(err)
		}
		if res.WarmIters.Mean >= res.ColdIters.Mean || res.WarmPivots.Mean >= res.ColdPivots.Mean {
			b.Fatalf("warm not cheaper than cold: iters %.2f/%.2f pivots %.2f/%.2f",
				res.WarmIters.Mean, res.ColdIters.Mean, res.WarmPivots.Mean, res.ColdPivots.Mean)
		}
		warmIters += res.WarmIters.Mean
		coldIters += res.ColdIters.Mean
		warmPivots += res.WarmPivots.Mean
		coldPivots += res.ColdPivots.Mean
	}
	b.ReportMetric(warmIters/float64(b.N), "warm_iters/epoch")
	b.ReportMetric(coldIters/float64(b.N), "cold_iters/epoch")
	b.ReportMetric(warmPivots/float64(b.N), "warm_pivots/epoch")
	b.ReportMetric(coldPivots/float64(b.N), "cold_pivots/epoch")
}

// benchMasterLP builds a column-generation-master-shaped LP at a fixed
// seed: 2L GE demand rows (HP and LP layers), n unit-cost schedule
// columns whose entries are sparse rate contributions of ~1e8 scale.
func benchMasterLP(L, n int) *lp.Problem {
	rng := rand.New(rand.NewSource(1234))
	costs := make([]float64, n)
	for j := range costs {
		costs[j] = 1
	}
	p := lp.NewProblem(costs)
	for i := 0; i < 2*L; i++ {
		row := make([]float64, n)
		nz := false
		for j := range row {
			if rng.Float64() < 0.25 {
				row[j] = (0.5 + rng.Float64()) * 1e8
				nz = true
			}
		}
		if !nz {
			row[rng.Intn(n)] = 1e8
		}
		p.AddRow(row, lp.GE, (0.2+rng.Float64())*5e7)
	}
	return p
}

// BenchmarkLPSparse measures the LP core alone on a master-shaped
// instance: a cold solve and a warm dual-simplex repair after a fixed
// RHS increase with the default LU basis inverse, plus the same cold
// solve with the explicit dense inverse (Options.Dense), the reference
// the LU is tested against.
func BenchmarkLPSparse(b *testing.B) {
	const L, n = 30, 180
	for _, bench := range []struct {
		name  string
		dense bool
		warm  bool
	}{{"cold", false, false}, {"warm", false, true}, {"dense", true, false}} {
		b.Run(bench.name, func(b *testing.B) {
			p := benchMasterLP(L, n)
			s := lp.NewSolver(p)
			opt := lp.Options{Dense: bench.dense}
			var seedB []float64
			if bench.warm {
				sol, err := s.Solve(opt)
				if err != nil || sol.Status != lp.StatusOptimal {
					b.Fatalf("warm seed solve: %v status %v", err, sol.Status)
				}
				opt.WarmBasis = sol.Basis
				seedB = append(seedB, p.B...)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var pivots float64
			for i := 0; i < b.N; i++ {
				if bench.warm {
					// Every iteration restarts from the seed RHS and
					// raises every third demand row by half: the seed
					// basis stays dual feasible (the costs are
					// unchanged) but turns primal infeasible, so each
					// solve does the same dual-simplex repair.
					copy(p.B, seedB)
					for r := 0; r < len(p.B); r += 3 {
						p.B[r] *= 1.5
					}
				}
				sol, err := s.Solve(opt)
				if err != nil || sol.Status != lp.StatusOptimal {
					b.Fatalf("solve %d: %v status %v", i, err, sol.Status)
				}
				if bench.warm && !sol.Warm {
					b.Fatalf("solve %d: the seed basis was not reused", i)
				}
				pivots += float64(sol.Iterations)
			}
			b.ReportMetric(pivots/float64(b.N), "pivots/op")
		})
	}
}

// BenchmarkSolveProposed measures the optimizer alone (no slot replay)
// at the paper's full scale, reporting the feasibility-probe count and
// master-solve count per solve alongside time and allocations.
func BenchmarkSolveProposed(b *testing.B) {
	for _, links := range []int{10, 30} {
		b.Run(fmt.Sprintf("links=%d", links), func(b *testing.B) {
			cfg := benchConfig()
			cfg.NumLinks = links
			b.ReportAllocs()
			var probes, masters float64
			for i := 0; i < b.N; i++ {
				res := runPoint(b, cfg, experiment.Proposed, i)
				if res.Solver.Plan.Objective <= 0 {
					b.Fatal("empty plan")
				}
				probes += float64(res.Solver.Probes)
				masters += float64(res.Solver.MasterSolves)
			}
			b.ReportMetric(probes/float64(b.N), "probes/op")
			b.ReportMetric(masters/float64(b.N), "masters/op")
		})
	}
}

// BenchmarkSlices measures the 3-class slice scenario (URLLC / eMBB /
// best-effort) end to end: cells created and stepped through pncd over
// the v1 API under heavy traffic, with strict lowest-class-first
// shedding. The per-class served fractions are reported alongside the
// wall clock so the bench log doubles as a slice-SLA readout; the
// bench-diff gate ignores this entry (report-only).
func BenchmarkSlices(b *testing.B) {
	cfg := benchConfig()
	cfg.NumLinks = 5
	cfg.NumChannels = 2
	cfg.PricerBudget = 2000
	b.ReportAllocs()
	var served [3]float64
	for i := 0; i < b.N; i++ {
		res, err := pncd.RunSlices(pncd.SlicesConfig{Net: cfg, Epochs: 4})
		if err != nil {
			b.Fatal(err)
		}
		for c := range served {
			served[c] += res.ServedFraction(c)
		}
	}
	for c := range served {
		b.ReportMetric(served[c]/float64(b.N), fmt.Sprintf("served_c%d", c))
	}
}

// tableINetwork draws the Table-I network (30 links, 5 channels,
// global interference) of the first repetition at the default seed.
func tableINetwork(b *testing.B) *netmodel.Network {
	b.Helper()
	cfg := benchConfig()
	inst, err := experiment.NewInstance(cfg, stats.Fork(cfg.Seed, 0))
	if err != nil {
		b.Fatal(err)
	}
	return inst.Network
}

// BenchmarkProbe times the innermost rung of the ladder, one
// feasibility probe of the incremental bordered-LU solver, at a fixed
// committed depth on the Table-I network. One op probes every
// uncommitted link at every (channel, level) pair. "siblings" orders
// the sweep as the pricing search does — one link across all its
// (channel, level) pairs before the next — so consecutive probes share
// their border column; "distinct" asks the same questions link-
// innermost, so every probe solves its border from scratch;
// "reference" answers them with the full pivoted solve. probes/op and
// feasible/op are identical across the three.
func BenchmarkProbe(b *testing.B) {
	nw := tableINetwork(b)
	const depth = 6
	ps := netmodel.NewProbeSolver(nw, nw.NumLinks())
	var links, chans []int
	var gammas []float64
	committed := make([]bool, nw.NumLinks())
	for l := 0; l < nw.NumLinks() && ps.Depth() < depth; l++ {
		k, g := l%nw.NumChannels, nw.Rates.Gammas[0]
		if ps.Probe(l, k, g) {
			ps.Push(l, k, g)
			links, chans, gammas = append(links, l), append(chans, k), append(gammas, g)
			committed[l] = true
		}
	}
	if ps.Depth() < depth {
		b.Fatalf("committed depth %d, want %d", ps.Depth(), depth)
	}
	type question struct {
		link, k int
		gamma   float64
	}
	var siblings, distinct []question
	for l := range committed {
		for k := 0; k < nw.NumChannels && !committed[l]; k++ {
			for _, g := range nw.Rates.Gammas {
				siblings = append(siblings, question{l, k, g})
			}
		}
	}
	for k := 0; k < nw.NumChannels; k++ {
		for _, g := range nw.Rates.Gammas {
			for l := range committed {
				if !committed[l] {
					distinct = append(distinct, question{l, k, g})
				}
			}
		}
	}
	linksX := append(links, 0)
	chansX := append(chans, 0)
	gammasX := append(gammas, 0)
	reference := func(q question) bool {
		linksX[depth], chansX[depth], gammasX[depth] = q.link, q.k, q.gamma
		return nw.FeasibleAssigned(linksX, chansX, gammasX)
	}
	incremental := func(q question) bool { return ps.Probe(q.link, q.k, q.gamma) }
	for _, bench := range []struct {
		name   string
		order  []question
		answer func(question) bool
	}{
		{"siblings", siblings, incremental},
		{"distinct", distinct, incremental},
		{"reference", siblings, reference},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			feasible := 0
			for i := 0; i < b.N; i++ {
				for _, q := range bench.order {
					if bench.answer(q) {
						feasible++
					}
				}
			}
			b.StopTimer()
			probes := float64(b.N * len(bench.order))
			b.ReportMetric(float64(len(bench.order)), "probes/op")
			b.ReportMetric(float64(feasible)/float64(b.N), "feasible/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/probes, "ns/probe")
		})
	}
}

// BenchmarkPricerNode times the pricing rung: one branch-and-bound
// Price call on the Table-I network under seeded duals with the
// Table-I probe budget, reporting the DFS nodes and feasibility probes
// per call and the time per node and per probe. The leaf pool is off,
// so the rung times the single-column walk its baseline recorded. One
// untimed call first warms the pricer's pooled search state, as the
// column-generation loop's earlier rounds do.
func BenchmarkPricerNode(b *testing.B) {
	cfg := benchConfig()
	nw := tableINetwork(b)
	rng := rand.New(rand.NewSource(77))
	lambda := [][]float64{make([]float64, nw.NumLinks()), make([]float64, nw.NumLinks())}
	for l := 0; l < nw.NumLinks(); l++ {
		for c := range lambda {
			if rng.Intn(4) > 0 {
				lambda[c][l] = rng.Float64() * 1e-7
			}
		}
	}
	p := core.NewBranchBoundPricer(cfg.PricerBudget)
	p.PoolLeaves = 0
	if _, err := p.Price(nw, lambda); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var nodes, probes float64
	for i := 0; i < b.N; i++ {
		res, err := p.Price(nw, lambda)
		if err != nil {
			b.Fatal(err)
		}
		nodes += float64(res.Nodes)
		probes += float64(res.Probes)
	}
	b.StopTimer()
	b.ReportMetric(nodes/float64(b.N), "nodes/op")
	b.ReportMetric(probes/float64(b.N), "probes/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/nodes, "ns/node")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/probes, "ns/probe")
}

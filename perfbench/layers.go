package main

import (
	"time"

	"mmwave/internal/cg"
)

// family aggregates the solver-side readings of a traced run: the
// decorated pricer's calls, the solves' work counters, and the
// standalone replays on their outputs. Per-op metrics divide by ops
// (solves, or cell-epochs on the pncd workloads).
type family struct {
	ops        int
	stats      cg.Stats
	pricer     pricerStats
	enclosing  time.Duration // spans holding the solves: the op, or host.step
	other      time.Duration // enclosing self time not in the pricer, LP or checkpoint rungs
	poolSum    float64
	poolN      int
	newTime    time.Duration // core.New, summed
	solveTime  time.Duration // core.Solver.Solve, summed
	solves     int
	lpCold     []float64 // ms per replayed cold master
	lpWarm     []float64 // ms per replayed warm master
	net        netReplay
	simTime    time.Duration
	sims       int
	instanceMS float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (f *family) addLP(r *lpReplay) {
	f.lpCold = append(f.lpCold, ms(r.Cold))
	if r.Warm > 0 {
		f.lpWarm = append(f.lpWarm, ms(r.Warm))
	}
}

// lpEstimate prices the run's master solves at the replayed cold and
// warm master times, mixed by the run's warm-start ratio.
func (f *family) lpEstimate() time.Duration {
	s := f.stats
	w := ratio(float64(s.WarmMasters), float64(s.MasterSolves))
	per := w*mean(f.lpWarm) + (1-w)*mean(f.lpCold)
	return time.Duration(float64(s.MasterSolves) * per * float64(time.Millisecond))
}

func (f *family) metrics() []metric {
	per := func(v float64) float64 { return ratio(v, float64(f.ops)) }
	s, p := f.stats, f.pricer
	return []metric{
		{"pricer.exact_calls", per(float64(p.ExactCalls)), "count"},
		{"pricer.exact_ms", per(ms(p.Time)), "ms"},
		{"pricer.exact_share", ratio(ms(p.Time), ms(f.enclosing)), "ratio"},
		{"pricer.truncated_ratio", ratio(float64(p.Calls-p.ExactCalls), float64(p.Calls)), "ratio"},
		{"pricer.nodes", per(float64(p.Nodes)), "count"},
		{"pricer.probes", per(float64(p.Probes)), "count"},
		{"pricer.ns_per_probe", ratio(float64(p.Time.Nanoseconds()), float64(p.Probes)), "ns"},
		{"netmodel.probe_ns", ratio(float64(f.net.ProbeTime.Nanoseconds()), float64(f.net.Probes)), "ns"},
		{"netmodel.min_powers_us", ratio(float64(f.net.MinPowTime)/1e3, float64(f.net.MinPowCalls)), "us"},
		{"cg.rounds", per(float64(s.Rounds)), "count"},
		{"cg.columns_added", per(float64(s.ColumnsAdded)), "count"},
		{"cg.columns_per_round", ratio(float64(s.ColumnsAdded), float64(s.Rounds)), "count"},
		{"cg.stab_rounds", per(float64(s.StabRounds)), "count"},
		{"cg.heuristic_hit_ratio", ratio(float64(s.HeuristicHits), float64(s.HeuristicHits+s.ExactFallbacks)), "ratio"},
		{"cg.exact_fallbacks", per(float64(s.ExactFallbacks)), "count"},
		{"cg.pool_columns", ratio(f.poolSum, float64(f.poolN)), "count"},
		{"cg.other_ms", per(ms(f.other)), "ms"},
		{"lp.master_solves", per(float64(s.MasterSolves)), "count"},
		{"lp.pivots", per(float64(s.LPPivots)), "count"},
		{"lp.refactorizations", per(float64(s.LPRefactorizations)), "count"},
		{"lp.eta_updates", per(float64(s.LPEtaUpdates)), "count"},
		{"lp.warm_master_ratio", ratio(float64(s.WarmMasters), float64(s.MasterSolves)), "ratio"},
		{"lp.master_cold_ms", mean(f.lpCold), "ms"},
		{"lp.master_warm_ms", mean(f.lpWarm), "ms"},
		{"core.new_ms", ratio(ms(f.newTime), float64(f.solves)), "ms"},
		{"core.solve_ms", ratio(ms(f.solveTime), float64(f.solves)), "ms"},
		{"experiment.instance_ms", f.instanceMS, "ms"},
		{"sim.run_ms", ratio(ms(f.simTime), float64(f.sims)), "ms"},
	}
}

// statsFromCounters reads a solver Stats back from the core_* and cg_*
// counters the program publishes to its metrics registry.
func statsFromCounters(m map[string]float64) cg.Stats {
	return cg.Stats{
		Rounds:             int(m["core_cg_rounds_total"]),
		Probes:             int(m["core_probes_total"]),
		MasterSolves:       int(m["core_master_solves_total"]),
		PricerNodes:        int(m["core_pricer_nodes_total"]),
		LPPivots:           int(m["core_lp_pivots_total"]),
		LPRefactorizations: int(m["core_lp_refactorizations_total"]),
		LPEtaUpdates:       int(m["core_lp_ft_updates_total"]),
		WarmMasters:        int(m["cg_warm_masters_total"]),
		StabRounds:         int(m["cg_stab_rounds_total"]),
		HeuristicHits:      int(m["cg_heuristic_price_hits_total"]),
		ExactFallbacks:     int(m["cg_exact_fallbacks_total"]),
		ColumnsAdded:       int(m["cg_columns_per_round_sum"]),
	}
}

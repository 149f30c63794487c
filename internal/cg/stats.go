package cg

import "mmwave/internal/obs"

// Stats consolidates the work counters of one column-generation solve.
// internal/core embeds it (via a type alias) in Result and
// QualityResult, so `res.Probes` keeps reading naturally, and it is
// the single shape the observability layer consumes: Publish folds a
// Stats into an obs.Registry under a component prefix.
type Stats struct {
	// Rounds counts column-generation rounds (pricing calls).
	Rounds int
	// Probes counts pricing feasibility probes — the unit of real work
	// in the search.
	Probes int
	// MasterSolves counts master-LP solves.
	MasterSolves int
	// PricerNodes counts branch-and-bound nodes explored by pricing.
	PricerNodes int
	// LPPivots and LPRefactorizations aggregate the master simplex's
	// pivot count and basis-factorization rebuilds across MasterSolves.
	LPPivots           int
	LPRefactorizations int
	// LPEtaUpdates counts product-form (Forrest–Tomlin-style) eta
	// updates applied to the master basis factorization between
	// refactorizations — the work the sparse core does instead of
	// rebuilding B⁻¹ on every pivot.
	LPEtaUpdates int
	// WarmMasters counts master solves that started from a usable
	// previous basis (phase 1 skipped, or repaired by the dual simplex).
	WarmMasters int
	// EvictedColumns counts pool columns dropped by the garbage
	// collector.
	EvictedColumns int
	// StabRounds is always zero: the engine prices every round at the
	// true master duals. The field stays only because the benchmark
	// harness still reads it.
	StabRounds int
	// HeuristicHits counts rounds where the heuristic pricer's column
	// passed the reduced-cost test and the exact pricer never ran.
	HeuristicHits int
	// ExactFallbacks counts rounds where the heuristic pricer ran first
	// but failed the reduced-cost test, forcing the exact pricer in the
	// same round.
	ExactFallbacks int
	// ColumnsAdded counts columns admitted to the pool by pricing
	// rounds.
	ColumnsAdded int
}

// delta returns s − prev, the per-solve slice of a lifetime-cumulative
// Stats.
func (s Stats) delta(prev Stats) Stats {
	return Stats{
		Rounds:             s.Rounds - prev.Rounds,
		Probes:             s.Probes - prev.Probes,
		MasterSolves:       s.MasterSolves - prev.MasterSolves,
		PricerNodes:        s.PricerNodes - prev.PricerNodes,
		LPPivots:           s.LPPivots - prev.LPPivots,
		LPRefactorizations: s.LPRefactorizations - prev.LPRefactorizations,
		LPEtaUpdates:       s.LPEtaUpdates - prev.LPEtaUpdates,
		WarmMasters:        s.WarmMasters - prev.WarmMasters,
		EvictedColumns:     s.EvictedColumns - prev.EvictedColumns,
		HeuristicHits:      s.HeuristicHits - prev.HeuristicHits,
		ExactFallbacks:     s.ExactFallbacks - prev.ExactFallbacks,
		ColumnsAdded:       s.ColumnsAdded - prev.ColumnsAdded,
	}
}

// Publish folds the stats into the registry as `core_*_total`
// counters (the historical names; P1 and P2 solves share them). A nil
// registry is a no-op, so callers publish unconditionally.
func (s Stats) Publish(m *obs.Registry) {
	if m == nil {
		return
	}
	m.Counter("core_cg_rounds_total").Add(int64(s.Rounds))
	m.Counter("core_probes_total").Add(int64(s.Probes))
	m.Counter("core_master_solves_total").Add(int64(s.MasterSolves))
	m.Counter("core_pricer_nodes_total").Add(int64(s.PricerNodes))
	m.Counter("core_lp_pivots_total").Add(int64(s.LPPivots))
	m.Counter("core_lp_refactorizations_total").Add(int64(s.LPRefactorizations))
	m.Counter("core_lp_ft_updates_total").Add(int64(s.LPEtaUpdates))
}

package cg

// This file holds the engine's iteration-count accelerations (DESIGN.md
// §17): multi-column admission and heuristic-first pricing. Neither is
// an option. The engine admits every improving extra a pricer returns,
// so a pricer's own leaf pool decides multi-column pricing, and it tries
// the heuristic pricer only after a budget-truncated exact round, so a
// pricer that never halts prices exactly every round. An
// unlimited-budget pricer that pools no leaves therefore reproduces the
// historical single-column exact loop. Every round is priced at the
// true master duals; the engine keeps no dual state between runs.

// Tuning of the accelerations.
const (
	// maxPoolColumns bounds the pricer-side leaf pool per round.
	maxPoolColumns = 32
	// keepPace gates heuristic acceptance: a heuristic column is taken
	// only while its reduced cost keeps pace with the exact walk's
	// frontier, φ_h ≤ keepPace·φ_exact (both negative, φ_exact from the
	// last exact round). A heuristic column far off the frontier would
	// defer the exact pricer's much stronger batch and inflate the round
	// count instead of shrinking the node bill.
	keepPace = 0.9
)

// MultiColumnPolicy names the per-round leaf-pool bound that pricers
// pooling near-optimal leaves (PriceResult.Extras) are built with.
type MultiColumnPolicy struct{}

// Columns returns the per-round leaf-pool bound.
func (MultiColumnPolicy) Columns() int { return maxPoolColumns }

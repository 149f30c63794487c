package cg

// This file holds the engine's iteration-count accelerations (DESIGN.md
// §17): multi-column admission and heuristic-first pricing. Each is
// governed by a policy struct whose zero value means "on with
// defaults", so the accelerated loop is what every caller gets unless
// it opts out with Disable — and disabling both reproduces the
// historical single-column exact loop byte-for-byte. Every round is
// priced at the true master duals; the engine keeps no dual state
// between runs.

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

// MultiColumnPolicy configures batch column admission: pricers that pool
// near-optimal leaves return them in PriceResult.Extras, and the engine
// admits every batch member whose reduced cost — recomputed at the true
// master duals — is improving, instead of only the argmax.
type MultiColumnPolicy struct {
	// Disable turns batch admission off (legacy behavior: only the
	// pricer's best schedule is added, and pricers are not asked to
	// pool leaves).
	Disable bool
}

// Columns returns the effective per-round leaf-pool bound (0 when
// disabled, so pricers skip collection entirely).
func (p MultiColumnPolicy) Columns() int {
	if p.Disable {
		return 0
	}
	return maxPoolColumns
}

// HeuristicPolicy configures heuristic-first pricing: a cheap heuristic
// pricer (Options.Heuristic, typically the greedy interference-free
// builder) runs first every round, and the exact pricer fires only when
// the heuristic's best column fails the reduced-cost test at the true
// master duals or duplicates a pooled column. Heuristic rounds are
// never exact: they emit no Theorem-1 bound and can never declare
// convergence, so the accounting of proven bounds is untouched.
type HeuristicPolicy struct {
	// Disable turns heuristic-first pricing off (legacy behavior: the
	// exact pricer runs every round). Heuristic columns are accepted
	// only while they keep pace with the exact frontier (keepPace).
	Disable bool
}

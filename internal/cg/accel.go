package cg

// This file holds the engine's iteration-count accelerations (DESIGN.md
// §17): dual stabilization, multi-column admission, and heuristic-first
// pricing. Each is governed by a policy struct whose zero value means
// "on with defaults", so the accelerated loop is what every caller gets
// unless it opts out with Disable — and a disabled policy reproduces
// the historical single-column exact loop byte-for-byte.

// Tuning of the accelerations.
const (
	// stabWeight is the initial center weight α ∈ (0, 1).
	stabWeight = 0.5
	// stabShrink multiplies α after every stabilized round (twice for a
	// mispriced one).
	stabShrink = 0.5
	// stabFloor is the floor below which α snaps to zero (pricing
	// turns exact for the rest of the run).
	stabFloor = 1.0 / 16
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

// StabilizePolicy configures dual stabilization: pricing runs against a
// convex combination λ̃ = α·center + (1−α)·λ of the incumbent-dual
// center and the current master duals, damping the dual oscillation
// that forces classic column generation through dozens of tail
// iterations. The trust region closes geometrically: every stabilized
// round multiplies α by stabShrink (a mispriced round — no admissible
// column at λ̃ — shrinks it again), and once α falls below stabFloor
// it snaps to zero and the run finishes with pure unstabilized
// pricing, so stabilization is a short early transient and convergence
// is always certified — and Theorem-1 bounds are only ever emitted
// from — exact rounds priced at the true master duals.
type StabilizePolicy struct {
	// Disable turns stabilization off (legacy behavior: pricing always
	// sees the raw master duals).
	Disable bool
}

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

// stabilizer is the per-run view of StabilizePolicy: the smoothing
// weight (which only shrinks within a run) plus the dual center carried
// in the durable State.
type stabilizer struct {
	on      bool
	weight  float64
	st      *State
	scratch [][]float64
}

func newStabilizer(p StabilizePolicy, st *State) *stabilizer {
	return &stabilizer{on: !p.Disable, weight: stabWeight, st: st}
}

// duals returns the pricing duals for this round and whether they are
// smoothed. The center must match the current dual shape (a class-count
// change invalidates it); without a usable center the round prices pure
// and the center seeds from these duals at the next recenter.
func (sb *stabilizer) duals(lambda [][]float64) ([][]float64, bool) {
	if !sb.on || sb.weight <= 0 || !sameShape(sb.st.stabCenter, lambda) {
		return lambda, false
	}
	if !sameShape(sb.scratch, lambda) {
		sb.scratch = make([][]float64, len(lambda))
		for c := range lambda {
			sb.scratch[c] = make([]float64, len(lambda[c]))
		}
	}
	a := sb.weight
	for c := range lambda {
		for l := range lambda[c] {
			sb.scratch[c][l] = a*sb.st.stabCenter[c][l] + (1-a)*lambda[c][l]
		}
	}
	// The trust region closes whether or not the round prices well:
	// stabilization damps the first few dual vectors (the oscillation
	// it targets) and then gets out of the exact walk's way.
	sb.decay()
	return sb.scratch, true
}

// decay closes the trust region one step; below the floor the weight
// snaps to zero and the remaining rounds price at the true duals.
func (sb *stabilizer) decay() {
	sb.weight *= stabShrink
	if sb.weight < stabFloor {
		sb.weight = 0
	}
}

// recenter moves the center to the duals the run ends on — the last
// incumbent optimum. The engine calls it only at a run's exit, never
// mid-run: a cold walk's early duals are TDMA-seeded noise that would
// drag λ̃ toward a center not worth trusting, while across epochs the
// previous solve's optimal duals are exactly the anchor that damps the
// re-optimization oscillation stabilization targets.
func (sb *stabilizer) recenter(lambda [][]float64) {
	if !sb.on {
		return
	}
	if !sameShape(sb.st.stabCenter, lambda) {
		sb.st.stabCenter = make([][]float64, len(lambda))
		for c := range lambda {
			sb.st.stabCenter[c] = make([]float64, len(lambda[c]))
		}
	}
	for c := range lambda {
		copy(sb.st.stabCenter[c], lambda[c])
	}
}

// misprice shrinks the trust region again after a stabilized round
// that admitted nothing: the center is pulling toward duals the pool
// has already priced out, so close in on the true duals faster.
func (sb *stabilizer) misprice() {
	sb.decay()
}

func sameShape(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
	}
	return len(a) > 0
}

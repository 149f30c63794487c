package baseline

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"mmwave/internal/core"
	"mmwave/internal/netmodel"
)

// TestExplicitTwoClassEquivLegacy is the N=2 ≡ legacy anchor for the
// class-generalized solver, sitting next to the golden regression
// tests that pin the legacy outputs themselves: across random
// instances, solving with the implicit two-class default (class count
// unset) and solving the same instance with the class count spelled
// out explicitly (NumTrafficClasses = 2) must produce byte-identical
// plans, identical duals, and identical work counters. Together with the golden tests
// this proves the generalization changed nothing the paper
// reproduction depends on.
func TestExplicitTwoClassEquivLegacy(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nw := servable(rng, 4, 2, netmodel.Global)
		demands := uniformDemands(4, 4e6, 2e6)
		for l := range demands {
			demands[l][0] *= 1 + 0.5*rng.Float64()
			demands[l][1] *= 1 + 0.5*rng.Float64()
		}

		legacy, err := core.NewSolver(nw, demands, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		resLegacy, err := legacy.Solve(context.Background())
		if err != nil {
			t.Fatalf("seed %d: legacy solve: %v", seed, err)
		}

		explicit := *nw
		explicit.NumTrafficClasses = 2
		sv, err := core.NewSolver(&explicit, demands, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		resExplicit, err := sv.Solve(context.Background())
		if err != nil {
			t.Fatalf("seed %d: explicit solve: %v", seed, err)
		}

		if !reflect.DeepEqual(resLegacy.Plan, resExplicit.Plan) {
			t.Fatalf("seed %d: plans differ between legacy and explicit two-class solves\nlegacy:   %+v\nexplicit: %+v",
				seed, resLegacy.Plan, resExplicit.Plan)
		}
		if !reflect.DeepEqual(resLegacy.Duals, resExplicit.Duals) {
			t.Fatalf("seed %d: duals differ", seed)
		}
		if resLegacy.Stats != resExplicit.Stats {
			t.Fatalf("seed %d: work counters differ: legacy %+v, explicit %+v",
				seed, resLegacy.Stats, resExplicit.Stats)
		}
		if resLegacy.Converged != resExplicit.Converged || resLegacy.LowerBound != resExplicit.LowerBound {
			t.Fatalf("seed %d: convergence state differs", seed)
		}
	}
}

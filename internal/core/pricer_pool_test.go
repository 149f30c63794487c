package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mmwave/internal/netmodel"
)

// pricingDuals draws a random positive dual vector pair, scaled so
// that single-link schedules already price above the improvement
// threshold of 1 — the search must then actually explore multi-link
// combinations instead of pruning at the root.
func pricingDuals(rng *rand.Rand, n int) (hp, lp []float64) {
	hp = make([]float64, n)
	lp = make([]float64, n)
	for i := range hp {
		hp[i] = (0.5 + rng.Float64()) * 1e-7
		lp[i] = (0.5 + rng.Float64()) * 1e-7
	}
	return hp, lp
}

// TestPooledPricerConcurrentRace hammers one shared BranchBoundPricer
// from many goroutines, so the sync.Pool of pricer states (and their
// call-local probe solvers) is churned under maximum contention. Run
// under `go test -race` this is the pooled solver's race test; in any
// mode every concurrent result must equal a fresh pricer's.
func TestPooledPricerConcurrentRace(t *testing.T) {
	const goroutines = 8
	type instance struct {
		nw     *netmodel.Network
		hp, lp []float64
		want   *PriceResult
	}
	rng := rand.New(rand.NewSource(37))
	insts := make([]instance, goroutines)
	for i := range insts {
		nw := servableNetwork(rng, 7, 2)
		nw.MultiChannel = i%2 == 1
		hp, lp := pricingDuals(rng, 7)
		want, err := NewBranchBoundPricer(500000).Price(nw, [][]float64{hp, lp})
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = instance{nw: nw, hp: hp, lp: lp, want: want}
	}

	shared := NewBranchBoundPricer(500000)
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			in := insts[g]
			for rep := 0; rep < 5; rep++ {
				got, err := shared.Price(in.nw, [][]float64{in.hp, in.lp})
				if err != nil {
					errs[g] = err
					return
				}
				if got.Value != in.want.Value || !reflect.DeepEqual(got.Schedule, in.want.Schedule) {
					errs[g] = fmt.Errorf("goroutine %d rep %d: result diverged from serial reference", g, rep)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

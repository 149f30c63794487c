package experiment

import (
	"fmt"
	"math"
	"testing"

	"mmwave/internal/core"
)

// TestRunWarmReuse pins the study's headline claim at test scale: warm
// epochs take strictly fewer CG iterations and LP pivots on average
// than cold restarts of the same epochs.
func TestRunWarmReuse(t *testing.T) {
	wc := DefaultWarmReuseConfig()
	wc.Net.NumLinks = 6
	wc.Net.NumChannels = 3
	wc.Net.Seeds = 3
	wc.Net.PricerBudget = 3000
	wc.Epochs = 4
	res, err := RunWarmReuse(wc)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := wc.Net.Seeds * (wc.Epochs - 1)
	if res.WarmIters.N != wantCells || res.ColdIters.N != wantCells {
		t.Fatalf("cell counts warm %d cold %d, want %d", res.WarmIters.N, res.ColdIters.N, wantCells)
	}
	if res.WarmIters.Mean >= res.ColdIters.Mean {
		t.Errorf("warm iterations %.2f not below cold %.2f", res.WarmIters.Mean, res.ColdIters.Mean)
	}
	if res.WarmPivots.Mean >= res.ColdPivots.Mean {
		t.Errorf("warm pivots %.2f not below cold %.2f", res.WarmPivots.Mean, res.ColdPivots.Mean)
	}
}

// TestRunWarmReuseNoDualCycle runs the study as `mmwavesim -fig
// warmreuse -links 10 -seeds 6` does. Without anti-cycling in the dual
// simplex, a warm master repair in epoch 1 cycles to the pivot cap and
// the run fails with "master problem ended with status
// iteration-limit".
func TestRunWarmReuseNoDualCycle(t *testing.T) {
	wc := DefaultWarmReuseConfig()
	wc.Net.NumLinks = 10
	wc.Net.Seeds = 6
	if _, err := RunWarmReuse(wc); err != nil {
		t.Fatal(err)
	}
}

func TestRunWarmReuseValidation(t *testing.T) {
	wc := DefaultWarmReuseConfig()
	wc.Epochs = 1
	if _, err := RunWarmReuse(wc); err == nil {
		t.Error("single-epoch study accepted")
	}
	wc = DefaultWarmReuseConfig()
	wc.DemandJitter = 1.5
	if _, err := RunWarmReuse(wc); err == nil {
		t.Error("jitter ≥ 1 accepted")
	}
}

func TestWarmReuseDriverRegistered(t *testing.T) {
	if _, ok := Lookup("warmreuse"); !ok {
		t.Fatal("warmreuse driver not registered")
	}
}

// TestWarmEpochObjectivesMatchCold is the warm-epoch property: the
// warm-reuse walk at mmwavesim's defaults, over 40 seeds at 8 and at
// 10 links (6 under -short), fails no solve, and wherever both the
// warm and the cold solve of an epoch converge, their objectives agree
// to 1e-9 relative.
func TestWarmEpochObjectivesMatchCold(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 6
	}
	for _, links := range []int{8, 10} {
		t.Run(fmt.Sprintf("links=%d", links), func(t *testing.T) {
			wc := DefaultWarmReuseConfig()
			wc.Net.NumLinks = links
			wc.Net.Seeds = seeds
			pairs, worst := 0, 0.0
			for rep := 0; rep < seeds; rep++ {
				err := warmReuseRep(wc, rep, func(warm, cold *core.Result) {
					if !warm.Converged || !cold.Converged {
						return
					}
					pairs++
					gap := math.Abs(warm.Plan.Objective-cold.Plan.Objective) / cold.Plan.Objective
					worst = math.Max(worst, gap)
					if gap > 1e-9 {
						t.Errorf("pair %d: warm objective %v vs cold %v (rel %g)",
							pairs, warm.Plan.Objective, cold.Plan.Objective, gap)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if pairs == 0 {
				t.Fatal("no epoch converged both warm and cold")
			}
			t.Logf("%d converged pairs, worst relative gap %.2g", pairs, worst)
		})
	}
}

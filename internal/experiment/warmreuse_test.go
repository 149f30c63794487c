package experiment

import "testing"

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

package pncd

import (
	"context"
	"strings"
	"testing"

	"mmwave/internal/experiment"
)

// TestRunSlices drives the 3-class slice scenario at a tiny scale and
// checks the per-class accounting invariants: fractions in [0,1],
// service ordered by priority (urllc ≥ embb ≥ besteffort), shedding
// actually exercised, and the per-class served-fraction series
// exposed at /metrics.
func TestRunSlices(t *testing.T) {
	cfg := experiment.DefaultConfig()
	cfg.NumLinks = 4
	cfg.NumChannels = 2
	cfg.Seeds = 1
	cfg.PricerBudget = 2000
	res, err := RunSlices(context.Background(), SlicesConfig{Net: cfg, Epochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != 3 {
		t.Fatalf("ran %d epochs, want 3", res.Epochs)
	}
	if len(res.Offered) != 3 || len(res.Served) != 3 {
		t.Fatalf("accounting width %d/%d, want 3", len(res.Offered), len(res.Served))
	}
	for c := range res.Offered {
		if res.Offered[c] <= 0 {
			t.Errorf("class %s offered no traffic", res.Classes[c])
		}
		f := res.ServedFraction(c)
		if f < 0 || f > 1+1e-9 {
			t.Errorf("class %s served fraction %v outside [0,1]", res.Classes[c], f)
		}
	}
	// Shedding is lowest-class-first, so served fractions must be
	// monotone non-increasing in class index.
	for c := 1; c < 3; c++ {
		if res.ServedFraction(c) > res.ServedFraction(c-1)+1e-9 {
			t.Errorf("class %s served %.4f > higher-priority %s %.4f",
				res.Classes[c], res.ServedFraction(c),
				res.Classes[c-1], res.ServedFraction(c-1))
		}
	}
	// The default budget (one GOP duration) overloads the default trace
	// at this scale: the run must actually shed.
	if res.Shed == 0 {
		t.Error("no epoch shed load; the scenario is not heavy traffic")
	}
	if res.ServedFraction(2) >= 1 {
		t.Error("best-effort fully served under overload")
	}
	if len(res.MetricLines) == 0 {
		t.Fatal("no pnc_served_fraction_class_* metrics scraped")
	}
	found := false
	for _, line := range res.MetricLines {
		if strings.HasPrefix(line, "pnc_served_fraction_class_0 ") {
			found = true
		}
	}
	if !found {
		t.Errorf("class-0 served fraction missing from metrics: %v", res.MetricLines)
	}
}

// TestSlicesDriverRegistered: the figure registry must expose the
// "slices" driver once this package is linked in.
func TestSlicesDriverRegistered(t *testing.T) {
	d, ok := experiment.Lookup("slices")
	if !ok {
		t.Fatal("slices driver not registered")
	}
	var out strings.Builder
	cfg := experiment.DefaultConfig()
	cfg.NumLinks = 3
	cfg.NumChannels = 2
	cfg.PricerBudget = 2000
	env := &experiment.RunEnv{Cfg: cfg, Out: &out, Epochs: 2}
	if err := d.Run(env); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"SLICES", "urllc", "embb", "besteffort", "pnc_served_fraction_class_"} {
		if !strings.Contains(got, want) {
			t.Errorf("driver output missing %q:\n%s", want, got)
		}
	}
}

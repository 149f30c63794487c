package pnc

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"mmwave/internal/core"
	"mmwave/internal/obs"
	"mmwave/internal/video"
)

// TestEpochObservability runs a shedding epoch with a tracer and
// metrics attached and checks that (a) the plan is identical to an
// uninstrumented run, (b) the epoch span and shed event appear in the
// trace, and (c) the pnc and core counters land in the registry.
func TestEpochObservability(t *testing.T) {
	demands := []video.Demand{{4e6, 4e6}, {3e6, 3e6}, {5e6, 5e6}, {2e6, 2e6}}

	run := func(tr *obs.Tracer, m *obs.Registry) *EpochResult {
		nw := testNetwork(t, 5, 4, 3)
		c, err := NewCoordinator(nw, nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		c.Tracer = tr
		c.Metrics = m
		c.Policy = DegradePolicy{EpochBudget: 2e-3}
		for l, d := range demands {
			if err := report(t, c, l, d); err != nil {
				t.Fatal(err)
			}
		}
		res, err := c.RunEpoch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	plain := run(nil, nil)

	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	reg := obs.NewRegistry()
	traced := run(obs.New(sink), reg)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	if plain.Plan.Objective != traced.Plan.Objective ||
		!reflect.DeepEqual(plain.Plan.Tau, traced.Plan.Tau) {
		t.Fatalf("plan differs with observability attached: %v vs %v",
			plain.Plan.Objective, traced.Plan.Objective)
	}
	if !traced.Degraded {
		t.Fatal("test instance no longer sheds; tighten the epoch budget")
	}

	events, err := obs.DecodeJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace is not valid JSONL: %v", err)
	}
	seen := map[string]int{}
	for _, e := range events {
		seen[e.Name]++
	}
	if seen["span.start"] == 0 || seen["cg.iteration"] == 0 {
		t.Fatalf("trace missing spans or solver iterations: %v", seen)
	}
	if seen["epoch.shed"] != 1 {
		t.Fatalf("expected exactly one epoch.shed event, got %d", seen["epoch.shed"])
	}

	if got := reg.Counter("pnc_epochs_total").Value(); got != 1 {
		t.Errorf("pnc_epochs_total = %d, want 1", got)
	}
	if got := reg.Counter("pnc_shed_epochs_total").Value(); got != 1 {
		t.Errorf("pnc_shed_epochs_total = %d, want 1", got)
	}
	if shed := reg.Gauge("pnc_shed_lp_bits").Value(); shed != traced.ShedLPBits {
		t.Errorf("pnc_shed_lp_bits = %v, want %v", shed, traced.ShedLPBits)
	}
	// The per-epoch solves publish through the same registry.
	if reg.Counter("core_master_solves_total").Value() == 0 {
		t.Error("solver stats did not reach the coordinator's registry")
	}
	var exp bytes.Buffer
	if err := reg.WriteText(&exp); err != nil {
		t.Fatal(err)
	}
	if exp.Len() == 0 {
		t.Error("metrics exposition is empty")
	}
}

package experiment

import (
	"fmt"
	"sync/atomic"

	"mmwave/internal/core"
)

// Telemetry accumulates solver counters across every proposed-scheme
// run of a campaign, so figure-level speedups are attributable to
// probe and node counts. All fields are atomic: one
// Telemetry may be shared by every worker of the parallel engine.
//
// It folds each solve's core.Stats delta — the same record the solver
// publishes to an obs.Registry — so the stderr summary and a campaign's
// -metrics exposition always agree.
type Telemetry struct {
	Runs         atomic.Int64 // solves recorded
	Iterations   atomic.Int64 // column-generation rounds
	MasterSolves atomic.Int64 // master-LP solves
	Probes       atomic.Int64 // pricing feasibility probes
	PricerNodes  atomic.Int64 // branch-and-bound nodes expanded
	LPPivots     atomic.Int64 // simplex pivots across master solves
}

// RecordStats folds one solve's counter delta into the telemetry.
func (t *Telemetry) RecordStats(st core.Stats) {
	if t == nil {
		return
	}
	t.Runs.Add(1)
	t.Iterations.Add(int64(st.Rounds))
	t.MasterSolves.Add(int64(st.MasterSolves))
	t.Probes.Add(int64(st.Probes))
	t.PricerNodes.Add(int64(st.PricerNodes))
	t.LPPivots.Add(int64(st.LPPivots))
}

// Record folds one column-generation result into the counters.
func (t *Telemetry) Record(res *core.Result) {
	if t == nil || res == nil {
		return
	}
	t.RecordStats(res.Stats)
}

// RecordQuality folds one quality-mode result into the counters.
func (t *Telemetry) RecordQuality(res *core.QualityResult) {
	if t == nil || res == nil {
		return
	}
	t.RecordStats(res.Stats)
}

// String renders the counters as one human-readable line.
func (t *Telemetry) String() string {
	return fmt.Sprintf("solves=%d iterations=%d master-solves=%d probes=%d pricer-nodes=%d lp-pivots=%d",
		t.Runs.Load(), t.Iterations.Load(), t.MasterSolves.Load(), t.Probes.Load(),
		t.PricerNodes.Load(), t.LPPivots.Load())
}

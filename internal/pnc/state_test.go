package pnc

import (
	"context"
	"reflect"
	"testing"

	"mmwave/internal/cg"
	"mmwave/internal/core"
	"mmwave/internal/video"
)

// samePlan asserts two epoch results are byte-identical: same taus,
// same schedules, same objective, same solver work.
func samePlan(t *testing.T, a, b *EpochResult, label string) {
	t.Helper()
	if a.Plan.Objective != b.Plan.Objective {
		t.Errorf("%s: objective %v != %v", label, a.Plan.Objective, b.Plan.Objective)
	}
	if !reflect.DeepEqual(a.Plan.Tau, b.Plan.Tau) {
		t.Errorf("%s: tau %v != %v", label, a.Plan.Tau, b.Plan.Tau)
	}
	if len(a.Plan.Schedules) != len(b.Plan.Schedules) {
		t.Fatalf("%s: %d schedules != %d", label, len(a.Plan.Schedules), len(b.Plan.Schedules))
	}
	for i := range a.Plan.Schedules {
		if !reflect.DeepEqual(a.Plan.Schedules[i].Assignments, b.Plan.Schedules[i].Assignments) {
			t.Errorf("%s: schedule %d differs", label, i)
		}
	}
	if a.Solver.LPPivots != b.Solver.LPPivots {
		t.Errorf("%s: pivots %d != %d", label, a.Solver.LPPivots, b.Solver.LPPivots)
	}
	if len(a.Solver.Iterations) != len(b.Solver.Iterations) {
		t.Errorf("%s: iterations %d != %d", label, len(a.Solver.Iterations), len(b.Solver.Iterations))
	}
}

// TestExportImportByteIdentical: run a coordinator for a few epochs,
// export at a boundary, import into a fresh coordinator on the same
// network, and drive both through identical further epochs — plans,
// solver work, control accounting, and epoch numbering must match
// exactly.
func TestExportImportByteIdentical(t *testing.T) {
	nw := testNetwork(t, 11, 6, 3)
	live, err := NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := video.TwoClass(5e6, 1e7)
	for i := 0; i < 3; i++ {
		reportAll(t, live, 6, d)
		if _, err := live.RunEpoch(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	st := live.ExportState()
	restored, err := NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ImportState(st); err != nil {
		t.Fatal(err)
	}
	if restored.Epoch() != live.Epoch() {
		t.Fatalf("restored epoch %d != live %d", restored.Epoch(), live.Epoch())
	}
	if restored.Control.Airtime() != live.Control.Airtime() {
		t.Fatalf("restored airtime %v != live %v", restored.Control.Airtime(), live.Control.Airtime())
	}

	// Both coordinators continue; every subsequent epoch must match.
	d2 := video.TwoClass(6e6, 8e6)
	for i := 0; i < 3; i++ {
		reportAll(t, live, 6, d2)
		reportAll(t, restored, 6, d2)
		a, err := live.RunEpoch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.RunEpoch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		samePlan(t, a, b, "epoch")
		if !b.WarmSolve {
			t.Errorf("restored epoch %d not warm: the snapshot should carry the pool and basis", i)
		}
		if a.ControlSeconds != b.ControlSeconds {
			t.Errorf("epoch %d: control airtime %v != %v", i, a.ControlSeconds, b.ControlSeconds)
		}
	}
}

// TestImportStateFingerprintMismatch: a snapshot taken under different
// gains must not warm-start — the restored coordinator drops the
// solver state and cold-starts, mirroring the live invalidation path.
func TestImportStateFingerprintMismatch(t *testing.T) {
	nw := testNetwork(t, 12, 5, 3)
	live, err := NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := video.TwoClass(4e6, 6e6)
	reportAll(t, live, 5, d)
	if _, err := live.RunEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := live.ExportState()
	if st.Solver == nil {
		t.Fatal("no solver snapshot exported after a successful epoch")
	}

	nw.Gains.Direct[0][0] *= 0.7 // CSI moved between export and restore
	restored, err := NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ImportState(st); err != nil {
		t.Fatal(err)
	}
	reportAll(t, restored, 5, d)
	ep, err := restored.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ep.WarmSolve {
		t.Error("restore onto changed gains still warm-started")
	}
	if restored.Epoch() != st.Epoch+1 {
		t.Errorf("epoch counter %d, want %d", restored.Epoch(), st.Epoch+1)
	}
}

// TestFirstEpochNoReports: a coordinator whose very first epoch sees
// zero demand reports has no last-known-good to fall back on. The
// epoch must still succeed — an empty plan, not an error — because a
// supervisor needs the epoch boundary to advance even when every
// uplink frame was lost. Staleness fallback must NOT fire: "never
// reported" is different from "stale", and inventing demand for a
// link the coordinator has never heard from would schedule airtime
// for nobody.
func TestFirstEpochNoReports(t *testing.T) {
	nw := testNetwork(t, 21, 5, 2)
	coord, err := NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coord.Policy = DefaultDegradePolicy() // StalenessLimit > 0

	res, err := coord.RunEpoch(context.Background())
	if err != nil {
		t.Fatalf("first epoch with no reports errored: %v", err)
	}
	if res.Plan.Objective != 0 || len(res.Plan.Schedules) != 0 || len(res.Grants) != 0 {
		t.Errorf("first epoch plan not empty: obj=%v schedules=%d grants=%d",
			res.Plan.Objective, len(res.Plan.Schedules), len(res.Grants))
	}
	if len(res.StaleLinks) != 0 || len(res.ExpiredLinks) != 0 {
		t.Errorf("staleness fallback fired with no last-known-good: stale=%v expired=%v",
			res.StaleLinks, res.ExpiredLinks)
	}
	if se := res.StalenessError(); se != nil {
		t.Errorf("StalenessError = %v on a never-reported epoch", se)
	}
	if coord.Epoch() != 1 {
		t.Errorf("epoch counter %d after the empty epoch, want 1", coord.Epoch())
	}

	// The coordinator is not wedged: the next epoch with real reports
	// produces a real plan.
	reportAll(t, coord, 5, video.TwoClass(4e6, 6e6))
	res, err = coord.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Objective <= 0 || len(res.Plan.Schedules) == 0 {
		t.Errorf("recovery epoch produced no plan: obj=%v schedules=%d",
			res.Plan.Objective, len(res.Plan.Schedules))
	}

	// And only NOW does a silent epoch fall back: the last-known-good
	// exists, so the links go stale instead of empty.
	res, err = coord.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StaleLinks) != 5 {
		t.Errorf("silent epoch after a good one: %d stale links, want 5", len(res.StaleLinks))
	}
	if res.Plan.Objective <= 0 {
		t.Error("stale fallback epoch served nothing")
	}
}

// TestRestoreThenGCByteIdentical: restoring a snapshot and then
// running long enough for the column pool's garbage collector to fire
// must stay byte-identical to the uninterrupted coordinator. The GC
// evicts by pool order and age, both of which the snapshot preserves —
// this pins that property.
func TestRestoreThenGCByteIdentical(t *testing.T) {
	nw := testNetwork(t, 31, 8, 3)
	// A tight pool bound with immediate eligibility makes the collector
	// fire on nearly every warm re-solve.
	opts := core.Options{ColumnGC: cg.GCPolicy{MaxColumns: 6, MinAge: 1}}
	live, err := NewCoordinator(nw, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	d := video.TwoClass(5e6, 1e7)
	for i := 0; i < 3; i++ {
		reportAll(t, live, 8, d)
		if _, err := live.RunEpoch(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	restored, err := NewCoordinator(nw, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ImportState(live.ExportState()); err != nil {
		t.Fatal(err)
	}

	// Vary the demand so every epoch re-solves and the pool keeps
	// churning columns in and out of the basis.
	evicted := 0
	for i := 0; i < 6; i++ {
		di := video.TwoClass(d.At(0)+float64(i)*7e5, d.At(1)-float64(i)*9e5)
		reportAll(t, live, 8, di)
		reportAll(t, restored, 8, di)
		a, err := live.RunEpoch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.RunEpoch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		samePlan(t, a, b, "post-gc epoch")
		if a.Solver.EvictedColumns != b.Solver.EvictedColumns {
			t.Errorf("epoch %d: evictions diverged: live %d, restored %d",
				i, a.Solver.EvictedColumns, b.Solver.EvictedColumns)
		}
		evicted += b.Solver.EvictedColumns
	}
	if evicted == 0 {
		t.Fatal("GC never fired: the test exercised nothing (tighten MaxColumns)")
	}
}

// TestImportStateValidation: structurally broken states are rejected
// and leave the coordinator untouched.
func TestImportStateValidation(t *testing.T) {
	nw := testNetwork(t, 13, 4, 2)
	coord, err := NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*CoordState)
	}{
		{"negative epoch", func(st *CoordState) { st.Epoch = -1 }},
		{"short demands", func(st *CoordState) { st.Demands = st.Demands[:1] }},
		{"short seen", func(st *CoordState) { st.Seen = nil }},
		{"solver without demands", func(st *CoordState) {
			reportAll(t, coord, 4, video.TwoClass(1e6, 0))
			if _, err := coord.RunEpoch(context.Background()); err != nil {
				t.Fatal(err)
			}
			*st = *coord.ExportState()
			st.SolverDemands = nil
		}},
	} {
		st := coord.ExportState()
		tc.mutate(st)
		if err := coord.ImportState(st); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

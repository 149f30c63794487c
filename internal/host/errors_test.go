package host

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"mmwave/internal/cg"
	"mmwave/internal/checkpoint"
	"mmwave/internal/core"
	"mmwave/internal/faults"
	"mmwave/internal/pnc"
	"mmwave/internal/video"
)

// TestErrorTaxonomyAcrossBoundaries pins the repo's sentinel errors as
// they surface through real multi-layer flows — cg → core → pnc →
// host, and checkpoint → host — so a refactor that drops a %w
// somewhere in the chain fails here, not in a caller's errors.Is.
func TestErrorTaxonomyAcrossBoundaries(t *testing.T) {
	t.Run("budget sentinel carries the watchdog cause", func(t *testing.T) {
		nw := testNetwork(t, 51, 4, 2)
		h := New(WithWatchdog(50 * time.Millisecond))
		cell, err := h.Admit(CellSpec{
			Network: nw,
			Faults:  &faults.Config{SolveHang: 1, Seed: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		rep := h.Step(context.Background(), cell, demandFeed(t, video.TwoClass(2e6, 4e6)))
		if rep.Outcome != OutcomeOK || !rep.Result.TruncatedSolve {
			t.Fatalf("expected a truncated epoch, got outcome %v err %v", rep.Outcome, rep.Err)
		}
		stop := rep.Result.Solver.Stop
		if !errors.Is(stop, core.ErrBudgetExceeded) || !errors.Is(stop, cg.ErrBudgetExceeded) {
			t.Errorf("truncation Stop %v does not match the budget sentinel", stop)
		}
		if !errors.Is(stop, context.DeadlineExceeded) {
			t.Errorf("truncation Stop %v lost the watchdog's deadline cause", stop)
		}
	})

	t.Run("control loss", func(t *testing.T) {
		nw := testNetwork(t, 53, 3, 2)
		inj, err := faults.New(faults.Config{CtrlLoss: 1, Seed: 9}, 3)
		if err != nil {
			t.Fatal(err)
		}
		coord, err := pnc.NewCoordinator(nw, nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		coord.Faults = inj
		frame, _ := (pnc.DemandReport{Link: 0, Demand: video.TwoClass(1e6, 1e6)}).MarshalBinary()
		if err := coord.IngestLossy(frame); !errors.Is(err, pnc.ErrControlLoss) {
			t.Errorf("total control loss returned %v, want ErrControlLoss", err)
		}
	})

	t.Run("stale state", func(t *testing.T) {
		nw := testNetwork(t, 57, 3, 2)
		coord, err := pnc.NewCoordinator(nw, nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		coord.Policy.StalenessLimit = 1
		d := video.TwoClass(2e6, 4e6)
		var sawStale bool
		for epoch := 0; epoch < 4; epoch++ {
			// Link 0 reports only in the first epoch; its last-known-good
			// fallback must age out past the one-epoch limit.
			first := 0
			if epoch > 0 {
				first = 1
			}
			for l := first; l < nw.NumLinks(); l++ {
				frame, _ := (pnc.DemandReport{Link: uint16(l), Demand: d}).MarshalBinary()
				if err := coord.Ingest(frame); err != nil {
					t.Fatal(err)
				}
			}
			res, err := coord.RunEpoch(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if serr := res.StalenessError(); serr != nil {
				if !errors.Is(serr, pnc.ErrStaleState) {
					t.Errorf("staleness error %v does not match ErrStaleState", serr)
				}
				sawStale = true
			}
		}
		if !sawStale {
			t.Fatal("link 0 never aged out under StalenessLimit 1")
		}
	})

	t.Run("unservable demand", func(t *testing.T) {
		nw := testNetwork(t, 59, 3, 2)
		dead := *nw
		dead.Noise = []float64{1e12, 1e12, 1e12}
		demands := make([]video.Demand, 3)
		for i := range demands {
			demands[i] = video.TwoClass(1e6, 1e6)
		}
		_, err := core.NewSolver(&dead, demands, core.Options{})
		if !errors.Is(err, core.ErrUnservable) {
			t.Errorf("solver on a dead network returned %v, want ErrUnservable", err)
		}
	})

	t.Run("checkpoint corrupt and incompatible", func(t *testing.T) {
		if _, err := checkpoint.Decode([]byte("not a checkpoint image")); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("garbage image decoded to %v, want ErrCorrupt", err)
		}
		nw := testNetwork(t, 61, 3, 2)
		coord, err := pnc.NewCoordinator(nw, nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		snap := checkpoint.Capture(coord, nil)
		other, err := pnc.NewCoordinator(testNetwork(t, 67, 3, 2), nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := snap.Restore(other); !errors.Is(err, checkpoint.ErrIncompatible) {
			t.Errorf("cross-network restore returned %v, want ErrIncompatible", err)
		}
	})

	t.Run("admission", func(t *testing.T) {
		if _, err := New().Admit(CellSpec{}); !errors.Is(err, ErrAdmission) {
			t.Errorf("empty spec admitted with %v, want ErrAdmission", err)
		}
	})
}

// TestAdmitValidatesPolicy: admission refuses a degradation policy the
// coordinator cannot run — a negative decay would schedule negative
// demand every stale epoch, and an unbounded retry budget would spin
// inside an unwatched ingest — and still admits the default policy and
// the ones the experiment drivers build.
func TestAdmitValidatesPolicy(t *testing.T) {
	nw := testNetwork(t, 71, 4, 2)
	lossy := &faults.Config{CtrlLoss: 1, Seed: 5}
	h := New()
	for name, p := range map[string]pnc.DegradePolicy{
		"negative decay":   {StalenessLimit: 4, StalenessDecay: -1},
		"huge retries":     {MaxRetries: 1 << 40},
		"negative retries": {MaxRetries: -1},
		"NaN budget":       {EpochBudget: math.NaN()},
	} {
		if _, err := h.Admit(CellSpec{Network: nw, Policy: p, Faults: lossy}); !errors.Is(err, ErrAdmission) {
			t.Errorf("%s: admitted with %v, want ErrAdmission", name, err)
		}
	}
	if n := len(h.Cells()); n != 0 {
		t.Fatalf("refused specs left %d cells", n)
	}
	budgeted := pnc.DefaultDegradePolicy()
	budgeted.EpochBudget = 0.02 // the chaos soak's calibrated epoch budget
	for name, p := range map[string]pnc.DegradePolicy{
		"zero":     {},
		"default":  pnc.DefaultDegradePolicy(),
		"budgeted": budgeted,
		"slices":   {EpochBudget: 1.0 / 3, StalenessDecayByClass: []float64{1, 0.9, 0.5}},
	} {
		if _, err := h.Admit(CellSpec{Network: nw, Policy: p, Faults: lossy}); err != nil {
			t.Errorf("%s policy refused: %v", name, err)
		}
	}
}

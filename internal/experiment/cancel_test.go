package experiment

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"mmwave/internal/obs"
)

// TestRunParallelCanceled: a canceled campaign context stops the
// dispatch loop at the next cell boundary and surfaces the cause.
func TestRunParallelCanceled(t *testing.T) {
	cause := errors.New("operator hit ctrl-c")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := runParallel(ctx, workers, 10, func(i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, cause) {
			t.Errorf("workers=%d: err = %v, want the cancellation cause", workers, err)
		}
		if got := ran.Load(); got != 0 {
			t.Errorf("workers=%d: %d cells ran after cancellation, want 0", workers, got)
		}
	}
}

// TestFaultSweepCanceled: the epoch driver honors the campaign context
// between epochs.
func TestFaultSweepCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fc := DefaultFaultSweepConfig()
	fc.Net = fastConfig()
	fc.Net.Ctx = ctx
	if _, err := FaultSweep(fc); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestChaosSoakCanceled: the soak honors the campaign context between
// epochs.
func TestChaosSoakCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cc := soakScale(2, 5)
	cc.BudgetFrac = 0 // skip the pilot solves; the run must end before any epoch
	cc.Net.Ctx = ctx
	if _, err := ChaosSoak(cc); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// cancelOnIteration is a trace sink that cancels the campaign when the
// first column-generation round reports.
type cancelOnIteration struct{ cancel context.CancelFunc }

func (s cancelOnIteration) Emit(e obs.Event) {
	if e.Name == "cg.iteration" {
		s.cancel()
	}
}

func (cancelOnIteration) Close() error { return nil }

// TestFig1CanceledMidSolve: a campaign canceled while its only cell is
// solving truncates that solve within two CG rounds, returns the
// cancellation, and renders nothing — a figure of truncated plans is
// never reported as a complete campaign.
func TestFig1CanceledMidSolve(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := DefaultConfig() // Table I: 30 links, 5 channels
	cfg.Seeds = 1
	cfg.Workers = 1
	cfg.Ctx = ctx
	cfg.Tracer = obs.New(cancelOnIteration{cancel})
	cfg.Metrics = obs.NewRegistry()
	d, ok := Lookup("1")
	if !ok {
		t.Fatal("fig 1 not registered")
	}
	var out bytes.Buffer
	err := d.Run(&RunEnv{Cfg: cfg, XS: []float64{30}, Out: &out})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out.Len() != 0 {
		t.Errorf("canceled campaign rendered a figure:\n%s", out.String())
	}
	if rounds := cfg.Metrics.Counter("core_cg_rounds_total").Value(); rounds < 1 || rounds > 2 {
		t.Errorf("solve ran %d CG rounds after cancellation, want 1–2", rounds)
	}
}

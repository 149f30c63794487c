package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"mmwave/internal/obs"
)

// parallelConfig is fastConfig with enough repetitions that a 4-worker
// run actually interleaves cells.
func parallelConfig() Config {
	cfg := fastConfig()
	cfg.Seeds = 4
	return cfg
}

// withWorkers returns the config with the experiment fan-out set.
func withWorkers(cfg Config, w int) Config {
	cfg.Workers = w
	return cfg
}

// TestSweepDeterministicAcrossWorkers runs every figure driver once
// sequentially and once on 4 workers and requires identical results:
// the parallel engine must only change wall-clock, never output.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	drivers := []struct {
		name string
		run  func(cfg Config) (any, error)
	}{
		{"fig1", func(cfg Config) (any, error) { fig1, _, err := LinkSweep(cfg, []float64{4, 5}); return fig1, err }},
		{"fig2", func(cfg Config) (any, error) { return Fig2(cfg, []float64{0.5, 1}) }},
		{"fig3", func(cfg Config) (any, error) { _, fig3, err := LinkSweep(cfg, []float64{4, 5}); return fig3, err }},
		{"ablation", func(cfg Config) (any, error) { return Ablation(cfg) }},
		{"quality", func(cfg Config) (any, error) { return FigQuality(cfg, []float64{0.5, 1}) }},
		{"blockage", func(cfg Config) (any, error) {
			bc := DefaultBlockageConfig()
			bc.Net = cfg
			bc.Epochs = 2
			return RunBlockage(bc)
		}},
		{"relay", func(cfg Config) (any, error) {
			rc := DefaultRelayConfig()
			rc.Net = cfg
			return RunRelay(rc)
		}},
		{"faultsweep", func(cfg Config) (any, error) {
			fc := DefaultFaultSweepConfig()
			fc.Net = cfg
			fc.Epochs = 2
			fc.Rates = []float64{0, 0.2}
			return FaultSweep(fc)
		}},
		{"warmreuse", func(cfg Config) (any, error) {
			wc := DefaultWarmReuseConfig()
			wc.Net = cfg
			wc.Epochs = 3
			return RunWarmReuse(wc)
		}},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			serial, err := d.run(withWorkers(parallelConfig(), 1))
			if err != nil {
				t.Fatalf("workers=1: %v", err)
			}
			parallel, err := d.run(withWorkers(parallelConfig(), 4))
			if err != nil {
				t.Fatalf("workers=4: %v", err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("workers=4 result differs from workers=1:\nserial:   %+v\nparallel: %+v", serial, parallel)
			}
		})
	}
}

// TestRunParallelCoversAllIndices checks the dispatch loop visits every
// index exactly once for worker counts below, at, and above n.
func TestRunParallelCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 32} {
		const n = 17
		var counts [n]atomic.Int64
		err := runParallel(context.Background(), workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Errorf("workers=%d: index %d ran %d times, want 1", workers, i, got)
			}
		}
	}
}

// TestRunParallelReturnsLowestIndexError checks the parallel engine
// reports the same error a sequential run would hit first.
func TestRunParallelReturnsLowestIndexError(t *testing.T) {
	wantErr := errors.New("cell 3 failed")
	for _, workers := range []int{1, 4} {
		err := runParallel(context.Background(), workers, 10, func(i int) error {
			if i == 3 {
				return wantErr
			}
			if i == 7 {
				return fmt.Errorf("cell 7 failed later")
			}
			return nil
		})
		if !errors.Is(err, wantErr) {
			t.Errorf("workers=%d: err = %v, want the lowest-index error %v", workers, err, wantErr)
		}
	}
}

// TestWorkerCountDefaults checks the 0 = one-per-CPU convention.
func TestWorkerCountDefaults(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.workerCount(); got < 1 {
		t.Errorf("workerCount() = %d with Workers=0, want ≥ 1", got)
	}
	cfg.Workers = 3
	if got := cfg.workerCount(); got != 3 {
		t.Errorf("workerCount() = %d, want 3", got)
	}
}

// TestTelemetryAccumulates checks the campaign's solver counters — the
// registry mmwavesim -v summarizes — add up across a sweep and survive
// concurrent recording.
func TestTelemetryAccumulates(t *testing.T) {
	cfg := parallelConfig()
	cfg.Workers = 4
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	if _, _, err := LinkSweep(cfg, []float64{4, 5}); err != nil {
		t.Fatal(err)
	}
	// 2 points × 4 reps, proposed runs once per (point, rep).
	runs := reg.Counter("cg_warm_runs_total").Value() + reg.Counter("cg_cold_runs_total").Value()
	if runs != 8 {
		t.Errorf("solver runs = %d, want 8", runs)
	}
	for _, name := range []string{"core_cg_rounds_total", "core_master_solves_total", "core_probes_total", "core_lp_pivots_total"} {
		if reg.Counter(name).Value() <= 0 {
			t.Errorf("%s not recorded", name)
		}
	}
}

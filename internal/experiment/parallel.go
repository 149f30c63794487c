package experiment

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mmwave/internal/stats"
)

// runParallel executes fn(0..n-1) across up to workers goroutines.
// Cells are claimed from a shared atomic counter, so scheduling order
// is nondeterministic — callers must make each fn(i) independent
// (per-cell RNG, writes only to slot i of a result slice) and
// aggregate in a fixed order afterwards; that is what keeps campaign
// output bit-identical for any worker count. workers ≤ 1 runs the
// cells inline in index order (the sequential reference path).
//
// A canceled ctx stops the campaign at the next cell boundary — cells
// already running finish (their solvers observe the same ctx and
// truncate to their anytime plans) — and the cancellation cause is
// returned whenever ctx was canceled, even if every cell had already
// been claimed: a truncated campaign is never reported as complete.
// Otherwise all cells run even if one fails, and the error returned
// is the lowest-index one, exactly the error the sequential path
// would have surfaced first.
func runParallel(ctx context.Context, workers, n int, fn func(i int) error) error {
	errs := make([]error, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			if errs[i] = fn(i); errs[i] != nil {
				break
			}
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	}
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fanOut is the campaign loop every sweep driver shares. It runs
// cell(point, rep) for every point < points and rep < reps on the
// config's worker pool (Workers, under the campaign context) and folds
// the samples each cell returns — one slice per series, of any length
// — into sums[point][series], walking cells in the fixed (point, rep,
// sample) order. Each cell must draw its randomness from its own
// (Seed, rep) fork; the fixed fold order then makes the summaries
// bit-identical for any worker count (Welford accumulation is
// order-sensitive).
//
// When the config carries a metrics registry, every cell's wall-clock
// time lands in the experiment_cell_seconds histogram,
// experiment_cells_total counts completions, and
// experiment_cell_errors_total counts failures; the timing never feeds
// back into the computation.
func fanOut(c Config, points, reps int, cell func(point, rep int) ([][]float64, error)) ([][]stats.Summary, error) {
	samples := make([][][]float64, points*reps)
	run := func(i int) (err error) {
		samples[i], err = cell(i/reps, i%reps)
		return err
	}
	if c.Metrics != nil {
		hist := c.Metrics.Histogram("experiment_cell_seconds")
		cells := c.Metrics.Counter("experiment_cells_total")
		fails := c.Metrics.Counter("experiment_cell_errors_total")
		timed := run
		run = func(i int) error {
			start := time.Now()
			err := timed(i)
			hist.Observe(time.Since(start).Seconds())
			cells.Inc()
			if err != nil {
				fails.Inc()
			}
			return err
		}
	}
	if err := runParallel(c.Context(), c.workerCount(), len(samples), run); err != nil {
		return nil, err
	}
	sums := make([][]stats.Summary, points)
	for i, series := range samples {
		p := i / reps
		if sums[p] == nil {
			sums[p] = make([]stats.Summary, len(series))
		}
		for s, vs := range series {
			for _, v := range vs {
				sums[p][s].Add(v)
			}
		}
	}
	return sums, nil
}

// workerCount resolves the configured experiment fan-out: 0 means one
// worker per available CPU.
func (c Config) workerCount() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

package experiment

import (
	"context"
	"fmt"

	"mmwave/internal/baseline"
	"mmwave/internal/core"
	"mmwave/internal/sim"
	"mmwave/internal/stats"
)

// FigQuality is an extension figure grounded in the paper's §III PSNR
// model (eq. 1): every scheme gets exactly one GOP period of air time,
// and the metric is the mean reconstructed PSNR across links. The
// proposed scheme runs the quality-mode LP (maximize delivered bits
// within the period); the benchmarks run their usual policies truncated
// at the period boundary; "p1-truncated" replays the min-time-optimal
// plan truncated at the boundary, isolating the value of quality-aware
// allocation over plain truncation.
func FigQuality(cfg Config, demandScales []float64) (*Figure, error) {
	if demandScales == nil {
		demandScales = DefaultDemandSweep()
	}
	series := []Series{
		{Name: "proposed-quality"},
		{Name: "p1-truncated"},
		{Name: "benchmark1"},
		{Name: "benchmark2"},
	}
	gop := cfg.Trace.GOPDuration()

	// Fan the (scale, rep) cells out across the worker pool, then
	// aggregate in the fixed sequential order (see sweepFigure).
	pointCfgs := make([]Config, len(demandScales))
	for xi, scale := range demandScales {
		pointCfgs[xi] = cfg
		pointCfgs[xi].DemandScale = scale
		if err := pointCfgs[xi].Validate(); err != nil {
			return nil, err
		}
	}
	type cellRef struct{ xi, rep int }
	var cells []cellRef
	for xi := range demandScales {
		for rep := 0; rep < pointCfgs[xi].Seeds; rep++ {
			cells = append(cells, cellRef{xi, rep})
		}
	}
	cellVals := make([][]float64, len(cells))
	err := runCells(cfg, len(cells), func(i int) error {
		c := cells[i]
		pointCfg := pointCfgs[c.xi]
		rng := stats.Fork(pointCfg.Seed, int64(c.rep))
		inst, err := NewInstance(pointCfg, rng)
		if err != nil {
			return err
		}
		vals, err := qualityPoint(pointCfg, inst, gop)
		if err != nil {
			return fmt.Errorf("quality x=%g rep=%d: %w", demandScales[c.xi], c.rep, err)
		}
		cellVals[i] = vals
		return nil
	})
	if err != nil {
		return nil, err
	}
	ci := 0
	for xi, scale := range demandScales {
		sums := make([]stats.Summary, len(series))
		for rep := 0; rep < pointCfgs[xi].Seeds; rep++ {
			for i, v := range cellVals[ci] {
				sums[i].Add(v)
			}
			ci++
		}
		for i := range series {
			series[i].Points = append(series[i].Points, Point{
				X: scale, Mean: sums[i].Mean, CI95: sums[i].CI95(), N: sums[i].N,
			})
		}
	}
	return &Figure{
		ID:     "quality",
		Title:  "Mean PSNR within one GOP period versus traffic demand",
		XLabel: "traffic demand (× nominal GOP volume)",
		YLabel: "mean PSNR (dB)",
		Series: series,
	}, nil
}

// qualityPoint evaluates all four schemes on one instance, returning
// mean PSNR per scheme in FigQuality's series order.
func qualityPoint(cfg Config, inst *Instance, gop float64) ([]float64, error) {
	L := inst.Network.NumLinks()
	q := cfg.Video.Quality
	meanPSNRFromServed := func(exec *sim.Execution) float64 {
		var sum float64
		for l := 0; l < L; l++ {
			rate := exec.Served(l) / gop / 1e6
			sum += q.PSNR(rate)
		}
		return sum / float64(L)
	}

	out := make([]float64, 4)

	// Proposed, quality mode.
	qs, err := core.NewQualitySolver(inst.Network, inst.Demands, gop, nil, cfg.solverOptions())
	if err != nil {
		return nil, err
	}
	qres, err := qs.Solve(context.Background())
	if err != nil {
		return nil, err
	}
	var sum float64
	for l := 0; l < L; l++ {
		sum += qres.PSNR(l, q, gop)
	}
	out[0] = sum / float64(L)

	// Min-time plan truncated at the period.
	plan, err := solvePlan(cfg, inst)
	if err != nil {
		return nil, err
	}
	policy, err := sim.NewPlanPolicy(plan.Schedules, plan.Tau, cfg.SlotDuration)
	if err != nil {
		return nil, err
	}
	exec, err := sim.Run(inst.Network, inst.Demands, policy, sim.Options{
		SlotDuration: cfg.SlotDuration,
		Deadline:     gop,
	})
	if err != nil {
		return nil, err
	}
	out[1] = meanPSNRFromServed(exec)

	// Benchmarks truncated at the period.
	for i, pol := range []sim.Policy{
		baseline.Benchmark1{},
		&baseline.Benchmark2{Alloc: baseline.ChannelAllocation{ExclusionDist: cfg.Room.Width / 4}},
	} {
		exec, err := sim.Run(inst.Network, inst.Demands, pol, sim.Options{
			SlotDuration: cfg.SlotDuration,
			Deadline:     gop,
		})
		if err != nil {
			return nil, err
		}
		out[2+i] = meanPSNRFromServed(exec)
	}
	return out, nil
}

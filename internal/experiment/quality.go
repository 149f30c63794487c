package experiment

import "mmwave/internal/core"

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
	gop := cfg.Trace.GOPDuration()
	series, err := sweepFigure(cfg, []string{"proposed-quality", "p1-truncated", "benchmark1", "benchmark2"},
		demandScales, withDemand, func(pointCfg Config, inst *Instance) ([][]float64, error) {
			return qualityPoint(pointCfg, inst, gop)
		})
	if err != nil {
		return nil, err
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
func qualityPoint(cfg Config, inst *Instance, gop float64) ([][]float64, error) {
	L := inst.Network.NumLinks()
	q := cfg.Video.Quality

	// Proposed, quality mode.
	qs, err := core.NewQualitySolver(inst.Network, inst.Demands, gop, nil, cfg.solverOptions())
	if err != nil {
		return nil, err
	}
	qres, err := qs.Solve(cfg.Context())
	if err != nil {
		return nil, err
	}
	var sum float64
	for l := 0; l < L; l++ {
		sum += qres.PSNR(l, q, gop)
	}
	out := [][]float64{{sum / float64(L)}}

	// The min-time plan and the benchmarks, truncated at the period.
	for _, algo := range AllAlgorithms() {
		res, err := runOn(cfg, algo, inst, gop)
		if err != nil {
			return nil, err
		}
		var sum float64
		for l := 0; l < L; l++ {
			sum += q.PSNR(res.Exec.Served(l) / gop / 1e6)
		}
		out = append(out, []float64{sum / float64(L)})
	}
	return out, nil
}

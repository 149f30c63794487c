package experiment

import (
	"fmt"

	"mmwave/internal/core"
	"mmwave/internal/stats"
	"mmwave/internal/video"
)

// WarmReuseConfig parameterizes the cross-epoch warm-reuse study: one
// instance is re-solved over a sequence of scheduling epochs whose
// demands jitter around the nominal GOP volume (the paper's §III
// update rule — the CSI regime is fixed, only the right-hand sides
// move). Each epoch is solved twice: on a persistent solver that keeps
// the column pool and simplex basis of the previous epoch, and on a
// fresh TDMA-cold solver, so the study isolates exactly what the
// shared cg engine's durable state buys.
type WarmReuseConfig struct {
	Net    Config
	Epochs int
	// DemandJitter is the half-width of the per-epoch uniform demand
	// scale (each epoch draws a factor in [1−j, 1+j] per link). Zero
	// re-solves identical demands every epoch.
	DemandJitter float64
}

// DefaultWarmReuseConfig returns an 8-epoch study at reduced scale
// with ±30% demand jitter.
func DefaultWarmReuseConfig() WarmReuseConfig {
	return WarmReuseConfig{Net: studyScale.Of(DefaultConfig()), Epochs: 8, DemandJitter: 0.3}
}

// WarmReuseResult aggregates the study over repetitions. The warm and
// cold summaries cover the same (seed, epoch) cells — every epoch
// after the first — so their means are directly comparable.
type WarmReuseResult struct {
	WarmIters  stats.Summary // CG iterations per warm epoch
	ColdIters  stats.Summary // CG iterations, same epoch solved cold
	WarmPivots stats.Summary // LP pivots per warm epoch
	ColdPivots stats.Summary // LP pivots, same epoch solved cold
}

// RunWarmReuse runs the warm-vs-cold epoch study, one fanOut cell per
// seed.
func RunWarmReuse(wc WarmReuseConfig) (*WarmReuseResult, error) {
	if wc.Epochs < 2 {
		return nil, fmt.Errorf("experiment: warm reuse needs ≥ 2 epochs, got %d", wc.Epochs)
	}
	if wc.DemandJitter < 0 || wc.DemandJitter >= 1 {
		return nil, fmt.Errorf("experiment: demand jitter %g outside [0, 1)", wc.DemandJitter)
	}
	if err := wc.Net.Validate(); err != nil {
		return nil, err
	}
	sums, err := fanOut(wc.Net, 1, wc.Net.Seeds, func(_, rep int) ([][]float64, error) {
		vals := make([][]float64, 4)
		err := warmReuseRep(wc, rep, func(warm, cold *core.Result) {
			vals[0] = append(vals[0], float64(len(warm.Iterations)))
			vals[1] = append(vals[1], float64(len(cold.Iterations)))
			vals[2] = append(vals[2], float64(warm.LPPivots))
			vals[3] = append(vals[3], float64(cold.LPPivots))
		})
		return vals, err
	})
	if err != nil {
		return nil, err
	}
	sum := sums[0]
	return &WarmReuseResult{WarmIters: sum[0], ColdIters: sum[1], WarmPivots: sum[2], ColdPivots: sum[3]}, nil
}

// warmReuseRep runs seed rep of the study: epoch 0 on a persistent
// solver, then every later epoch both warm and TDMA-cold, handing each
// such pair to visit. Any failed solve ends the walk with its error.
func warmReuseRep(wc WarmReuseConfig, rep int, visit func(warm, cold *core.Result)) error {
	rng := stats.Fork(wc.Net.Seed, int64(rep))
	inst, err := NewInstance(wc.Net, rng)
	if err != nil {
		return err
	}
	warm, _, err := wc.Net.solve(nil, inst.Network, inst.Demands)
	if err != nil {
		return fmt.Errorf("experiment: warm reuse epoch 0: %w", err)
	}
	for e := 1; e < wc.Epochs; e++ {
		demands := make([]video.Demand, len(inst.Demands))
		for l, d := range inst.Demands {
			f := 1.0
			if wc.DemandJitter > 0 {
				f = 1 + wc.DemandJitter*(2*rng.Float64()-1)
			}
			demands[l] = d.Scale(f)
		}
		_, wres, err := wc.Net.solve(warm, inst.Network, demands)
		if err != nil {
			return fmt.Errorf("experiment: warm reuse epoch %d: %w", e, err)
		}
		_, cres, err := wc.Net.solve(nil, inst.Network, demands)
		if err != nil {
			return fmt.Errorf("experiment: warm reuse epoch %d: %w", e, err)
		}
		visit(wres, cres)
	}
	return nil
}

// FigWarmReuse renders the study as a four-series figure over the
// work metric (CG iterations, LP pivots).
func FigWarmReuse(wc WarmReuseConfig) (*Figure, error) {
	res, err := RunWarmReuse(wc)
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:     "warmreuse",
		Title:  "Cross-epoch warm reuse: per-epoch solver work, warm vs cold",
		XLabel: "epochs",
		YLabel: "work per epoch",
		Series: curves([]string{"warm CG iters", "cold CG iters", "warm LP pivots", "cold LP pivots"},
			[]float64{float64(wc.Epochs)},
			[][]stats.Summary{{res.WarmIters, res.ColdIters, res.WarmPivots, res.ColdPivots}}),
	}, nil
}

func init() {
	Register(Driver{Name: "warmreuse", Synopsis: "per-epoch solver work with cross-epoch warm reuse vs cold restarts",
		Scale: studyScale,
		Run: func(env *RunEnv) error {
			wc := DefaultWarmReuseConfig()
			wc.Net = env.Cfg
			if env.Epochs > 0 {
				wc.Epochs = env.Epochs
			}
			fig, err := FigWarmReuse(wc)
			if err != nil {
				return err
			}
			return Render(env.Out, fig)
		}})
}

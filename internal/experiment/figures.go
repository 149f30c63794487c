package experiment

import (
	"fmt"

	"mmwave/internal/stats"
)

// Point is one aggregated measurement on a figure series.
type Point struct {
	X    float64 // sweep value (number of links, demand scale, …)
	Mean float64
	CI95 float64 // half-width of the 95% confidence interval
	N    int     // repetitions aggregated
}

// Series is one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is a reproduced evaluation figure: labeled series over a
// sweep.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// metric extracts a scalar from one run.
type metric func(*RunResult) float64

// pointOf is the figure point of one aggregated sweep value.
func pointOf(x float64, s stats.Summary) Point {
	return Point{X: x, Mean: s.Mean, CI95: s.CI95(), N: s.N}
}

// curves lays fanOut's summaries out as figure series: series s, named
// names[s], has one point per sweep value xs[p], aggregated in
// sums[p][s].
func curves(names []string, xs []float64, sums [][]stats.Summary) []Series {
	out := make([]Series, len(names))
	for s, name := range names {
		out[s].Name = name
		for p, x := range xs {
			out[s].Points = append(out[s].Points, pointOf(x, sums[p][s]))
		}
	}
	return out
}

// sweepFigure draws cfg.Seeds instances at every sweep value x, under
// the point config apply(cfg, x), evaluates each with eval, and
// aggregates eval's per-series samples into one curve per name. The
// (point, rep) cells fan out over fanOut, so the curves are
// bit-identical for any worker count.
func sweepFigure(cfg Config, names []string, xs []float64, apply func(Config, float64) Config,
	eval func(Config, *Instance) ([][]float64, error)) ([]Series, error) {
	pointCfgs := make([]Config, len(xs))
	for xi, x := range xs {
		pointCfgs[xi] = apply(cfg, x)
		if err := pointCfgs[xi].Validate(); err != nil {
			return nil, err
		}
	}
	sums, err := fanOut(cfg, len(xs), cfg.Seeds, func(xi, rep int) ([][]float64, error) {
		pointCfg := pointCfgs[xi]
		inst, err := NewInstance(pointCfg, stats.Fork(pointCfg.Seed, int64(rep)))
		if err != nil {
			return nil, err
		}
		vals, err := eval(pointCfg, inst)
		if err != nil {
			return nil, fmt.Errorf("x=%g rep=%d: %w", xs[xi], rep, err)
		}
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	return curves(names, xs, sums), nil
}

// schemeSweep is sweepFigure over the schemes of Figs. 1–3: every
// algorithm runs once per instance, and each metric of ms samples that
// run. The series come metric by metric, one per algorithm.
func schemeSweep(cfg Config, xs []float64, apply func(Config, float64) Config, ms ...metric) ([]Series, error) {
	algos := AllAlgorithms()
	var names []string
	for range ms {
		for _, a := range algos {
			names = append(names, string(a))
		}
	}
	return sweepFigure(cfg, names, xs, apply, func(pointCfg Config, inst *Instance) ([][]float64, error) {
		vals := make([][]float64, len(names))
		for i, algo := range algos {
			res, err := RunOn(pointCfg, algo, inst)
			if err != nil {
				return nil, err
			}
			for mi, m := range ms {
				vals[mi*len(algos)+i] = []float64{m(res)}
			}
		}
		return vals, nil
	})
}

// withLinks and withDemand are the sweep axes: the number of links and
// the demand scale.
func withLinks(c Config, x float64) Config  { c.NumLinks = int(x); return c }
func withDemand(c Config, x float64) Config { c.DemandScale = x; return c }

// DefaultLinkSweep is the ‖L‖ sweep of Figs. 1–3.
func DefaultLinkSweep() []float64 { return []float64{10, 15, 20, 25, 30} }

// DefaultDemandSweep is the traffic-demand sweep of Fig. 2 (multiples
// of the nominal per-GOP demand).
func DefaultDemandSweep() []float64 { return []float64{0.5, 1, 1.5, 2, 2.5} }

// LinkSweep reproduces Figures 1 and 3 from one campaign over the
// number of links: each scheme runs once per instance, and that run
// yields both Fig. 1's overall scheduling time and Fig. 3's Jain
// fairness index of per-link delay.
func LinkSweep(cfg Config, linkCounts []float64) (fig1, fig3 *Figure, err error) {
	if linkCounts == nil {
		linkCounts = DefaultLinkSweep()
	}
	series, err := schemeSweep(cfg, linkCounts, withLinks,
		func(r *RunResult) float64 { return r.Exec.TotalTime },
		func(r *RunResult) float64 { return stats.Jain(r.Exec.Completion) })
	if err != nil {
		return nil, nil, err
	}
	n := len(AllAlgorithms())
	fig1 = &Figure{
		ID:     "fig1",
		Title:  "Overall scheduling time versus number of links",
		XLabel: "number of links",
		YLabel: "scheduling time (s)",
		Series: series[:n],
	}
	fig3 = &Figure{
		ID:     "fig3",
		Title:  "Fairness (Jain index of per-link delay) versus number of links",
		XLabel: "number of links",
		YLabel: "Jain fairness index",
		Series: series[n:],
	}
	return fig1, fig3, nil
}

// Fig2 reproduces Figure 2: average per-link delay versus traffic
// demand (the body text sweeps demand; the caption axis label says
// links — we follow the text and sweep the demand scale).
func Fig2(cfg Config, demandScales []float64) (*Figure, error) {
	if demandScales == nil {
		demandScales = DefaultDemandSweep()
	}
	series, err := schemeSweep(cfg, demandScales, withDemand,
		func(r *RunResult) float64 { return r.Exec.AverageDelay() })
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:     "fig2",
		Title:  "Average delay versus per-link traffic demand",
		XLabel: "traffic demand (× nominal GOP volume)",
		YLabel: "average delay (s)",
		Series: series,
	}, nil
}

// Convergence is the Fig. 4 record: per-iteration bounds and reduced
// cost of one column-generation solve.
type Convergence struct {
	Iter  []int
	Upper []float64 // MP objective (upper bound)
	Lower []float64 // best Theorem-1 lower bound so far
	Phi   []float64 // most negative reduced cost
}

// Fig4 reproduces Figure 4: the convergence trace of the proposed
// algorithm on one instance (repetition rep of the config).
func Fig4(cfg Config, rep int) (*Convergence, error) {
	res, err := RunOnce(cfg, Proposed, rep)
	if err != nil {
		return nil, err
	}
	conv := &Convergence{}
	for _, it := range res.Solver.Iterations {
		conv.Iter = append(conv.Iter, it.Iter)
		conv.Upper = append(conv.Upper, it.Upper)
		conv.Lower = append(conv.Lower, it.BestLower)
		conv.Phi = append(conv.Phi, it.Phi)
	}
	return conv, nil
}

// AblationVariant names one design-choice ablation of the proposed
// scheme.
type AblationVariant string

// Ablation variants (DESIGN.md §4).
const (
	AblationFull        AblationVariant = "full"           // everything on
	AblationFixedPower  AblationVariant = "fixed-power"    // no power adaptation
	AblationSingleChan  AblationVariant = "single-channel" // ‖K‖ = 1
	AblationGreedyPrice AblationVariant = "greedy-pricing" // heuristic pricer
	AblationPhysical    AblationVariant = "per-channel-interference"
	AblationMultiChan   AblationVariant = "multi-channel-access" // §III extension
)

// AllAblations lists the variants compared by the ablation study.
func AllAblations() []AblationVariant {
	return []AblationVariant{
		AblationFull, AblationFixedPower, AblationSingleChan,
		AblationGreedyPrice, AblationPhysical, AblationMultiChan,
	}
}

// Ablation measures total scheduling time of the proposed scheme under
// each design-choice ablation, at the config's scale.
func Ablation(cfg Config) (*Figure, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "ablation",
		Title:  "Design ablations of the proposed scheme (scheduling time)",
		XLabel: "repetition-aggregated",
		YLabel: "scheduling time (s)",
	}
	variants := AllAblations()
	vcfgs := make([]Config, len(variants))
	for vi, v := range variants {
		vcfg := cfg
		switch v {
		case AblationFixedPower:
			vcfg.FixedPower = true
		case AblationSingleChan:
			vcfg.NumChannels = 1
		case AblationGreedyPrice:
			vcfg.GreedyPricing = true
		case AblationPhysical:
			vcfg.Interference = "per-channel"
		case AblationMultiChan:
			vcfg.MultiChannel = true
		}
		vcfgs[vi] = vcfg
	}
	sums, err := fanOut(cfg, len(variants), cfg.Seeds, func(vi, rep int) ([][]float64, error) {
		res, err := RunOnce(vcfgs[vi], Proposed, rep)
		if err != nil {
			return nil, fmt.Errorf("ablation %s rep %d: %w", variants[vi], rep, err)
		}
		return [][]float64{{res.Exec.TotalTime}}, nil
	})
	if err != nil {
		return nil, err
	}
	for vi, v := range variants {
		fig.Series = append(fig.Series, Series{
			Name:   string(v),
			Points: []Point{pointOf(float64(cfg.NumLinks), sums[vi][0])},
		})
	}
	return fig, nil
}

package pncd

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"

	"mmwave/internal/api"
	"mmwave/internal/experiment"
	"mmwave/internal/stats"
	"mmwave/internal/video/trace"
)

// The slice-scenario figure drives a hosted cell through the v1 API,
// so it lives here rather than in internal/experiment (which pncd
// itself imports). cmd/mmwavesim blank-imports this package to pick
// the registration up.
func init() {
	experiment.Register(experiment.Driver{
		Name:     "slices",
		Synopsis: "3-class slice scenario (URLLC/eMBB/best-effort) through pncd over the v1 API",
		Scale:    experiment.Scale{Links: 6},
		Run:      runSlicesFig,
	})
}

// SliceResult aggregates the per-class service accounting of one slice
// scenario run: bits offered and served per traffic class, summed over
// every link and epoch.
type SliceResult struct {
	Classes []string  // class names, in class (priority) order
	Offered []float64 // bits offered per class (served + shed)
	Served  []float64 // bits actually scheduled per class
	Epochs  int
	Shed    int // epochs degraded by load shedding
	// MetricLines holds the pnc_served_fraction_class_* lines scraped
	// from the server's /metrics exposition at the end of the run.
	MetricLines []string
}

// ServedFraction returns served/offered for class c (1 when nothing
// was offered).
func (r *SliceResult) ServedFraction(c int) float64 {
	if c >= len(r.Offered) || r.Offered[c] <= 0 {
		return 1
	}
	return r.Served[c] / r.Offered[c]
}

// SlicesConfig parameterizes the slice scenario.
type SlicesConfig struct {
	Net    experiment.Config // links, channels, seed, demand scale, trace
	Epochs int
	// EpochBudget is the seconds the epoch's plan must fit in; demand
	// beyond it is shed lowest-class-first. Zero uses the GOP duration,
	// which overloads the cell at the default demand scale.
	EpochBudget float64
}

// RunSlices drives the 3-class slice scenario end to end through an
// in-process pncd server over the v1 API: a heavy-traffic cell whose
// per-GOP demand splits URLLC/eMBB/best-effort, an epoch budget that
// forces load shedding, and per-class served-fraction accounting read
// back from the wire reports. The per-class series also land in the
// server's metrics registry (pnc_served_fraction_class_*), scraped
// from /metrics like any other pnc_* family. Every API call runs
// under ctx.
func RunSlices(ctx context.Context, cfg SlicesConfig) (*SliceResult, error) {
	classes := experiment.SliceNames()
	nc := len(classes)
	if cfg.Epochs <= 0 {
		cfg.Epochs = 8
	}
	if cfg.EpochBudget <= 0 {
		cfg.EpochBudget = cfg.Net.Trace.GOPDuration()
	}

	srv, err := New(Config{})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := api.NewClient(ts.URL, ts.Client())

	scale := cfg.Net.DemandScale
	if scale <= 0 {
		scale = 1
	}
	cell, err := client.CreateCell(ctx, api.CellSpec{
		Instance: &api.Instance{
			Links:          cfg.Net.NumLinks,
			Channels:       cfg.Net.NumChannels,
			Seed:           cfg.Net.Seed,
			DemandScale:    scale,
			TrafficClasses: nc,
		},
		Solve: &api.Solve{PricerBudget: cfg.Net.PricerBudget},
		Policy: &api.Policy{
			EpochBudget: cfg.EpochBudget,
			// Stale URLLC reports replay at full weight, eMBB decays
			// gently, best-effort steeply — the per-class staleness knob.
			StalenessDecayByClass: []float64{1, 0.9, 0.5},
		},
	})
	if err != nil {
		return nil, err
	}

	// Client-side demand source for the epochs after the first: the
	// same trace generator the server's instance draw uses, on its own
	// deterministic stream, split by the slice mix.
	gen, err := trace.NewGenerator(cfg.Net.Trace, stats.Fork(cfg.Net.Seed, 1))
	if err != nil {
		return nil, err
	}
	sess := cfg.Net.Video
	sess.Shares = experiment.SliceShares()

	res := &SliceResult{
		Classes: classes,
		Offered: make([]float64, nc),
		Served:  make([]float64, nc),
	}
	for e := 0; e < cfg.Epochs; e++ {
		if e > 0 {
			demands := make([]api.Demand, cfg.Net.NumLinks)
			for l := range demands {
				demands[l] = api.DemandFromModel(l, gen.NextDemand(sess).Scale(scale))
			}
			if _, err := client.SubmitDemands(ctx, cell.Cell, demands); err != nil {
				return nil, err
			}
		}
		rep, err := client.StepCell(ctx, cell.Cell)
		if err != nil {
			return nil, err
		}
		if rep.Outcome != "ok" {
			return nil, fmt.Errorf("pncd: slices epoch %d outcome %q: %s", e, rep.Outcome, rep.Error)
		}
		res.Epochs++
		r := rep.Result
		if r == nil {
			continue
		}
		if r.Degraded {
			res.Shed++
		}
		// r.Demands is the post-shed vector the plan serves in full, so
		// served is its per-class sum and offered adds the shed bits.
		for _, d := range r.Demands {
			m := d.ToModel()
			for c := 0; c < nc; c++ {
				res.Served[c] += m.At(c)
				res.Offered[c] += m.At(c)
			}
		}
		for c, bits := range r.ShedByClass {
			if c < nc {
				res.Offered[c] += bits
			}
		}
	}
	if exp, err := client.Metrics(ctx); err == nil {
		res.MetricLines = servedFractionMetrics(exp)
	}
	return res, nil
}

// runSlicesFig adapts RunSlices to the figure registry: table output.
func runSlicesFig(env *experiment.RunEnv) error {
	cfg := SlicesConfig{Net: env.Cfg, Epochs: env.Epochs}
	res, err := RunSlices(env.Cfg.Context(), cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(env.Out, "SLICES — 3-class slice cell over the v1 API (%d links, %d channels, %d epochs, demand ×%g)\n",
		cfg.Net.NumLinks, cfg.Net.NumChannels, res.Epochs, cfg.Net.DemandScale)
	fmt.Fprintf(env.Out, "  shedding:   %d/%d epochs degraded (lowest class first)\n", res.Shed, res.Epochs)
	fmt.Fprintf(env.Out, "  %-11s %12s %12s %9s\n", "class", "offered(Mb)", "served(Mb)", "served%")
	for c := range res.Classes {
		fmt.Fprintf(env.Out, "  %-11s %12.1f %12.1f %8.1f%%\n",
			res.Classes[c], res.Offered[c]/1e6, res.Served[c]/1e6, 100*res.ServedFraction(c))
	}
	for _, line := range res.MetricLines {
		fmt.Fprintf(env.Out, "  /metrics:   %s\n", line)
	}
	// The priority order must be visible in the service levels.
	for c := 1; c < len(res.Classes); c++ {
		if res.ServedFraction(c) > res.ServedFraction(c-1)+1e-9 {
			return fmt.Errorf("pncd: slices: class %s served fraction %.3f exceeds higher-priority %s %.3f",
				res.Classes[c], res.ServedFraction(c), res.Classes[c-1], res.ServedFraction(c-1))
		}
	}
	return nil
}

// servedFractionMetrics extracts the pnc_served_fraction_class_* lines
// from a /metrics exposition (test helper shared with server tests).
func servedFractionMetrics(exposition string) []string {
	var out []string
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "pnc_served_fraction_class_") {
			out = append(out, line)
		}
	}
	return out
}

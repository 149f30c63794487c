package experiment

import (
	"bytes"
	"context"
	"fmt"

	"mmwave/internal/plot"
)

// A Recording is one campaign of the recorded results (the files under
// results/): a registered driver's default run, made once.
type Recording struct {
	Driver string // the registered driver; the campaign runs at its Scale
	File   string // the driver's printed output ("" = the campaign records figures)

	// figures, when set, builds the campaign's figures in place of the
	// driver's printed output. Figure i is recorded as ID.txt, ID.csv
	// and ID.svg, the chart drawn with charts[i].
	figures func(env *RunEnv) ([]*Figure, error)
	charts  []plot.Options
}

// recordings is every recorded campaign, in the order they run. Figs. 1
// and 3 read two metrics of one link sweep, so that sweep runs once for
// both.
var recordings = []Recording{
	{Driver: "1", figures: func(env *RunEnv) ([]*Figure, error) {
		fig1, fig3, err := LinkSweep(env.Cfg, env.XS)
		return []*Figure{fig1, fig3}, err
	}, charts: []plot.Options{
		{Title: "Fig 1", XLabel: "number of links", YLabel: "scheduling time (s)"},
		{Title: "Fig 3", XLabel: "number of links", YLabel: "Jain fairness"},
	}},
	{Driver: "2", figures: func(env *RunEnv) ([]*Figure, error) {
		fig2, err := Fig2(env.Cfg, env.XS)
		return []*Figure{fig2}, err
	}, charts: []plot.Options{
		{Title: "Fig 2", XLabel: "traffic demand", YLabel: "average delay (s)"},
	}},
	{Driver: "4", File: "fig4.txt"},
	{Driver: "ablation", File: "ablation.txt"},
	{Driver: "quality", File: "quality.txt"},
	{Driver: "blockage", File: "blockage.txt"},
	{Driver: "relay", File: "relay.txt"},
	{Driver: "streaming", File: "streaming.txt"},
}

// Recordings lists every recorded campaign, in the order Record runs
// them.
func Recordings() []Recording { return recordings }

// Record runs every recorded campaign once, each under envFor of its
// driver, and returns the files they record, by name. A canceled
// campaign context ends it with the cancellation cause: a driver
// outside the sweep harness finishes on truncated plans, and those are
// never recorded.
func Record(envFor func(Driver) *RunEnv) (map[string][]byte, error) {
	files := map[string][]byte{}
	for _, r := range recordings {
		d, _ := Lookup(r.Driver)
		env := envFor(d)
		err := r.record(d, env, files)
		if ctx := env.Cfg.Context(); ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		if err != nil {
			return nil, fmt.Errorf("recording -fig %s: %w", r.Driver, err)
		}
	}
	return files, nil
}

// record runs the campaign of d under env and adds its files to files.
func (r Recording) record(d Driver, env *RunEnv, files map[string][]byte) error {
	if r.figures == nil {
		var out bytes.Buffer
		env.Out = &out
		err := d.Run(env)
		files[r.File] = out.Bytes()
		return err
	}
	figs, err := r.figures(env)
	if err != nil {
		return err
	}
	for i, fig := range figs {
		var txt, csv, svg bytes.Buffer
		if err := Render(&txt, fig); err != nil {
			return err
		}
		if err := RenderCSV(&csv, fig); err != nil {
			return err
		}
		if err := plot.SVG(&svg, r.charts[i], chartSeries(fig)); err != nil {
			return err
		}
		files[fig.ID+".txt"], files[fig.ID+".csv"], files[fig.ID+".svg"] = txt.Bytes(), csv.Bytes(), svg.Bytes()
	}
	return nil
}

// chartSeries is fig's curves as plot series, each point's 95%
// confidence half-width as its error bar.
func chartSeries(fig *Figure) []plot.Series {
	out := make([]plot.Series, len(fig.Series))
	for i, s := range fig.Series {
		out[i].Name = s.Name
		for _, p := range s.Points {
			out[i].X = append(out[i].X, p.X)
			out[i].Y = append(out[i].Y, p.Mean)
			out[i].Err = append(out[i].Err, p.CI95)
		}
	}
	return out
}

package experiment

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// Render writes a figure as an aligned text table: one row per sweep
// value, one "mean ± ci" column per series. This is the same data the
// paper plots; downstream tooling can also consume RenderCSV.
func Render(w io.Writer, f *Figure) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", strings.ToUpper(f.ID), f.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := f.XLabel
	for _, s := range f.Series {
		header += "\t" + s.Name
	}
	fmt.Fprintln(tw, header)

	if len(f.Series) > 0 {
		for pi := range f.Series[0].Points {
			row := fmt.Sprintf("%g", f.Series[0].Points[pi].X)
			for _, s := range f.Series {
				if pi < len(s.Points) {
					p := s.Points[pi]
					row += fmt.Sprintf("\t%.4g ± %.2g", p.Mean, p.CI95)
				} else {
					row += "\t-"
				}
			}
			fmt.Fprintln(tw, row)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "(y: %s; n=%d reps per point)\n", f.YLabel, pointN(f))
	return err
}

// pointN returns the repetition count of the first point (uniform
// across a figure).
func pointN(f *Figure) int {
	if len(f.Series) > 0 && len(f.Series[0].Points) > 0 {
		return f.Series[0].Points[0].N
	}
	return 0
}

// RenderCSV writes the figure as CSV: x, then mean and ci per series.
func RenderCSV(w io.Writer, f *Figure) error {
	header := "x"
	for _, s := range f.Series {
		header += fmt.Sprintf(",%s_mean,%s_ci95", s.Name, s.Name)
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	if len(f.Series) == 0 {
		return nil
	}
	for pi := range f.Series[0].Points {
		row := fmt.Sprintf("%g", f.Series[0].Points[pi].X)
		for _, s := range f.Series {
			if pi < len(s.Points) {
				row += fmt.Sprintf(",%g,%g", s.Points[pi].Mean, s.Points[pi].CI95)
			} else {
				row += ",,"
			}
		}
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	return nil
}

// RenderConvergence writes the Fig. 4 trace: iteration, upper bound,
// best lower bound, and Φ.
func RenderConvergence(w io.Writer, c *Convergence) error {
	if _, err := fmt.Fprintln(w, "FIG4 — Convergence of the column-generation algorithm"); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "iter\tupper (s)\tlower (s)\tΦ")
	for i := range c.Iter {
		fmt.Fprintf(tw, "%d\t%.6g\t%.6g\t%.6g\n", c.Iter[i], c.Upper[i], c.Lower[i], c.Phi[i])
	}
	return tw.Flush()
}

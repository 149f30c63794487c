// Package plot renders the experiment harness's figures as SVG line
// charts with error bars — a stdlib-only replacement for the Matlab
// plotting the paper used.
package plot

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Series is one plotted curve with symmetric error bars.
type Series struct {
	Name string
	X    []float64
	Y    []float64
	Err  []float64 // half-width; zeros mean no bar
}

// Options labels a chart.
type Options struct {
	Title  string
	XLabel string
	YLabel string
}

// Default curve colors (colorblind-safe Okabe–Ito subset).
var palette = []string{"#0072B2", "#D55E00", "#009E73", "#CC79A7", "#E69F00", "#56B4E9"}

// SVG writes the chart.
func SVG(w io.Writer, opt Options, series []Series) error {
	if len(series) == 0 {
		return fmt.Errorf("plot: no series")
	}
	const (
		width   = 640 // pixels
		height  = 420
		marginL = 70
		marginR = 20
		marginT = 40
		marginB = 55
	)
	plotW := float64(width - marginL - marginR)
	plotH := float64(height - marginT - marginB)

	// Data ranges (including error bars), padded.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i]-s.Err[i])
			maxY = math.Max(maxY, s.Y[i]+s.Err[i])
		}
	}
	if minX == maxX {
		minX, maxX = minX-1, maxX+1
	}
	if minY == maxY {
		minY, maxY = minY-1, maxY+1
	}
	padY := (maxY - minY) * 0.08
	minY -= padY
	maxY += padY
	if minY > 0 && minY < (maxY-minY)*0.5 {
		minY = 0 // anchor near-zero ranges at zero
	}

	px := func(x float64) float64 { return marginL + (x-minX)/(maxX-minX)*plotW }
	py := func(y float64) float64 { return marginT + plotH - (y-minY)/(maxY-minY)*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")

	// Axes and grid.
	fmt.Fprintf(&b, `<g stroke="#333" stroke-width="1">`+"\n")
	fmt.Fprintf(&b, `<line x1="%d" y1="%g" x2="%g" y2="%g"/>`+"\n", marginL, float64(marginT)+plotH, float64(marginL)+plotW, float64(marginT)+plotH)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%g"/>`+"\n", marginL, marginT, marginL, float64(marginT)+plotH)
	b.WriteString("</g>\n")

	xt := ticks(minX, maxX, 6)
	yt := ticks(minY, maxY, 6)
	b.WriteString(`<g font-family="sans-serif" font-size="11" fill="#333">` + "\n")
	for _, t := range xt {
		fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#ccc"/>`+"\n", px(t), float64(marginT), px(t), float64(marginT)+plotH)
		fmt.Fprintf(&b, `<text x="%g" y="%g" text-anchor="middle">%s</text>`+"\n", px(t), float64(marginT)+plotH+16, fmtTick(t))
	}
	for _, t := range yt {
		fmt.Fprintf(&b, `<line x1="%d" y1="%g" x2="%g" y2="%g" stroke="#ccc"/>`+"\n", marginL, py(t), float64(marginL)+plotW, py(t))
		fmt.Fprintf(&b, `<text x="%d" y="%g" text-anchor="end">%s</text>`+"\n", marginL-6, py(t)+4, fmtTick(t))
	}
	b.WriteString("</g>\n")

	// Labels and title.
	b.WriteString(`<g font-family="sans-serif" fill="#111">` + "\n")
	if opt.Title != "" {
		fmt.Fprintf(&b, `<text x="%d" y="24" font-size="15" font-weight="bold" text-anchor="middle">%s</text>`+"\n", width/2, escape(opt.Title))
	}
	if opt.XLabel != "" {
		fmt.Fprintf(&b, `<text x="%g" y="%d" font-size="12" text-anchor="middle">%s</text>`+"\n", float64(marginL)+plotW/2, height-12, escape(opt.XLabel))
	}
	if opt.YLabel != "" {
		fmt.Fprintf(&b, `<text x="16" y="%g" font-size="12" text-anchor="middle" transform="rotate(-90 16 %g)">%s</text>`+"\n",
			float64(marginT)+plotH/2, float64(marginT)+plotH/2, escape(opt.YLabel))
	}
	b.WriteString("</g>\n")

	// Curves with error bars and markers.
	for si, s := range series {
		color := palette[si%len(palette)]
		var pts []string
		for i := range s.X {
			pts = append(pts, fmt.Sprintf("%g,%g", px(s.X[i]), py(s.Y[i])))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n",
			strings.Join(pts, " "), color)
		for i := range s.X {
			x, y := px(s.X[i]), py(s.Y[i])
			if e := s.Err[i]; e > 0 {
				y1, y2 := py(s.Y[i]-e), py(s.Y[i]+e)
				fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="%s"/>`+"\n", x, y1, x, y2, color)
				fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="%s"/>`+"\n", x-3, y1, x+3, y1, color)
				fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="%s"/>`+"\n", x-3, y2, x+3, y2, color)
			}
			fmt.Fprintf(&b, `<circle cx="%g" cy="%g" r="3" fill="%s"/>`+"\n", x, y, color)
		}
	}

	// Legend.
	b.WriteString(`<g font-family="sans-serif" font-size="12">` + "\n")
	lx := marginL + 12
	ly := marginT + 10
	for si, s := range series {
		color := palette[si%len(palette)]
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>`+"\n",
			lx, ly+si*18, lx+22, ly+si*18, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d" fill="#111">%s</text>`+"\n", lx+28, ly+si*18+4, escape(s.Name))
	}
	b.WriteString("</g>\n</svg>\n")

	_, err := io.WriteString(w, b.String())
	return err
}

// ticks picks ≈n human-friendly tick positions covering [lo, hi].
func ticks(lo, hi float64, n int) []float64 {
	if n < 2 {
		n = 2
	}
	span := hi - lo
	step := math.Pow(10, math.Floor(math.Log10(span/float64(n))))
	for _, m := range []float64{1, 2, 5, 10} {
		if span/(step*m) <= float64(n) {
			step *= m
			break
		}
	}
	var out []float64
	for t := math.Ceil(lo/step) * step; t <= hi+step*1e-9; t += step {
		out = append(out, t)
	}
	return out
}

// fmtTick renders a tick value compactly.
func fmtTick(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e6 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 3, 64)
}

// escape makes text safe for SVG.
func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}

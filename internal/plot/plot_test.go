package plot

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// sample is two curves with error bars, as the harness's Fig. 1 draws.
var sample = []Series{
	{Name: "proposed", X: []float64{10, 20, 30}, Y: []float64{0.998, 1.987, 2.938}, Err: []float64{0.028, 0.034, 0.046}},
	{Name: "benchmark1", X: []float64{10, 20, 30}, Y: []float64{1.332, 2.880, 4.553}, Err: []float64{0.045, 0.084, 0.130}},
}

func TestSVGStructure(t *testing.T) {
	var b strings.Builder
	if err := SVG(&b, Options{Title: "T<est>", XLabel: "links & co", YLabel: "time (s)"}, sample); err != nil {
		t.Fatal(err)
	}
	svg := b.String()
	for _, want := range []string{
		"<svg", "</svg>", "<polyline", "proposed", "benchmark1",
		"T&lt;est&gt;",   // title escaped
		"links &amp; co", // xlabel escaped
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Two polylines (one per series).
	if got := strings.Count(svg, "<polyline"); got != 2 {
		t.Errorf("polylines = %d, want 2", got)
	}
	// Error bars present (three line segments per point with err > 0).
	if !strings.Contains(svg, "<circle") {
		t.Error("no data markers")
	}
}

func TestSVGEmptySeries(t *testing.T) {
	var b strings.Builder
	if err := SVG(&b, Options{}, nil); err == nil {
		t.Error("empty series accepted")
	}
}

func TestSVGDegenerateRanges(t *testing.T) {
	// Single point, zero error: ranges collapse and must be padded.
	s := []Series{{Name: "only", X: []float64{5}, Y: []float64{2}, Err: []float64{0}}}
	var b strings.Builder
	if err := SVG(&b, Options{}, s); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "NaN") || strings.Contains(b.String(), "Inf") {
		t.Error("degenerate ranges leaked NaN/Inf into the SVG")
	}
}

func TestTicksProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(uint32) bool {
		lo := rng.Float64()*100 - 50
		hi := lo + rng.Float64()*1000 + 1e-6
		ts := ticks(lo, hi, 6)
		if len(ts) < 1 || len(ts) > 12 {
			return false
		}
		for i, v := range ts {
			if v < lo-1e-9 || v > hi+1e-6*(1+math.Abs(hi)) {
				return false
			}
			if i > 0 && v <= ts[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFmtTick(t *testing.T) {
	if fmtTick(5) != "5" {
		t.Errorf("fmtTick(5) = %q", fmtTick(5))
	}
	if fmtTick(2.5) != "2.5" {
		t.Errorf("fmtTick(2.5) = %q", fmtTick(2.5))
	}
}

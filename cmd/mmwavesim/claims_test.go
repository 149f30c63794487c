package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// sweepPoint is one row of results/fig{1,2,3}.csv: the swept x, then
// the mean and the 95% half-width of each scheme, in the order
// proposed, Benchmark 1, Benchmark 2.
type sweepPoint struct {
	x        float64
	mean, ci [3]float64
}

// convRow is one iteration of results/fig4.txt.
type convRow struct {
	iter              int
	upper, lower, phi float64
}

var schemes = [3]string{"proposed", "benchmark 1", "benchmark 2"}

func readSweep(t *testing.T, path string) []sweepPoint {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if want := "x,proposed_mean,proposed_ci95,benchmark1_mean,benchmark1_ci95,benchmark2_mean,benchmark2_ci95"; lines[0] != want {
		t.Fatalf("%s: header %q, want %q", path, lines[0], want)
	}
	var pts []sweepPoint
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		if len(f) != 7 {
			t.Fatalf("%s: row %q has %d fields", path, line, len(f))
		}
		v := make([]float64, 7)
		for i, s := range f {
			if v[i], err = strconv.ParseFloat(s, 64); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
		}
		pts = append(pts, sweepPoint{x: v[0], mean: [3]float64{v[1], v[3], v[5]}, ci: [3]float64{v[2], v[4], v[6]}})
	}
	return pts
}

func readConvergence(t *testing.T, path string) []convRow {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []convRow
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r convRow
		if n, _ := fmt.Sscan(sc.Text(), &r.iter, &r.upper, &r.lower, &r.phi); n == 4 {
			rows = append(rows, r)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// sweepClaims checks what EXPERIMENTS.md says of a time sweep (Figs 1
// and 2): every scheme rises with x and the proposed scheme is the
// lowest at every point. widens adds Fig 1's third claim, that each
// benchmark's ratio to the proposed scheme is larger at the last point
// than at the first.
func sweepClaims(fig string, pts []sweepPoint, widens bool) []string {
	var bad []string
	if len(pts) < 2 {
		return []string{fmt.Sprintf("%s: %d points", fig, len(pts))}
	}
	for i, p := range pts {
		for s := range schemes {
			if i > 0 && p.mean[s] <= pts[i-1].mean[s] {
				bad = append(bad, fmt.Sprintf("%s: %s does not rise from x=%g to %g", fig, schemes[s], pts[i-1].x, p.x))
			}
			if s > 0 && p.mean[0] >= p.mean[s] {
				bad = append(bad, fmt.Sprintf("%s: proposed %g is not below %s %g at x=%g", fig, p.mean[0], schemes[s], p.mean[s], p.x))
			}
		}
	}
	if widens {
		first, last := pts[0], pts[len(pts)-1]
		for s := 1; s < len(schemes); s++ {
			if r0, r1 := first.mean[s]/first.mean[0], last.mean[s]/last.mean[0]; r1 <= r0 {
				bad = append(bad, fmt.Sprintf("%s: %s/proposed does not grow from x=%g (%.3f) to x=%g (%.3f)", fig, schemes[s], first.x, r0, last.x, r1))
			}
		}
	}
	return bad
}

// fairnessClaims checks Fig 3: the proposed scheme has the highest
// Jain index and the narrowest interval at every point.
func fairnessClaims(pts []sweepPoint) []string {
	var bad []string
	for _, p := range pts {
		for s := 1; s < len(schemes); s++ {
			if p.mean[0] <= p.mean[s] {
				bad = append(bad, fmt.Sprintf("fig 3: proposed Jain %g is not above %s %g at L=%g", p.mean[0], schemes[s], p.mean[s], p.x))
			}
			if p.ci[0] >= p.ci[s] {
				bad = append(bad, fmt.Sprintf("fig 3: proposed interval ±%g is not narrower than %s ±%g at L=%g", p.ci[0], schemes[s], p.ci[s], p.x))
			}
		}
	}
	return bad
}

// convergenceClaims checks Fig 4: the upper bound never rises, the
// best lower bound never falls and never exceeds the upper bound, and
// the last iteration closes the gap (≤ 1e-6 relative) with Φ ≥ −1e-9.
func convergenceClaims(rows []convRow) []string {
	var bad []string
	if len(rows) == 0 {
		return []string{"fig 4: no iterations"}
	}
	for i, r := range rows {
		if i > 0 && r.upper > rows[i-1].upper {
			bad = append(bad, fmt.Sprintf("fig 4: upper bound rises at iteration %d", r.iter))
		}
		if i > 0 && r.lower < rows[i-1].lower {
			bad = append(bad, fmt.Sprintf("fig 4: best lower bound falls at iteration %d", r.iter))
		}
		if r.lower > r.upper {
			bad = append(bad, fmt.Sprintf("fig 4: lower bound %g above upper %g at iteration %d", r.lower, r.upper, r.iter))
		}
	}
	last := rows[len(rows)-1]
	if gap := (last.upper - last.lower) / last.upper; gap > 1e-6 || last.phi < -1e-9 {
		bad = append(bad, fmt.Sprintf("fig 4: last iteration %d has relative gap %g and Φ %g", last.iter, gap, last.phi))
	}
	return bad
}

// TestPaperClaims holds the committed paper-scale figures in results/
// to the claims EXPERIMENTS.md reports as reproduced, so a golden that
// moves cannot silently break one. It reads files only and runs in
// milliseconds.
func TestPaperClaims(t *testing.T) {
	fig1 := readSweep(t, "../../results/fig1.csv")
	fig2 := readSweep(t, "../../results/fig2.csv")
	fig3 := readSweep(t, "../../results/fig3.csv")
	fig4 := readConvergence(t, "../../results/fig4.txt")
	var bad []string
	bad = append(bad, sweepClaims("fig 1", fig1, true)...)
	bad = append(bad, sweepClaims("fig 2", fig2, false)...)
	bad = append(bad, fairnessClaims(fig3)...)
	bad = append(bad, convergenceClaims(fig4)...)
	for _, b := range bad {
		t.Error(b)
	}

	// Each check must be able to fail: a Fig 1 where the proposed
	// scheme exceeds Benchmark 1 at one L, a Fig 3 interval as wide as
	// a benchmark's, and a Fig 4 whose last gap stays open.
	moved := append([]sweepPoint(nil), fig1...)
	moved[2].mean[0] = moved[2].mean[1] + 0.01
	if len(sweepClaims("fig 1", moved, true)) == 0 {
		t.Error("a fig 1 with proposed above benchmark 1 at one L passes")
	}
	wide := append([]sweepPoint(nil), fig3...)
	wide[0].ci[0] = wide[0].ci[1]
	if len(fairnessClaims(wide)) == 0 {
		t.Error("a fig 3 proposed interval as wide as benchmark 1's passes")
	}
	open := append([]convRow(nil), fig4...)
	open[len(open)-1].lower *= 0.99
	if len(convergenceClaims(open)) == 0 {
		t.Error("a fig 4 ending with an open gap passes")
	}
}

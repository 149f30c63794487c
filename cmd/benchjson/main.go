// Command benchjson converts `go test -bench` text output into a
// stable, diff-friendly JSON document so benchmark baselines can be
// committed and compared across changes (the tracked trajectory in
// BENCH_baseline.json).
//
// Usage:
//
//	go test -bench=. -benchtime=1x -benchmem . | go run ./cmd/benchjson -out BENCH_baseline.json
//	go test -bench=. ... | go run ./cmd/benchjson -diff BENCH_baseline.json
//
// With -diff, the tool compares the incoming run against a stored
// baseline and prints per-benchmark deltas for the metrics both runs
// share; by default it exits non-zero only on I/O or parse errors,
// never on regressions (the numbers are for humans and CI logs).
//
// With -gate N (requires -diff), the tool additionally fails — exit
// code 3 — when any benchmark's ns/op regresses by more than N percent
// against the baseline. -match restricts the gate to benchmarks whose
// name matches a regular expression (micro-benchmarks too noisy for a
// single-iteration CI run stay report-only). -work lists deterministic
// work counters (e.g. 'pivots/op,nodes/op'). An ns/op regression is
// excused when the benchmark shares at least one listed counter with
// the baseline, every shared one is byte-for-byte unchanged, and its
// ns/op ratio is within N percent of the run's machine-speed factor:
// the median now/old ratio over the gated benchmarks whose counters
// are identical. The same walk slowed down as much as the rest of the
// run is co-tenant CPU noise, which must not fail an unmodified tree;
// one rung slower than the rest is a real slowdown, and fails. A
// gate that compares nothing — no benchmark matching -match is in both
// the baseline and the run, e.g. because `go test` appended a -N
// GOMAXPROCS suffix the baseline's names lack — fails with exit code
// 4 instead of passing vacuously. -reduce min collapses
// duplicate benchmark names from a `-count=N` run into the per-metric
// minimum — min-of-N filters scheduler interference out of wall-clock
// numbers, which is what makes a percentage gate usable on shared
// runners:
//
//	go test -bench='BenchmarkAblation|BenchmarkFig1' -count=3 ... | go run ./cmd/benchjson \
//	    -reduce min -diff BENCH_baseline.json -gate 20 -match 'BenchmarkAblation|BenchmarkFig1'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strings"

	"mmwave/internal/benchparse"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out    = fs.String("out", "", "write the JSON document to this file instead of stdout")
		diff   = fs.String("diff", "", "compare the incoming run against this stored baseline JSON")
		gate   = fs.Float64("gate", 0, "with -diff: fail (exit 3) on ns/op regressions above this percentage")
		match  = fs.String("match", "", "with -diff: restrict the diff report and the gate to benchmarks matching this regexp")
		reduce = fs.String("reduce", "", "collapse duplicate benchmark names (-count>1 runs): 'min' keeps the per-metric minimum")
		work   = fs.String("work", "", "with -gate: comma-separated deterministic work metrics; an ns/op regression is excused when every shared one is unchanged and it is within the gate of the run's median speed factor")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *gate < 0 || (*gate > 0 && *diff == "") {
		fmt.Fprintln(stderr, "benchjson: -gate requires -diff and a positive percentage")
		return 2
	}
	var gateRE *regexp.Regexp
	if *match != "" {
		var err error
		if gateRE, err = regexp.Compile(*match); err != nil {
			fmt.Fprintf(stderr, "benchjson: -match: %v\n", err)
			return 2
		}
	}

	doc, err := benchparse.Parse(stdin)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(stderr, "benchjson: no benchmark lines in input")
		return 1
	}
	switch *reduce {
	case "":
	case "min":
		reduceMin(doc)
	default:
		fmt.Fprintf(stderr, "benchjson: unknown -reduce mode %q (only 'min')\n", *reduce)
		return 2
	}

	if *diff != "" {
		base, err := readBaseline(*diff)
		if err != nil {
			fmt.Fprintf(stderr, "benchjson: %v\n", err)
			return 1
		}
		if *reduce == "min" {
			reduceMin(base) // tolerate an un-reduced multi-count baseline
		}
		printDiff(stdout, base, doc, gateRE)
		if *gate > 0 {
			failures, compared := gateRegressions(stdout, base, doc, *gate, gateRE, workUnits(*work))
			if compared == 0 {
				fmt.Fprintln(stderr, "benchjson: the gate compared no benchmark: none selected by -match is in both the baseline and this run")
				return 4
			}
			if failures > 0 {
				fmt.Fprintf(stderr, "benchjson: %d benchmark(s) regressed more than %g%% in ns/op\n", failures, *gate)
				return 3
			}
		}
		return 0
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	enc = append(enc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintf(stderr, "benchjson: %v\n", err)
			return 1
		}
		return 0
	}
	if _, err := stdout.Write(enc); err != nil {
		return 1
	}
	return 0
}

// reduceMin collapses duplicate benchmark names — the shape of a
// `go test -bench -count=N` run — keeping the minimum of every metric.
// Deterministic counters (allocs/op, probes/op, sched_s) are identical
// across repetitions, so only wall-clock metrics actually reduce.
func reduceMin(doc *benchparse.Document) {
	index := make(map[string]int, len(doc.Benchmarks))
	out := doc.Benchmarks[:0]
	for _, b := range doc.Benchmarks {
		i, seen := index[b.Name]
		if !seen {
			index[b.Name] = len(out)
			out = append(out, b)
			continue
		}
		for unit, v := range b.Metrics {
			if old, ok := out[i].Metrics[unit]; !ok || v < old {
				out[i].Metrics[unit] = v
			}
		}
	}
	doc.Benchmarks = out
}

func readBaseline(path string) (*benchparse.Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchparse.Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// printDiff reports, per benchmark present in both runs, the relative
// change of every shared metric. A non-nil re restricts the report to
// matching names, so a gated-subset run against a full baseline does
// not drown the log in "missing from this run" lines.
func printDiff(w io.Writer, base, cur *benchparse.Document, re *regexp.Regexp) {
	byName := make(map[string]benchparse.Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		byName[b.Name] = b
	}
	for _, b := range cur.Benchmarks {
		if re != nil && !re.MatchString(b.Name) {
			continue
		}
		ref, ok := byName[b.Name]
		if !ok {
			fmt.Fprintf(w, "%s: new benchmark\n", b.Name)
			continue
		}
		units := make([]string, 0, len(b.Metrics))
		for unit := range b.Metrics {
			if _, shared := ref.Metrics[unit]; shared {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			old, now := ref.Metrics[unit], b.Metrics[unit]
			switch {
			case old == now:
				fmt.Fprintf(w, "%s %s: %g (unchanged)\n", b.Name, unit, now)
			case old == 0:
				fmt.Fprintf(w, "%s %s: %g (was 0)\n", b.Name, unit, now)
			default:
				fmt.Fprintf(w, "%s %s: %g → %g (%+.1f%%)\n", b.Name, unit, old, now, 100*(now-old)/old)
			}
		}
	}
	for _, ref := range base.Benchmarks {
		if re != nil && !re.MatchString(ref.Name) {
			continue
		}
		found := false
		for _, b := range cur.Benchmarks {
			if b.Name == ref.Name {
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(w, "%s: missing from this run\n", ref.Name)
		}
	}
}

// workUnits splits the -work flag value into metric names.
func workUnits(v string) []string {
	var units []string
	for _, u := range strings.Split(v, ",") {
		if u = strings.TrimSpace(u); u != "" {
			units = append(units, u)
		}
	}
	return units
}

// gateRegressions applies the CI regression gate: any benchmark shared
// with the baseline (and matching re, when given) whose ns/op grew by
// more than pct percent counts as a failure. A regression is excused
// (logged, not counted) only when the benchmark shares at least one of
// the deterministic work counters with the baseline, every shared
// counter is unchanged, and its now/old ns/op ratio is at most the
// run's machine-speed factor times 1+pct/100. The factor is the median
// ratio over the gated benchmarks whose counters are identical: a
// uniformly slower machine moves every rung alike, while a rung whose
// identical walk got slower than the others is a real slowdown.
// compared counts the benchmarks whose ns/op the gate actually checked.
func gateRegressions(w io.Writer, base, cur *benchparse.Document, pct float64, re *regexp.Regexp, work []string) (failures, compared int) {
	byName := make(map[string]benchparse.Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		byName[b.Name] = b
	}
	type rung struct {
		name     string
		old, now float64
		shared   int  // listed work counters both runs report
		same     bool // shared > 0 and every shared counter is unchanged
	}
	var rungs []rung
	var sameRatios []float64
	for _, b := range cur.Benchmarks {
		if re != nil && !re.MatchString(b.Name) {
			continue
		}
		ref, ok := byName[b.Name]
		if !ok {
			continue
		}
		old, hasOld := ref.Metrics["ns/op"]
		now, hasNow := b.Metrics["ns/op"]
		if !hasOld || !hasNow || old <= 0 {
			continue
		}
		shared, same := workUnchanged(ref, b, work)
		g := rung{name: b.Name, old: old, now: now, shared: shared, same: shared > 0 && same}
		if g.same {
			sameRatios = append(sameRatios, now/old)
		}
		rungs = append(rungs, g)
	}
	factor := median(sameRatios)
	for _, g := range rungs {
		if g.now <= g.old*(1+pct/100) {
			continue
		}
		ratio := g.now / g.old
		if g.same && ratio <= factor*(1+pct/100) {
			fmt.Fprintf(w, "NOISE %s ns/op: %g → %g (%+.1f%%) excused: %d work metric(s) unchanged, within the run's speed factor %.3g×\n",
				g.name, g.old, g.now, 100*(ratio-1), g.shared, factor)
			continue
		}
		why := ""
		if g.same {
			why = fmt.Sprintf("; work unchanged, but %.3g× is over the run's speed factor %.3g×", ratio, factor)
		}
		fmt.Fprintf(w, "GATE %s ns/op: %g → %g (%+.1f%% > +%g%% allowed%s)\n",
			g.name, g.old, g.now, 100*(ratio-1), pct, why)
		failures++
	}
	return failures, len(rungs)
}

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 for none. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

// workUnchanged reports how many of the work metrics both runs carry
// and whether every shared one is exactly equal.
func workUnchanged(ref, cur benchparse.Benchmark, work []string) (shared int, same bool) {
	same = true
	for _, unit := range work {
		old, hasOld := ref.Metrics[unit]
		now, hasNow := cur.Metrics[unit]
		if !hasOld || !hasNow {
			continue
		}
		shared++
		if old != now {
			same = false
		}
	}
	return shared, same
}

// Command perfbench is the repository benchmark. It runs one workload
// from a seed, checks every plan the system produces, and prints a
// human-readable table followed by one JSON line: the end-to-end
// metrics with -trace 0, or the per-layer ladder from a traced run
// with -trace 1. Build and run it through run.sh from the repository
// root; NOTES.md explains the workloads and the layer map.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// outDir holds everything a run writes (temporary state directories,
// traces, work-counter records), relative to the repository root.
const outDir = ".bench_build"

// metric is one named reading with its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// rung is one line of a workload's reconciliation ladder: a layer's
// time per operation in the traced run. Top-level rungs (Depth 0) are
// self times of one span tree and partition the traced operation.
// Deeper rungs break down the nearest rung above them with a smaller
// Depth; they come from replays and estimates, so they can disagree
// with it. A Whole rung's breakdown replays all of its work.
type rung struct {
	Name  string
	MS    float64
	Depth int
	Whole bool
}

// reconcileTol is how far a ladder may disagree with the times it must
// add up to before the traced run counts a failed check.
const reconcileTol = 0.10

// parts sums the rungs that break down ladder[i] directly.
func parts(ladder []rung, i int) (float64, bool) {
	var sum float64
	found := false
	for _, r := range ladder[i+1:] {
		if r.Depth <= ladder[i].Depth {
			break
		}
		if r.Depth == ladder[i].Depth+1 {
			sum += r.MS
			found = true
		}
	}
	return sum, found
}

// reconcile checks a ladder against what it must add up to, each within
// reconcileTol: the top-level rungs against the untraced end-to-end
// time, and every breakdown against its rung. A breakdown may not
// exceed its rung; a Whole one may not fall short of it either.
func reconcile(res *result) {
	var top float64
	for i, r := range res.Ladder {
		if r.Depth == 0 {
			top += r.MS
		}
		sum, ok := parts(res.Ladder, i)
		if !ok {
			continue
		}
		if sum > (1+reconcileTol)*r.MS || (r.Whole && sum < (1-reconcileTol)*r.MS) {
			res.fail("ladder: the breakdown of %q sums to %.4g ms per %s, the rung is %.4g ms", r.Name, sum, res.Op, r.MS)
		}
	}
	if math.Abs(ratio(top, res.UntracedMS)-1) > reconcileTol {
		res.fail("ladder: the rungs sum to %.4g ms per %s, untraced end to end is %.4g ms", top, res.Op, res.UntracedMS)
	}
}

// result is everything one workload run reports.
type result struct {
	Workload  string
	Op        string // what one operation is ("solve", "epoch", …)
	Attempted int
	Failed    int
	Failures  []string

	E2E    []metric // the contract's end-to-end metrics (untraced run)
	Named  []metric // the workload's own end-to-end readings, printed only
	Layers []metric // per-layer metrics (traced run)
	Work   []metric // deterministic work counters

	Ladder     []rung
	UntracedMS float64 // e2e ms per operation, untraced, same inputs as the ladder
	TracedMS   float64 // e2e ms per operation, traced
}

// fail records a failed operation or check.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// env is what every workload receives.
type env struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
}

// tracePath is where a traced run writes its spans.
func (e *env) tracePath() string {
	return filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", e.workload, e.seed))
}

// workload is one benchmark input set.
type workload struct {
	name string
	run  func(*env) (*result, error)
}

var workloads = []workload{
	{"table1-cold", runTable1Cold},
	{"exact-proof", runExactProof},
	{"pncd-churn", runPncdChurn},
	{"pncd-tiny", runPncdTiny},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", `workload to run, or "all" for every workload`)
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "run length in seconds the workload sizes its inputs to")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", *name, workloadNames())
		return 2
	}

	e := &env{seed: *seed, seconds: *seconds, traced: *trace == 1}
	var results []*result
	for _, w := range selected {
		e.workload = w.name
		res, err := w.run(e)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		res.Workload = w.name
		if err := checkWorkRecord(res, e); err != nil {
			res.fail("work counters: %v", err)
		}
		results = append(results, res)
	}
	rss := peakRSSMB()
	for _, res := range results {
		if !e.traced {
			res.E2E = append(res.E2E, metric{"peak_rss_mb", rss, "MB"})
		}
	}
	printTables(stdout, results, e)
	line, err := summaryLine(results, e.traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// summaryLine renders the final JSON object. A single workload reports
// its metrics by name; "all" prefixes each with its workload.
func summaryLine(results []*result, traced bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, res := range results {
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		ms := res.E2E
		if traced {
			ms = res.Layers
		}
		for _, m := range ms {
			key := m.Name
			if len(results) > 1 {
				key = res.Workload + "." + m.Name
			}
			out.Metrics[key] = value{m.Value, m.Unit}
		}
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	b, err := json.Marshal(out)
	return string(b), err
}

func printTables(w io.Writer, results []*result, e *env) {
	mode := "end-to-end (untraced)"
	if e.traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "perfbench seed=%d seconds=%d %s\n", e.seed, e.seconds, mode)
	for _, res := range results {
		fmt.Fprintf(w, "\n== %s: %d %ss attempted, %d failed (failed_fraction %.4g)\n",
			res.Workload, res.Attempted, res.Op, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
		for _, f := range res.Failures {
			fmt.Fprintf(w, "   FAIL %s\n", f)
		}
		printMetrics(w, "end-to-end", res.E2E)
		printMetrics(w, "workload readings", res.Named)
		printMetrics(w, "per-layer", res.Layers)
		printMetrics(w, "work counters", res.Work)
		if len(res.Ladder) > 0 {
			fmt.Fprintf(w, "   ladder (ms per %s, traced; indented rungs break down the rung above):\n", res.Op)
			var total float64
			for i, r := range res.Ladder {
				if r.Depth == 0 {
					total += r.MS
				}
				tag := ""
				if sum, ok := parts(res.Ladder, i); ok {
					tag = fmt.Sprintf("  (breakdown/rung = %.3f)", ratio(sum, r.MS))
				}
				name := strings.Repeat("  ", r.Depth) + r.Name
				fmt.Fprintf(w, "     %-36s %10.4f%s\n", name, r.MS, tag)
			}
			fmt.Fprintf(w, "     %-36s %10.4f\n", "sum of top-level rungs", total)
			fmt.Fprintf(w, "     %-36s %10.4f  (rungs/untraced = %.3f, tolerance ±%.0f%%)\n", "end-to-end untraced",
				res.UntracedMS, ratio(total, res.UntracedMS), 100*reconcileTol)
			fmt.Fprintf(w, "     %-36s %10.4f  (tracing overhead %+.4f ms, %+.1f%%)\n", "end-to-end traced", res.TracedMS,
				res.TracedMS-res.UntracedMS, 100*ratio(res.TracedMS-res.UntracedMS, res.UntracedMS))
		}
	}
	fmt.Fprintln(w)
}

func printMetrics(w io.Writer, title string, ms []metric) {
	if len(ms) == 0 {
		return
	}
	fmt.Fprintf(w, "   %s:\n", title)
	for _, m := range ms {
		fmt.Fprintf(w, "     %-28s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// checkWorkRecord compares the run's deterministic work counters with
// any earlier run of the same binary on the same inputs, and records
// them for the next one: the same code must do the same work.
func checkWorkRecord(res *result, e *env) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sumExe := sha256.Sum256(data)
	key := fmt.Sprintf("%s-seed%d-s%d-trace%v-%s.json", res.Workload, e.seed, e.seconds, e.traced, hex.EncodeToString(sumExe[:6]))
	path := filepath.Join(outDir, "work", key)
	counters := map[string]float64{}
	for _, m := range res.Work {
		counters[m.Name] = m.Value
	}
	if prev, err := os.ReadFile(path); err == nil {
		var old map[string]float64
		if err := json.Unmarshal(prev, &old); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		var diffs []string
		for name, v := range counters {
			if ov, ok := old[name]; ok && ov != v {
				diffs = append(diffs, fmt.Sprintf("%s %g→%g", name, ov, v))
			}
		}
		sort.Strings(diffs)
		if len(diffs) > 0 {
			return fmt.Errorf("differ from an earlier run of this binary: %s", strings.Join(diffs, ", "))
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(counters)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmwave/internal/benchparse"
)

const runA = `goos: linux
pkg: mmwave
BenchmarkSolve/links=10-8   3   100000 ns/op   500 B/op
BenchmarkOld-8              2   50000 ns/op
PASS
`

const runB = `goos: linux
pkg: mmwave
BenchmarkSolve/links=10-8   3   120000 ns/op   500 B/op
BenchmarkNew-8              1   7 ns/op
PASS
`

func TestRunWritesJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "base.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-out", out}, strings.NewReader(runA), &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc benchparse.Document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(doc.Benchmarks) != 2 || doc.Goos != "linux" {
		t.Errorf("round-tripped document: %+v", doc)
	}
}

func TestRunDiff(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base.json")
	if code := run([]string{"-out", base}, strings.NewReader(runA), &bytes.Buffer{}, &bytes.Buffer{}); code != 0 {
		t.Fatal("baseline write failed")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-diff", base}, strings.NewReader(runB), &stdout, &stderr); code != 0 {
		t.Fatalf("diff run = %d, stderr: %s", code, stderr.String())
	}
	got := stdout.String()
	for _, want := range []string{"+20.0%", "BenchmarkNew-8: new benchmark", "BenchmarkOld-8: missing from this run", "(unchanged)"} {
		if !strings.Contains(got, want) {
			t.Errorf("diff output missing %q:\n%s", want, got)
		}
	}
}

// runC regresses BenchmarkSolve like runB but keeps BenchmarkOld
// unchanged, so a gate restricted to BenchmarkOld compares one
// benchmark and passes.
const runC = `goos: linux
pkg: mmwave
BenchmarkSolve/links=10-8   3   120000 ns/op   500 B/op
BenchmarkOld-8              2   50000 ns/op
PASS
`

func TestRunGate(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base.json")
	if code := run([]string{"-out", base}, strings.NewReader(runA), &bytes.Buffer{}, &bytes.Buffer{}); code != 0 {
		t.Fatal("baseline write failed")
	}

	// runB regresses BenchmarkSolve by +20%: a 25% gate passes, a 10%
	// gate fails with exit code 3 and a GATE line naming the benchmark.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-diff", base, "-gate", "25"}, strings.NewReader(runB), &stdout, &stderr); code != 0 {
		t.Fatalf("25%% gate = %d, stderr: %s", code, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-diff", base, "-gate", "10"}, strings.NewReader(runB), &stdout, &stderr); code != 3 {
		t.Fatalf("10%% gate = %d, want 3; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "GATE BenchmarkSolve/links=10-8 ns/op") {
		t.Errorf("gate output missing GATE line:\n%s", stdout.String())
	}

	// A -match excluding the regressed benchmark passes the gate.
	if code := run([]string{"-diff", base, "-gate", "10", "-match", "BenchmarkOld"}, strings.NewReader(runC), &bytes.Buffer{}, &bytes.Buffer{}); code != 0 {
		t.Fatal("match-excluded regression still failed the gate")
	}

	// A ladder whose rungs keep their work counters: one rung planted
	// 2× slower fails against the run's median speed factor (1×), while
	// every rung uniformly 1.5× slower is the machine, and passes.
	ladder := filepath.Join(t.TempDir(), "ladder.json")
	if code := run([]string{"-out", ladder}, strings.NewReader(ladderRun(1, 1, 1, 1)), &bytes.Buffer{}, &bytes.Buffer{}); code != 0 {
		t.Fatal("ladder baseline write failed")
	}
	work := []string{"-diff", ladder, "-gate", "10", "-work", "probes/op"}
	stdout.Reset()
	if code := run(work, strings.NewReader(ladderRun(1, 2, 1, 1)), &stdout, &bytes.Buffer{}); code != 3 {
		t.Fatalf("one rung 2× slower = %d, want 3:\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "GATE BenchmarkRung1-8 ns/op") || strings.Count(stdout.String(), "GATE ") != 1 {
		t.Errorf("want one GATE line, for BenchmarkRung1:\n%s", stdout.String())
	}
	stdout.Reset()
	if code := run(work, strings.NewReader(ladderRun(1.5, 1.5, 1.5, 1.5)), &stdout, &bytes.Buffer{}); code != 0 {
		t.Fatalf("uniformly 1.5× slower = %d, want 0:\n%s", code, stdout.String())
	}
	if strings.Count(stdout.String(), "NOISE ") != 4 {
		t.Errorf("want four excused rungs:\n%s", stdout.String())
	}

	// -gate without -diff is a usage error.
	if code := run([]string{"-gate", "10"}, strings.NewReader(runB), &bytes.Buffer{}, &bytes.Buffer{}); code != 2 {
		t.Fatal("-gate without -diff accepted")
	}
}

// ladderRun renders a four-rung run whose rung i takes slow[i] times
// 1000 ns/op with an unchanged probes/op work counter.
func ladderRun(slow ...float64) string {
	var b strings.Builder
	b.WriteString("goos: linux\npkg: mmwave\n")
	for i, f := range slow {
		fmt.Fprintf(&b, "BenchmarkRung%d-8   10   %g ns/op   %d probes/op\n", i, 1000*f, 100*(i+1))
	}
	b.WriteString("PASS\n")
	return b.String()
}

// TestRunGateComparesNothing: a gate whose -match selects no benchmark
// present in both the baseline and the run fails with exit code 4
// rather than passing vacuously — whether the selection is empty in
// the run (BenchmarkNew is not in the baseline) or the names differ
// only by the -N GOMAXPROCS suffix `go test` appends.
func TestRunGateComparesNothing(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base.json")
	if code := run([]string{"-out", base}, strings.NewReader(runA), &bytes.Buffer{}, &bytes.Buffer{}); code != 0 {
		t.Fatal("baseline write failed")
	}
	var stderr bytes.Buffer
	if code := run([]string{"-diff", base, "-gate", "10", "-match", "BenchmarkNew"}, strings.NewReader(runB), &bytes.Buffer{}, &stderr); code != 4 {
		t.Fatalf("gate over no shared benchmark = %d, want 4; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "compared no benchmark") {
		t.Errorf("stderr = %q", stderr.String())
	}

	suffixed := strings.ReplaceAll(runA, "-8 ", "-2 ")
	if code := run([]string{"-diff", base, "-gate", "10"}, strings.NewReader(suffixed), &bytes.Buffer{}, &bytes.Buffer{}); code != 4 {
		t.Fatalf("gate over suffix-mismatched names = %d, want 4", code)
	}

	// Without -gate a diff that shares nothing is still only a report.
	if code := run([]string{"-diff", base}, strings.NewReader(suffixed), &bytes.Buffer{}, &bytes.Buffer{}); code != 0 {
		t.Fatalf("report-only diff = %d, want 0", code)
	}
}

// Work-counter baseline: both benchmarks regress +100% in ns/op in the
// runs below, but BenchmarkLP reports a deterministic pivots/op counter
// while BenchmarkIO reports none of the listed work metrics.
const runWorkBase = `goos: linux
pkg: mmwave
BenchmarkLP-8   3   100000 ns/op   500.0 pivots/op   12 masters/op
BenchmarkIO-8   3   100000 ns/op   64 B/op
PASS
`

const runWorkNoise = `goos: linux
pkg: mmwave
BenchmarkLP-8   3   200000 ns/op   500.0 pivots/op   12 masters/op
PASS
`

const runWorkReal = `goos: linux
pkg: mmwave
BenchmarkLP-8   3   200000 ns/op   900.0 pivots/op   12 masters/op
BenchmarkIO-8   3   200000 ns/op   64 B/op
PASS
`

func TestRunGateWorkCounters(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base.json")
	if code := run([]string{"-out", base}, strings.NewReader(runWorkBase), &bytes.Buffer{}, &bytes.Buffer{}); code != 0 {
		t.Fatal("baseline write failed")
	}

	// Unchanged work counters excuse the ns/op regression: the same
	// algorithmic walk cannot be slower, so it's co-tenant noise.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-diff", base, "-gate", "10", "-work", "pivots/op,masters/op"},
		strings.NewReader(runWorkNoise), &stdout, &stderr); code != 0 {
		t.Fatalf("noise run = %d, want 0; stderr: %s\n%s", code, stderr.String(), stdout.String())
	}
	if !strings.Contains(stdout.String(), "NOISE BenchmarkLP-8 ns/op") ||
		!strings.Contains(stdout.String(), "2 work metric(s) unchanged") {
		t.Errorf("excused regression not logged:\n%s", stdout.String())
	}

	// Without -work the same run fails: the excusal is opt-in.
	if code := run([]string{"-diff", base, "-gate", "10"},
		strings.NewReader(runWorkNoise), &bytes.Buffer{}, &bytes.Buffer{}); code != 3 {
		t.Fatal("regression passed the gate without -work")
	}

	// A changed counter means the walk itself regressed — still gated.
	// BenchmarkIO shares no listed work metric, so it is gated too (one
	// matching unit in only one of the two runs proves nothing).
	stdout.Reset()
	if code := run([]string{"-diff", base, "-gate", "10", "-work", "pivots/op,masters/op"},
		strings.NewReader(runWorkReal), &stdout, &bytes.Buffer{}); code != 3 {
		t.Fatalf("real regression = %d, want 3:\n%s", code, stdout.String())
	}
	for _, want := range []string{"GATE BenchmarkLP-8 ns/op", "GATE BenchmarkIO-8 ns/op"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("gate output missing %q:\n%s", want, stdout.String())
		}
	}
}

// A -count=3 style run: BenchmarkSolve repeats with one noisy outlier
// (300000 ns/op). min-of-N keeps the 101000 floor — within a 10% gate
// of runA's 100000 baseline — while gating the raw run would fail.
const runCount = `goos: linux
pkg: mmwave
BenchmarkSolve/links=10-8   3   300000 ns/op   500 B/op
BenchmarkSolve/links=10-8   3   101000 ns/op   500 B/op
BenchmarkSolve/links=10-8   3   150000 ns/op   500 B/op
PASS
`

func TestRunReduceMin(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base.json")
	if code := run([]string{"-out", base}, strings.NewReader(runA), &bytes.Buffer{}, &bytes.Buffer{}); code != 0 {
		t.Fatal("baseline write failed")
	}

	// Without reduction the first (outlier) repetition trips the gate.
	if code := run([]string{"-diff", base, "-gate", "10"}, strings.NewReader(runCount), &bytes.Buffer{}, &bytes.Buffer{}); code != 3 {
		t.Fatalf("unreduced noisy run = %d, want 3", code)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-reduce", "min", "-diff", base, "-gate", "10"}, strings.NewReader(runCount), &stdout, &stderr); code != 0 {
		t.Fatalf("min-reduced gate = %d, stderr: %s\n%s", code, stderr.String(), stdout.String())
	}
	if !strings.Contains(stdout.String(), "100000 → 101000") {
		t.Errorf("diff should compare against the per-run minimum:\n%s", stdout.String())
	}

	// -out with -reduce min writes a single collapsed entry.
	reduced := filepath.Join(t.TempDir(), "reduced.json")
	if code := run([]string{"-reduce", "min", "-out", reduced}, strings.NewReader(runCount), &bytes.Buffer{}, &bytes.Buffer{}); code != 0 {
		t.Fatal("reduced baseline write failed")
	}
	data, err := os.ReadFile(reduced)
	if err != nil {
		t.Fatal(err)
	}
	var doc benchparse.Document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 1 || doc.Benchmarks[0].Metrics["ns/op"] != 101000 {
		t.Errorf("reduced document: %+v", doc.Benchmarks)
	}

	// Unknown reduce mode is a usage error.
	if code := run([]string{"-reduce", "median"}, strings.NewReader(runCount), &bytes.Buffer{}, &bytes.Buffer{}); code != 2 {
		t.Fatal("unknown -reduce mode accepted")
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	var stderr bytes.Buffer
	if code := run(nil, strings.NewReader("PASS\n"), &bytes.Buffer{}, &stderr); code == 0 {
		t.Fatal("empty benchmark input accepted")
	}
	if !strings.Contains(stderr.String(), "no benchmark lines") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

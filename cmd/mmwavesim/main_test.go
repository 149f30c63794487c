package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmwave/internal/obs"
)

func TestRunPrintConfig(t *testing.T) {
	if code := run([]string{"-print-config"}); code != 0 {
		t.Errorf("exit code = %d, want 0", code)
	}
}

func TestRunMissingFigure(t *testing.T) {
	if code := run(nil); code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if code := run([]string{"-fig", "99"}); code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
}

func TestRunBadFlag(t *testing.T) {
	if code := run([]string{"-nope"}); code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
}

func TestRunBadSweep(t *testing.T) {
	if code := run([]string{"-fig", "1", "-sweep", "5,banana"}); code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
}

func TestRunBadInterference(t *testing.T) {
	if code := run([]string{"-fig", "1", "-interference", "psychic", "-seeds", "1", "-sweep", "3"}); code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
}

func TestRunFig1Tiny(t *testing.T) {
	args := []string{"-fig", "1", "-seeds", "1", "-sweep", "3", "-channels", "2", "-budget", "500"}
	if code := run(args); code != 0 {
		t.Errorf("exit code = %d, want 0", code)
	}
	if code := run(append(args, "-csv")); code != 0 {
		t.Errorf("csv exit code = %d, want 0", code)
	}
}

func TestRunFig4Tiny(t *testing.T) {
	if code := run([]string{"-fig", "4", "-links", "4", "-channels", "2", "-budget", "100000"}); code != 0 {
		t.Errorf("exit code = %d, want 0", code)
	}
}

func TestRunStreamingTiny(t *testing.T) {
	if code := run([]string{"-fig", "streaming", "-links", "3", "-channels", "2", "-budget", "500"}); code != 0 {
		t.Errorf("exit code = %d, want 0", code)
	}
}

func TestRunRelayTiny(t *testing.T) {
	if code := run([]string{"-fig", "relay", "-links", "4", "-channels", "2", "-seeds", "2", "-budget", "500"}); code != 0 {
		t.Errorf("exit code = %d, want 0", code)
	}
}

func TestRunBlockageTiny(t *testing.T) {
	if code := run([]string{"-fig", "blockage", "-links", "4", "-channels", "2", "-seeds", "2", "-budget", "500"}); code != 0 {
		t.Errorf("exit code = %d, want 0", code)
	}
}

func TestRunQualityTiny(t *testing.T) {
	if code := run([]string{"-fig", "quality", "-links", "3", "-channels", "2", "-seeds", "1", "-sweep", "0.5", "-budget", "500"}); code != 0 {
		t.Errorf("exit code = %d, want 0", code)
	}
}

func TestRunAblationTiny(t *testing.T) {
	if code := run([]string{"-fig", "ablation", "-links", "4", "-channels", "2", "-seeds", "1", "-budget", "500"}); code != 0 {
		t.Errorf("exit code = %d, want 0", code)
	}
}

func TestRunFaultSweepTiny(t *testing.T) {
	args := []string{"-fig", "faultsweep", "-links", "4", "-channels", "2", "-seeds", "2",
		"-epochs", "2", "-sweep", "0,0.2", "-budget", "500", "-fail", "0@0+3"}
	if code := run(args); code != 0 {
		t.Errorf("exit code = %d, want 0", code)
	}
	if code := run(append(args, "-csv")); code != 0 {
		t.Errorf("csv exit code = %d, want 0", code)
	}
}

func TestRunFaultSweepBadFailSpec(t *testing.T) {
	if code := run([]string{"-fig", "faultsweep", "-links", "4", "-fail", "banana"}); code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
}

func TestRunFigHelp(t *testing.T) {
	if code := run([]string{"-fig", "help"}); code != 0 {
		t.Errorf("exit code = %d, want 0", code)
	}
}

func TestRunBadFailSpecAnyFigure(t *testing.T) {
	if code := run([]string{"-fig", "1", "-fail", "banana"}); code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
}

func TestRunTraceAndMetrics(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	metricsPath := filepath.Join(dir, "metrics.txt")
	args := []string{"-fig", "1", "-seeds", "1", "-sweep", "3", "-channels", "2",
		"-budget", "500", "-trace", tracePath, "-metrics", metricsPath}
	if code := run(args); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.DecodeJSONL(f)
	if err != nil {
		t.Fatalf("trace is not valid JSONL: %v", err)
	}
	if len(events) == 0 {
		t.Error("trace is empty")
	}
	iters := 0
	for _, e := range events {
		if e.Name == "cg.iteration" {
			iters++
		}
	}
	if iters == 0 {
		t.Error("trace has no cg.iteration events")
	}

	exp, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"core_master_solves_total", "experiment_cell_seconds_count"} {
		if !strings.Contains(string(exp), want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
}

func TestRunBadTracePath(t *testing.T) {
	if code := run([]string{"-fig", "1", "-trace", filepath.Join(t.TempDir(), "no", "such", "dir", "t.jsonl")}); code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
}

// TestRunInterrupted: a campaign started with an already-canceled
// context (the moral equivalent of an immediate SIGINT) must exit
// nonzero but still flush its artifact files.
func TestRunInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	metricsPath := filepath.Join(t.TempDir(), "metrics.txt")
	args := []string{"-fig", "1", "-seeds", "1", "-sweep", "3", "-channels", "2", "-metrics", metricsPath}
	if code := runCtx(ctx, args, io.Discard); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if _, err := os.Stat(metricsPath); err != nil {
		t.Errorf("interrupted run did not flush the metrics artifact: %v", err)
	}
}

// TestRunChaosSoakTiny exercises the chaossoak figure end to end at a
// small scale.
func TestRunChaosSoakTiny(t *testing.T) {
	if code := run([]string{"-fig", "chaossoak", "-cells", "2", "-epochs", "8"}); code != 0 {
		t.Errorf("exit code = %d, want 0", code)
	}
}

// TestFiguresMatchResults regenerates the recorded figures that run in
// seconds and compares each byte for byte with its file under
// results/, so a change that moves a solver walk must regenerate the
// golden it moves.
func TestFiguresMatchResults(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates five figures (several seconds)")
	}
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"fig4.txt", []string{"-fig", "4"}},
		{"ablation.txt", []string{"-fig", "ablation", "-links", "15", "-seeds", "20"}},
		{"blockage.txt", []string{"-fig", "blockage"}},
		{"relay.txt", []string{"-fig", "relay"}},
		{"streaming.txt", []string{"-fig", "streaming"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "results", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if code := runCtx(context.Background(), tc.args, &got); code != 0 {
				t.Fatalf("mmwavesim %s: exit code %d", strings.Join(tc.args, " "), code)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("mmwavesim %s differs from results/%s:\n got:\n%s\nwant:\n%s",
					strings.Join(tc.args, " "), tc.golden, got.Bytes(), want)
			}
		})
	}
}

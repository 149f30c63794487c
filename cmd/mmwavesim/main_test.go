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

// TestRunInterruptedRendersNothing: an interrupted campaign prints no
// figure, also from the drivers that run their solves outside the
// sweep harness and would finish on truncated plans.
func TestRunInterruptedRendersNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, fig := range []string{"1", "4", "streaming"} {
		var out bytes.Buffer
		args := []string{"-fig", fig, "-links", "4", "-channels", "2", "-seeds", "1", "-sweep", "4", "-budget", "500"}
		if code := runCtx(ctx, args, &out); code != 1 {
			t.Errorf("-fig %s: exit code = %d, want 1", fig, code)
		}
		if out.Len() != 0 {
			t.Errorf("-fig %s: interrupted run rendered:\n%s", fig, out.String())
		}
	}
}

// TestRunChaosSoakTiny exercises the chaossoak figure end to end at a
// small scale.
func TestRunChaosSoakTiny(t *testing.T) {
	if code := run([]string{"-fig", "chaossoak", "-cells", "2", "-epochs", "8"}); code != 0 {
		t.Errorf("exit code = %d, want 0", code)
	}
}

// TestRunChaosSoakChannels: an explicit -channels reaches the soak's
// cells instead of being overwritten by the soak's reduced default of
// 2 channels, and naming that default explicitly changes nothing.
func TestRunChaosSoakChannels(t *testing.T) {
	digest := func(extra ...string) string {
		t.Helper()
		args := append([]string{"-fig", "chaossoak", "-cells", "2", "-epochs", "4"}, extra...)
		var out bytes.Buffer
		if code := runCtx(context.Background(), args, &out); code != 0 {
			t.Fatalf("mmwavesim %s: exit code %d", strings.Join(args, " "), code)
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "digest:") {
				return line
			}
		}
		t.Fatalf("mmwavesim %s printed no digest:\n%s", strings.Join(args, " "), out.String())
		return ""
	}
	def := digest()
	if got := digest("-channels", "2"); got != def {
		t.Errorf("-channels 2 (the default) changed the soak: %q vs %q", got, def)
	}
	if got := digest("-channels", "3"); got == def {
		t.Errorf("-channels 3 ignored: digest %q equals the 2-channel default", got)
	}
}

// TestFiguresMatchResults regenerates the recorded figures that run in
// seconds and compares each byte for byte with its file under
// results/ or testdata/, so a change that moves a solver walk must
// regenerate the golden it moves.
func TestFiguresMatchResults(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates twelve figures (several seconds)")
	}
	for _, tc := range []struct {
		golden string // relative to this package
		args   []string
	}{
		{"../../results/fig4.txt", []string{"-fig", "4"}},
		{"../../results/ablation.txt", []string{"-fig", "ablation", "-links", "15", "-seeds", "20"}},
		{"../../results/blockage.txt", []string{"-fig", "blockage"}},
		{"../../results/relay.txt", []string{"-fig", "relay"}},
		{"../../results/streaming.txt", []string{"-fig", "streaming"}},
		// Reduced-scale runs of the sweep figures and the studies that
		// are too slow to record at full scale.
		{"testdata/fig1-reduced.txt", []string{"-fig", "1", "-sweep", "6,10", "-seeds", "4"}},
		{"testdata/fig2-reduced.txt", []string{"-fig", "2", "-links", "8", "-seeds", "4"}},
		{"testdata/fig3-reduced.txt", []string{"-fig", "3", "-sweep", "6,10", "-seeds", "4"}},
		{"testdata/quality-reduced.txt", []string{"-fig", "quality", "-links", "8", "-seeds", "4"}},
		{"testdata/faultsweep-reduced.txt", []string{"-fig", "faultsweep", "-links", "8", "-seeds", "3"}},
		{"testdata/warmreuse-reduced.txt", []string{"-fig", "warmreuse", "-links", "8", "-seeds", "3"}},
		{"testdata/slices-reduced.txt", []string{"-fig", "slices"}},
	} {
		t.Run(filepath.Base(tc.golden), func(t *testing.T) {
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if code := runCtx(context.Background(), tc.args, &got); code != 0 {
				t.Fatalf("mmwavesim %s: exit code %d", strings.Join(tc.args, " "), code)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("mmwavesim %s differs from %s:\n got:\n%s\nwant:\n%s",
					strings.Join(tc.args, " "), tc.golden, got.Bytes(), want)
			}
		})
	}
}

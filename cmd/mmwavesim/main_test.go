package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmwave/internal/experiment"
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
// sweep harness and would finish on truncated plans, and an interrupted
// -record run writes nothing into its directory.
func TestRunInterruptedRendersNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	scale := []string{"-links", "4", "-channels", "2", "-seeds", "1", "-sweep", "4", "-budget", "500"}
	for _, fig := range []string{"1", "4", "streaming"} {
		var out bytes.Buffer
		args := append([]string{"-fig", fig}, scale...)
		if code := runCtx(ctx, args, &out); code != 1 {
			t.Errorf("-fig %s: exit code = %d, want 1", fig, code)
		}
		if out.Len() != 0 {
			t.Errorf("-fig %s: interrupted run rendered:\n%s", fig, out.String())
		}
	}

	dir := t.TempDir()
	old := filepath.Join(dir, "fig1.txt")
	if err := os.WriteFile(old, []byte("recorded earlier\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := runCtx(ctx, append([]string{"-record", dir}, scale...), &out); code != 1 {
		t.Errorf("-record: exit code = %d, want 1", code)
	}
	if out.Len() != 0 {
		t.Errorf("-record: interrupted run printed:\n%s", out.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("-record: interrupted run left %d files in its directory, want the 1 it found", len(entries))
	}
	if data, err := os.ReadFile(old); err != nil || string(data) != "recorded earlier\n" {
		t.Errorf("-record: interrupted run changed an existing file: %q, %v", data, err)
	}
}

// TestRunRecordTiny: one -record run writes every recorded file, and
// Figs. 1 and 3, drawn from one link sweep, print exactly what -fig 1
// and -fig 3 print under the same flags.
func TestRunRecordTiny(t *testing.T) {
	dir := t.TempDir()
	scale := []string{"-links", "4", "-channels", "2", "-seeds", "2", "-sweep", "3,4", "-budget", "500"}
	if code := run(append([]string{"-record", dir}, scale...)); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 15 {
		t.Errorf("-record wrote %d files, want 15", len(entries))
	}
	for _, fig := range []string{"1", "3"} {
		var want bytes.Buffer
		if code := runCtx(context.Background(), append([]string{"-fig", fig}, scale...), &want); code != 0 {
			t.Fatalf("-fig %s: exit code %d", fig, code)
		}
		got, err := os.ReadFile(filepath.Join(dir, "fig"+fig+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("recorded fig%s.txt differs from -fig %s:\n got:\n%s\nwant:\n%s", fig, fig, got, want.Bytes())
		}
	}
}

func TestRunRecordWithFigure(t *testing.T) {
	if code := run([]string{"-record", t.TempDir(), "-fig", "1"}); code != 2 {
		t.Errorf("exit code = %d, want 2", code)
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
// regenerate the golden it moves. The results/ entries are the -record
// set's campaigns that run at a reduced default scale; the paper-scale
// sweeps (Figs. 1–3) take minutes and are checked by make
// figures-check.
func TestFiguresMatchResults(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates thirteen figures (several seconds)")
	}
	type golden struct {
		path string // relative to this package
		args []string
	}
	var goldens []golden
	for _, rec := range experiment.Recordings() {
		if d, _ := experiment.Lookup(rec.Driver); d.Scale != (experiment.Scale{}) {
			goldens = append(goldens, golden{"../../results/" + rec.File, []string{"-fig", rec.Driver}})
		}
	}
	goldens = append(goldens,
		// Reduced-scale runs of the sweep figures and the studies that
		// are too slow to record at full scale.
		golden{"testdata/fig1-reduced.txt", []string{"-fig", "1", "-sweep", "6,10", "-seeds", "4"}},
		golden{"testdata/fig2-reduced.txt", []string{"-fig", "2", "-links", "8", "-seeds", "4"}},
		golden{"testdata/fig3-reduced.txt", []string{"-fig", "3", "-sweep", "6,10", "-seeds", "4"}},
		golden{"testdata/quality-reduced.txt", []string{"-fig", "quality", "-links", "8", "-seeds", "4"}},
		golden{"testdata/faultsweep-reduced.txt", []string{"-fig", "faultsweep", "-links", "8", "-seeds", "3"}},
		golden{"testdata/warmreuse-reduced.txt", []string{"-fig", "warmreuse", "-links", "8", "-seeds", "3"}},
		golden{"testdata/slices-reduced.txt", []string{"-fig", "slices"}},
	)
	for _, tc := range goldens {
		t.Run(filepath.Base(tc.path), func(t *testing.T) {
			want, err := os.ReadFile(tc.path)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if code := runCtx(context.Background(), tc.args, &got); code != 0 {
				t.Fatalf("mmwavesim %s: exit code %d", strings.Join(tc.args, " "), code)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("mmwavesim %s differs from %s:\n got:\n%s\nwant:\n%s",
					strings.Join(tc.args, " "), tc.path, got.Bytes(), want)
			}
		})
	}
}

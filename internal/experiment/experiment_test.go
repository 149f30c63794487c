package experiment

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"mmwave/internal/geom"
	"mmwave/internal/stats"
)

// fastConfig returns a reduced-scale config for test runtime.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.NumLinks = 5
	cfg.NumChannels = 2
	cfg.Seeds = 2
	cfg.PricerBudget = 2000
	return cfg
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"default", func(*Config) {}, false},
		{"zero links", func(c *Config) { c.NumLinks = 0 }, true},
		{"zero channels", func(c *Config) { c.NumChannels = 0 }, true},
		{"zero pmax", func(c *Config) { c.PMax = 0 }, true},
		{"zero noise", func(c *Config) { c.Noise = 0 }, true},
		{"zero bandwidth", func(c *Config) { c.BandwidthHz = 0 }, true},
		{"no gammas", func(c *Config) { c.Gammas = nil }, true},
		{"zero slot", func(c *Config) { c.SlotDuration = 0 }, true},
		{"negative demand", func(c *Config) { c.DemandScale = -1 }, true},
		{"zero seeds", func(c *Config) { c.Seeds = 0 }, true},
		{"bad interference", func(c *Config) { c.Interference = "psychic" }, true},
		{"per-channel ok", func(c *Config) { c.Interference = "per-channel" }, false},
		{"bad trace", func(c *Config) { c.Trace.FPS = 0 }, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			if err := cfg.Validate(); (err != nil) != tc.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestDefaultConfigMatchesTableI(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.NumLinks != 30 || cfg.NumChannels != 5 {
		t.Errorf("‖L‖=%d ‖K‖=%d, want 30/5", cfg.NumLinks, cfg.NumChannels)
	}
	if cfg.PMax != 1 || cfg.Noise != 0.1 || cfg.BandwidthHz != 200e6 {
		t.Error("power/noise/bandwidth do not match Table I")
	}
	want := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	for i, g := range cfg.Gammas {
		if g != want[i] {
			t.Fatalf("Γ = %v, want %v", cfg.Gammas, want)
		}
	}
	if cfg.Seeds != 50 {
		t.Errorf("Seeds = %d, want 50 (the paper's repetitions)", cfg.Seeds)
	}
	if cfg.Trace.MeanRate != 171.44e6 {
		t.Errorf("trace rate = %v, want 171.44 Mb/s", cfg.Trace.MeanRate)
	}
	if !strings.Contains(cfg.String(), "L=30") {
		t.Error("String() missing link count")
	}
}

func TestNewInstanceDeterministic(t *testing.T) {
	cfg := fastConfig()
	a, err := NewInstance(cfg, stats.Fork(cfg.Seed, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInstance(cfg, stats.Fork(cfg.Seed, 3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Network.NumLinks() != b.Network.NumLinks() {
		t.Fatal("instance shapes differ")
	}
	for l := 0; l < a.Network.NumLinks(); l++ {
		if a.Demands[l].At(0) != b.Demands[l].At(0) || a.Demands[l].At(1) != b.Demands[l].At(1) {
			t.Fatal("demands differ for identical seeds")
		}
		for k := 0; k < a.Network.NumChannels; k++ {
			if a.Network.Gains.Direct[l][k] != b.Network.Gains.Direct[l][k] {
				t.Fatal("gains differ for identical seeds")
			}
		}
	}
}

func TestRunOnceAllAlgorithms(t *testing.T) {
	cfg := fastConfig()
	for _, algo := range append(AllAlgorithms(), TDMA) {
		res, err := RunOnce(cfg, algo, 0)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if res.Exec.TotalTime <= 0 {
			t.Errorf("%s: nonpositive total time", algo)
		}
		if (res.Solver != nil) != (algo == Proposed) {
			t.Errorf("%s: solver result presence wrong", algo)
		}
	}
	if _, err := RunOnce(cfg, Algorithm("nope"), 0); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestProposedNeverWorseThanBenchmarks(t *testing.T) {
	cfg := fastConfig()
	cfg.NumLinks = 6
	for rep := 0; rep < 3; rep++ {
		rng := stats.Fork(cfg.Seed, int64(rep))
		inst, err := NewInstance(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		prop, err := RunOn(cfg, Proposed, inst)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []Algorithm{Benchmark1, Benchmark2, TDMA} {
			other, err := RunOn(cfg, algo, inst)
			if err != nil {
				t.Fatal(err)
			}
			// Slot quantization grants one slot of slack per plan entry.
			slack := float64(len(prop.Solver.Plan.Schedules)+1) * cfg.SlotDuration
			if prop.Exec.TotalTime > other.Exec.TotalTime+slack {
				t.Errorf("rep %d: proposed %v worse than %s %v",
					rep, prop.Exec.TotalTime, algo, other.Exec.TotalTime)
			}
		}
	}
}

func TestFig1Shape(t *testing.T) {
	cfg := fastConfig()
	fig, _, err := LinkSweep(cfg, []float64{4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig1" || len(fig.Series) != 3 {
		t.Fatalf("figure shape wrong: %+v", fig)
	}
	for _, s := range fig.Series {
		if len(s.Points) != 2 {
			t.Fatalf("series %s has %d points, want 2", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Mean <= 0 || p.N != cfg.Seeds {
				t.Errorf("series %s point %+v invalid", s.Name, p)
			}
		}
	}
}

func TestFig2DemandMonotone(t *testing.T) {
	cfg := fastConfig()
	fig, err := Fig2(cfg, []float64{0.5, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		if s.Points[1].Mean <= s.Points[0].Mean {
			t.Errorf("series %s: delay did not grow with demand (%v → %v)",
				s.Name, s.Points[0].Mean, s.Points[1].Mean)
		}
	}
}

func TestFig3Range(t *testing.T) {
	cfg := fastConfig()
	_, fig, err := LinkSweep(cfg, []float64{4})
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig3" || len(fig.Series) != 3 {
		t.Fatalf("figure shape wrong: %+v", fig)
	}
	for _, s := range fig.Series {
		for _, p := range s.Points {
			if p.Mean < 0 || p.Mean > 1+1e-9 {
				t.Errorf("series %s fairness %v outside [0,1]", s.Name, p.Mean)
			}
		}
	}
}

func TestFig4Convergence(t *testing.T) {
	cfg := fastConfig()
	cfg.NumLinks = 5
	cfg.PricerBudget = 10_000_000
	conv, err := Fig4(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := len(conv.Iter)
	if n == 0 {
		t.Fatal("no convergence trace")
	}
	for i := 1; i < n; i++ {
		if conv.Upper[i] > conv.Upper[i-1]*(1+1e-9) {
			t.Errorf("upper bound increased at iter %d", i)
		}
		if conv.Lower[i] < conv.Lower[i-1]-1e-9 {
			t.Errorf("best lower bound decreased at iter %d", i)
		}
	}
	if last := conv.Phi[n-1]; last < -1e-6 {
		t.Errorf("final Φ = %v, want ≥ 0", last)
	}
	if gap := conv.Upper[n-1] - conv.Lower[n-1]; math.Abs(gap) > 1e-6*conv.Upper[n-1] {
		t.Errorf("final gap %v not closed", gap)
	}
}

func TestAblationRuns(t *testing.T) {
	cfg := fastConfig()
	cfg.Seeds = 1
	fig, err := Ablation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != len(AllAblations()) {
		t.Fatalf("ablation series = %d, want %d", len(fig.Series), len(AllAblations()))
	}
	byName := map[string]float64{}
	for _, s := range fig.Series {
		if len(s.Points) != 1 || s.Points[0].Mean <= 0 {
			t.Fatalf("ablation %s malformed", s.Name)
		}
		byName[s.Name] = s.Points[0].Mean
	}
	// Removing capability can't help: single channel and fixed power
	// must be no better than the full scheme (tolerating pricing noise
	// of a couple slot durations).
	slack := 5 * cfg.SlotDuration
	if byName[string(AblationSingleChan)]+slack < byName[string(AblationFull)] {
		t.Errorf("single-channel %v beats full %v", byName[string(AblationSingleChan)], byName[string(AblationFull)])
	}
}

func TestRenderFormats(t *testing.T) {
	cfg := fastConfig()
	cfg.Seeds = 1
	fig, _, err := LinkSweep(cfg, []float64{4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Render(&buf, fig); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "FIG1") || !strings.Contains(out, "proposed") {
		t.Errorf("Render output missing headers: %q", out)
	}

	buf.Reset()
	if err := RenderCSV(&buf, fig); err != nil {
		t.Fatal(err)
	}
	csv := buf.String()
	if !strings.HasPrefix(csv, "x,proposed_mean,proposed_ci95") {
		t.Errorf("CSV header wrong: %q", csv)
	}
	if lines := strings.Count(csv, "\n"); lines != 2 {
		t.Errorf("CSV lines = %d, want 2", lines)
	}

	conv := &Convergence{Iter: []int{0}, Upper: []float64{1}, Lower: []float64{0.5}, Phi: []float64{-1}}
	buf.Reset()
	if err := RenderConvergence(&buf, conv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FIG4") {
		t.Error("convergence render missing header")
	}
}

func TestSweepValidatesConfig(t *testing.T) {
	cfg := fastConfig()
	if _, _, err := LinkSweep(cfg, []float64{0}); err == nil {
		t.Error("zero-link sweep value accepted")
	}
}

func TestRunBlockage(t *testing.T) {
	bc := DefaultBlockageConfig()
	bc.Net.NumLinks = 5
	bc.Net.NumChannels = 2
	bc.Net.Seeds = 2
	bc.Net.PricerBudget = 1500
	bc.Epochs = 4
	res, err := RunBlockage(bc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reoptimized.N != bc.Net.Seeds*bc.Epochs {
		t.Errorf("reoptimized samples = %d, want %d", res.Reoptimized.N, bc.Net.Seeds*bc.Epochs)
	}
	if res.Static.N+res.Unserved != bc.Net.Seeds*bc.Epochs {
		t.Errorf("static samples %d + unserved %d ≠ %d", res.Static.N, res.Unserved, bc.Net.Seeds*bc.Epochs)
	}
	// Re-optimization adapts to blockage; replaying a stale plan can
	// only waste time (or fail outright).
	if res.Static.N > 0 && res.Reoptimized.Mean > res.Static.Mean*1.05 {
		t.Errorf("reoptimized mean %v worse than static %v", res.Reoptimized.Mean, res.Static.Mean)
	}
	if res.BlockedFrac.Mean < 0 || res.BlockedFrac.Mean > 1 {
		t.Errorf("blocked fraction %v outside [0,1]", res.BlockedFrac.Mean)
	}
}

func TestRunBlockageValidation(t *testing.T) {
	bc := DefaultBlockageConfig()
	bc.Epochs = 0
	if _, err := RunBlockage(bc); err == nil {
		t.Error("zero epochs accepted")
	}
	bc = DefaultBlockageConfig()
	bc.Model.PBlock = 7
	if _, err := RunBlockage(bc); err == nil {
		t.Error("invalid model accepted")
	}
	bc = DefaultBlockageConfig()
	bc.Net.NumLinks = 0
	if _, err := RunBlockage(bc); err == nil {
		t.Error("invalid net config accepted")
	}
}

func TestFigQuality(t *testing.T) {
	cfg := fastConfig()
	fig, err := FigQuality(cfg, []float64{0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d, want 4", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != 2 {
			t.Fatalf("series %s has %d points", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Mean <= 0 || p.Mean > 100 {
				t.Errorf("series %s PSNR %v implausible", s.Name, p.Mean)
			}
		}
	}
	byName := map[string][]Point{}
	for _, s := range fig.Series {
		byName[s.Name] = s.Points
	}
	// Quality-aware allocation can never lose to truncating the
	// min-time plan on the same instances (it optimizes the metric).
	for i := range byName["proposed-quality"] {
		if byName["proposed-quality"][i].Mean < byName["p1-truncated"][i].Mean-0.3 {
			t.Errorf("point %d: quality mode %v well below p1-truncated %v",
				i, byName["proposed-quality"][i].Mean, byName["p1-truncated"][i].Mean)
		}
	}
}

func TestRunRelay(t *testing.T) {
	rc := DefaultRelayConfig()
	rc.Net.NumLinks = 5
	rc.Net.NumChannels = 2
	rc.Net.Seeds = 2
	rc.Net.PricerBudget = 1500
	rc.BlockedFrac = 0.4 // 2 of 5 sessions blocked
	res, err := RunRelay(rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedFracNoRelay.Mean >= 1 {
		t.Errorf("deferred arm served %v, expected < 1 with blocked sessions", res.ServedFracNoRelay.Mean)
	}
	if res.Relayed.Mean <= 0 {
		t.Error("no sessions relayed")
	}
	// Serving strictly more demand takes at least as long.
	if res.TimeWithRelay.Mean < res.TimeNoRelay.Mean-1e-9 {
		t.Errorf("relay arm %v faster than deferred arm %v despite more work",
			res.TimeWithRelay.Mean, res.TimeNoRelay.Mean)
	}
}

func TestRunRelayValidation(t *testing.T) {
	rc := DefaultRelayConfig()
	rc.BlockedFrac = 2
	if _, err := RunRelay(rc); err == nil {
		t.Error("bad fraction accepted")
	}
	rc = DefaultRelayConfig()
	rc.Relays = -1
	if _, err := RunRelay(rc); err == nil {
		t.Error("negative relay count accepted")
	}
}

func TestRelayGrid(t *testing.T) {
	room := geomRoom()
	if pts := relayGrid(room, 0); pts != nil {
		t.Error("zero relays should yield nil")
	}
	pts := relayGrid(room, 5)
	if len(pts) != 5 {
		t.Fatalf("grid = %d points, want 5", len(pts))
	}
	for _, p := range pts {
		if p.X <= 0 || p.X >= room.Width || p.Y <= 0 || p.Y >= room.Height {
			t.Errorf("relay %v outside the room interior", p)
		}
	}
}

// geomRoom returns the default room for grid tests.
func geomRoom() geom.Room { return DefaultConfig().Room }

func TestDefaultSweeps(t *testing.T) {
	links := DefaultLinkSweep()
	if len(links) != 5 || links[0] != 10 || links[4] != 30 {
		t.Errorf("link sweep = %v, want the paper's {10..30}", links)
	}
	demands := DefaultDemandSweep()
	if len(demands) != 5 || demands[0] != 0.5 || demands[4] != 2.5 {
		t.Errorf("demand sweep = %v", demands)
	}
}

func TestRenderEmptyFigure(t *testing.T) {
	var buf bytes.Buffer
	fig := &Figure{ID: "x", Title: "t", XLabel: "x", YLabel: "y"}
	if err := Render(&buf, fig); err != nil {
		t.Fatal(err)
	}
	if err := RenderCSV(&buf, fig); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "n=0") {
		t.Error("empty figure should render n=0")
	}
}

func TestNewInstanceInvalidConfig(t *testing.T) {
	cfg := fastConfig()
	cfg.NumLinks = 0
	if _, err := NewInstance(cfg, stats.Fork(1, 0)); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestNewInstanceUnservableGainModel(t *testing.T) {
	// Thresholds far above what any Table I draw can reach: instance
	// generation must give up with a clear error instead of looping.
	cfg := fastConfig()
	cfg.Gammas = []float64{1e9}
	if _, err := NewInstance(cfg, stats.Fork(1, 0)); err == nil {
		t.Error("unservable parameterization accepted")
	}
}

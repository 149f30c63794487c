package session

import (
	"context"
	"math/rand"
	"testing"

	"mmwave/internal/channel"
	"mmwave/internal/core"
	"mmwave/internal/geom"
	"mmwave/internal/netmodel"
	"mmwave/internal/video"
	"mmwave/internal/video/trace"
)

// testNetwork draws a servable Table-I instance with Global
// interference (the paper's setting).
func testNetwork(t *testing.T, seed int64, nLinks, nChannels int) *netmodel.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for {
		room := geom.Room{Width: 20, Height: 20}
		segs := room.PlaceLinks(rng, nLinks, 1, 5)
		gains := channel.TableI{}.Generate(rng, segs, nChannels)
		links := make([]netmodel.Link, nLinks)
		noise := make([]float64, nLinks)
		for i := range links {
			links[i] = netmodel.Link{TXNode: 2 * i, RXNode: 2*i + 1, Seg: segs[i]}
			noise[i] = 0.1
		}
		nw := &netmodel.Network{
			Links:        links,
			NumChannels:  nChannels,
			Gains:        gains,
			Noise:        noise,
			PMax:         1,
			Rates:        netmodel.NewShannonRateTable(200e6, []float64{0.1, 0.2, 0.3, 0.4, 0.5}),
			BandwidthHz:  200e6,
			Interference: netmodel.Global,
		}
		ok := true
		for l := 0; l < nLinks && ok; l++ {
			_, sinr := nw.BestSingleLinkChannel(l)
			ok = nw.Rates.BestLevel(sinr) >= 0
		}
		if ok {
			return nw
		}
	}
}

// baseConfig returns a small, fast streaming setup.
func baseConfig(t *testing.T) Config {
	return Config{
		Network: testNetwork(t, 5, 4, 3),
		Session: video.DefaultSession(),
		Trace:   trace.DefaultConfig(),
		GOPs:    4,
		Solver:  core.Options{Pricer: core.NewBranchBoundPricer(2000)},
		Seed:    7,
	}
}

func TestValidate(t *testing.T) {
	good := baseConfig(t)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.Network = nil
	if bad.Validate() == nil {
		t.Error("nil network accepted")
	}
	bad = good
	bad.GOPs = 0
	if bad.Validate() == nil {
		t.Error("zero GOPs accepted")
	}
	bad = good
	bad.Mode = Mode(9)
	if bad.Validate() == nil {
		t.Error("unknown mode accepted")
	}
	bad = good
	bad.Trace.FPS = 0
	if bad.Validate() == nil {
		t.Error("bad trace accepted")
	}
}

func TestMinTimeDeliversEverything(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Mode = MinTime
	m, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.GOPs != cfg.GOPs || m.ScheduleTime.N != cfg.GOPs {
		t.Fatalf("metrics cover %d gops, want %d", m.ScheduleTime.N, cfg.GOPs)
	}
	if m.DeliveredFraction.Mean != 1 {
		t.Errorf("delivered fraction = %v, want 1 in min-time mode", m.DeliveredFraction.Mean)
	}
	// Full HD demand (171 Mb/s) cannot fit a 0.5 s GOP even alone, so
	// this setup must stall.
	if m.StallSeconds <= 0 {
		t.Error("expected stalls under full-rate HD demand")
	}
	if m.OnTime+int(m.StallSeconds*0) > m.GOPs { // OnTime bounded by GOPs
		t.Errorf("OnTime = %d > GOPs", m.OnTime)
	}
}

func TestQualityNeverStalls(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Mode = Quality
	m, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.StallSeconds != 0 {
		t.Errorf("quality mode stalled %v s", m.StallSeconds)
	}
	if m.OnTimeRatio() != 1 {
		t.Errorf("on-time ratio = %v, want 1", m.OnTimeRatio())
	}
	gopDur := cfg.Trace.GOPDuration()
	if m.ScheduleTime.Max > gopDur*(1+1e-9) {
		t.Errorf("schedule time %v exceeds the period %v", m.ScheduleTime.Max, gopDur)
	}
	// Under overload, some bits must be dropped.
	if m.DeliveredFraction.Mean >= 1 {
		t.Errorf("delivered fraction = %v, expected < 1 under overload", m.DeliveredFraction.Mean)
	}
	if m.PSNR.N != cfg.GOPs*cfg.Network.NumLinks() {
		t.Errorf("PSNR samples = %d, want %d", m.PSNR.N, cfg.GOPs*cfg.Network.NumLinks())
	}
}

func TestTradeOff(t *testing.T) {
	// The two modes bracket each other: min-time has perfect delivery
	// but stalls; quality is on-time but delivers less and scores
	// lower PSNR under overload.
	cfg := baseConfig(t)
	cfg.Mode = MinTime
	minTime, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = Quality
	quality, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if minTime.PSNR.Mean < quality.PSNR.Mean-1e-9 {
		t.Errorf("min-time PSNR %v below quality-mode %v (impossible: it delivers strictly more)",
			minTime.PSNR.Mean, quality.PSNR.Mean)
	}
	if quality.StallSeconds > 0 || minTime.StallSeconds == 0 {
		t.Errorf("stall structure wrong: min-time %v, quality %v",
			minTime.StallSeconds, quality.StallSeconds)
	}
}

func TestLightLoadBothModesCoincide(t *testing.T) {
	// With demand far below capacity, min-time finishes early and
	// quality mode delivers everything — same PSNR, no stalls.
	cfg := baseConfig(t)
	cfg.Network = testNetwork(t, 11, 2, 3)
	cfg.Trace.MeanRate = 20e6 // light load
	cfg.GOPs = 3

	cfg.Mode = MinTime
	minTime, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = Quality
	quality, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if minTime.StallSeconds != 0 {
		t.Errorf("light load stalled %v s", minTime.StallSeconds)
	}
	if quality.DeliveredFraction.Mean < 1-1e-6 {
		t.Errorf("light load dropped bits: %v", quality.DeliveredFraction.Mean)
	}
	diff := minTime.PSNR.Mean - quality.PSNR.Mean
	if diff > 1e-6 || diff < -1e-6 {
		t.Errorf("PSNR differs under light load: %v vs %v", minTime.PSNR.Mean, quality.PSNR.Mean)
	}
}

func TestModeString(t *testing.T) {
	if MinTime.String() != "min-time" || Quality.String() != "quality" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode name wrong")
	}
}

func TestOnTimeRatioEmpty(t *testing.T) {
	var m Metrics
	if m.OnTimeRatio() != 0 {
		t.Error("empty metrics ratio should be 0")
	}
}

func TestRunRejectsInvalidConfigUpFront(t *testing.T) {
	cfg := baseConfig(t)
	cfg.GOPs = -1
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Error("invalid config accepted by Run")
	}
}

func TestMetricsAccumulateAcrossGOPs(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Mode = Quality
	cfg.GOPs = 3
	m, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.ScheduleTime.N != 3 || m.DeliveredFraction.N != 3 {
		t.Errorf("per-GOP summaries have %d/%d samples, want 3",
			m.ScheduleTime.N, m.DeliveredFraction.N)
	}
	if m.ScheduleTime.Min <= 0 {
		t.Errorf("schedule time min %v", m.ScheduleTime.Min)
	}
}

func TestTraceStreamsAreIndependentPerLink(t *testing.T) {
	// Two links must not draw identical GOP sequences (they fork the
	// seed per link).
	cfg := baseConfig(t)
	cfg.Mode = Quality
	cfg.GOPs = 1
	m1, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = m1
	// Determinism: same config twice gives identical metrics.
	m2, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m1.PSNR.Mean != m2.PSNR.Mean || m1.ScheduleTime.Mean != m2.ScheduleTime.Mean {
		t.Error("same config produced different metrics")
	}
}

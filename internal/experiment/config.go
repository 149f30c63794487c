// Package experiment reproduces the paper's evaluation (§VI): it
// generates random network instances per Table I, runs the proposed
// column-generation scheduler and the benchmark schemes through the
// slot-level simulator, aggregates repetitions into means with 95%
// confidence intervals, and renders the series behind each figure.
package experiment

import (
	"context"
	"fmt"

	"mmwave/internal/geom"
	"mmwave/internal/obs"
	"mmwave/internal/video"
	"mmwave/internal/video/trace"
)

// Config holds every knob of a simulation campaign. DefaultConfig
// reproduces Table I of the paper.
type Config struct {
	NumLinks    int       // ‖L‖
	NumChannels int       // ‖K‖
	PMax        float64   // W
	Noise       float64   // ρ, W
	BandwidthHz float64   // W (channel bandwidth)
	Gammas      []float64 // SINR threshold vector Γ

	SlotDuration float64 // seconds per time slot

	Room       geom.Room // deployment area for link placement
	LinkLenMin float64   // minimum TX–RX distance, m
	LinkLenMax float64   // maximum TX–RX distance, m

	// Interference selects the interference accounting: "global" (the
	// paper's SP formulation, eqs. 26–28 — interference from every
	// concurrent transmitter; reproduces the paper's scaling trends) or
	// "per-channel" (the physical model of eq. 3).
	Interference string

	// DemandScale multiplies every link's per-GOP demand (the Fig. 2
	// sweep variable).
	DemandScale float64

	Video video.Session // rate-quality model and HP share
	Trace trace.Config  // synthetic H.264 trace parameters

	// TrafficClasses widens the drawn instances beyond the paper's
	// HP/LP pair: the network carries this many prioritized classes and
	// each link's GOP demand splits across them (Video.Shares when set,
	// else SliceShares for three classes, else an even split). 0 keeps
	// the two-class default, the byte-identical reproduction path.
	TrafficClasses int

	Seeds int   // repetitions per point (the paper uses 50)
	Seed  int64 // base seed; repetition r uses stream (Seed, r)

	// PricerBudget caps the feasibility probes of one pricing call
	// (0 = package default).
	PricerBudget int
	// MaxIterations caps column-generation rounds (0 = default).
	MaxIterations int
	// GapTarget stops column generation early at this relative
	// optimality gap (0 = solve to optimality).
	GapTarget float64
	// FixedPower disables power adaptation in the proposed scheme
	// (ablation).
	FixedPower bool
	// GreedyPricing swaps the exact pricer for the greedy heuristic
	// (ablation).
	GreedyPricing bool
	// MultiChannel enables the §III extension: a link may carry HP and
	// LP on different channels in the same slot.
	MultiChannel bool

	// Workers sets the experiment fan-out: independent (point, rep)
	// cells of a sweep run on up to this many goroutines. 0 means one
	// per available CPU; 1 is the sequential reference path. Output is
	// bit-identical for any value: each cell forks its RNG from
	// (Seed, rep) and aggregation happens in a fixed order.
	Workers int

	// Tracer, when non-nil, is attached to every solver the campaign
	// builds (core.Options.Tracer): each solve emits its span and
	// per-iteration cg.iteration events. Plans and campaign output are
	// byte-identical with or without it.
	Tracer *obs.Tracer

	// Metrics, when non-nil, receives every solver's counters (the
	// core_* and pnc_* families) plus the campaign's own per-cell
	// timing histogram, experiment_cell_seconds. Safe to share across
	// workers; purely observational.
	Metrics *obs.Registry

	// Ctx, when non-nil, bounds the campaign and reaches every solve it
	// runs: cancellation stops the sweep at the next cell/epoch boundary,
	// solves in flight truncate to their anytime plans, and the cause is
	// returned as the campaign error — a canceled campaign never renders
	// a figure. The CLI wires its SIGINT/SIGTERM context here so an
	// interrupted run still flushes its artifacts. Nil means
	// context.Background().
	Ctx context.Context
}

// Context resolves the campaign context.
func (c Config) Context() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// DefaultConfig returns the paper's Table I parameters: 30 links, 5
// channels, PMax 1 W, noise 0.1 W, 200 MHz channels, Γ = {0.1,…,0.5},
// H.264 HD trace at 171.44 Mb/s, 50 repetitions.
func DefaultConfig() Config {
	return Config{
		NumLinks:     30,
		NumChannels:  5,
		PMax:         1,
		Noise:        0.1,
		BandwidthHz:  200e6,
		Gammas:       []float64{0.1, 0.2, 0.3, 0.4, 0.5},
		SlotDuration: 1e-3,
		Room:         geom.Room{Width: 20, Height: 20},
		LinkLenMin:   1,
		LinkLenMax:   8,
		Interference: "global",
		DemandScale:  1,
		Video:        video.DefaultSession(),
		Trace:        trace.DefaultConfig(),
		Seeds:        50,
		Seed:         1,
		PricerBudget: 6000,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.NumLinks <= 0:
		return fmt.Errorf("experiment: NumLinks = %d, want > 0", c.NumLinks)
	case c.NumChannels <= 0:
		return fmt.Errorf("experiment: NumChannels = %d, want > 0", c.NumChannels)
	case c.PMax <= 0:
		return fmt.Errorf("experiment: PMax = %g, want > 0", c.PMax)
	case c.Noise <= 0:
		return fmt.Errorf("experiment: Noise = %g, want > 0", c.Noise)
	case c.BandwidthHz <= 0:
		return fmt.Errorf("experiment: BandwidthHz = %g, want > 0", c.BandwidthHz)
	case len(c.Gammas) == 0:
		return fmt.Errorf("experiment: empty SINR threshold vector")
	case c.SlotDuration <= 0:
		return fmt.Errorf("experiment: SlotDuration = %g, want > 0", c.SlotDuration)
	case c.DemandScale < 0:
		return fmt.Errorf("experiment: DemandScale = %g, want ≥ 0", c.DemandScale)
	case c.Seeds <= 0:
		return fmt.Errorf("experiment: Seeds = %d, want > 0", c.Seeds)
	case c.Interference != "global" && c.Interference != "per-channel":
		return fmt.Errorf("experiment: unknown interference model %q", c.Interference)
	case c.Workers < 0:
		return fmt.Errorf("experiment: Workers = %d, want ≥ 0", c.Workers)
	case c.TrafficClasses < 0 || c.TrafficClasses == 1 || c.TrafficClasses > 255:
		return fmt.Errorf("experiment: TrafficClasses = %d, want 0 or 2–255", c.TrafficClasses)
	}
	return c.Trace.Validate()
}

// String summarizes the config in one line for experiment records.
func (c Config) String() string {
	return fmt.Sprintf("L=%d K=%d Pmax=%gW ρ=%gW W=%gMHz Γ=%v slot=%gms demand×%g interference=%s seeds=%d",
		c.NumLinks, c.NumChannels, c.PMax, c.Noise, c.BandwidthHz/1e6, c.Gammas,
		c.SlotDuration*1e3, c.DemandScale, c.Interference, c.Seeds)
}

// Package session simulates multi-GOP video streaming sessions on top
// of the resource-allocation core — the end-to-end workload the
// paper's introduction motivates. Each GOP period the links' demands
// are drawn from their traces and the coordinator allocates the
// channel/slot/power resources; the package tracks the player-side
// outcomes across consecutive GOPs under two delivery disciplines:
//
//   - MinTime — problem P1 per GOP: every bit is delivered, and when
//     the optimal schedule exceeds the GOP period the playback stalls
//     (rebuffering) until transmission finishes.
//   - Quality — the quality-mode LP per GOP: the schedule never exceeds
//     the period (real-time), and bits that do not fit are dropped,
//     costing PSNR per the MGS model (eq. 1).
//
// Comparing the two quantifies the paper's PSNR model in a systems
// metric: stall seconds versus picture quality.
package session

import (
	"context"
	"fmt"

	"mmwave/internal/core"
	"mmwave/internal/netmodel"
	"mmwave/internal/stats"
	"mmwave/internal/video"
	"mmwave/internal/video/trace"
)

// Mode selects the per-GOP delivery discipline.
type Mode uint8

// Delivery disciplines.
const (
	// MinTime delivers everything, stalling playback on overruns.
	MinTime Mode = iota
	// Quality fits the GOP period, dropping bits that do not fit.
	Quality
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case MinTime:
		return "min-time"
	case Quality:
		return "quality"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Config parameterizes a streaming run.
type Config struct {
	Network *netmodel.Network
	Session video.Session // MGS split + rate-quality model (shared by all links)
	Trace   trace.Config  // per-link synthetic encoder parameters
	Mode    Mode
	GOPs    int          // number of consecutive GOP periods to stream
	Solver  core.Options // solver options per GOP
	Seed    int64        // trace randomness (one stream per link)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Network == nil {
		return fmt.Errorf("session: nil network")
	}
	if err := c.Network.Validate(); err != nil {
		return err
	}
	if err := c.Trace.Validate(); err != nil {
		return err
	}
	if c.GOPs <= 0 {
		return fmt.Errorf("session: GOPs = %d, want > 0", c.GOPs)
	}
	if c.Mode != MinTime && c.Mode != Quality {
		return fmt.Errorf("session: unknown mode %v", c.Mode)
	}
	return nil
}

// Metrics aggregates the player-side outcome of a run.
type Metrics struct {
	Mode Mode
	GOPs int

	// OnTime counts GOPs whose schedule finished within the period.
	OnTime int
	// StallSeconds accumulates schedule overrun beyond each period
	// (rebuffering time a viewer would experience; always 0 in Quality
	// mode).
	StallSeconds float64
	// ScheduleTime summarizes per-GOP total scheduling time.
	ScheduleTime stats.Summary
	// PSNR summarizes the per-link, per-GOP reconstructed quality.
	PSNR stats.Summary
	// DeliveredFraction summarizes delivered bits / demanded bits per
	// GOP (1.0 in MinTime mode).
	DeliveredFraction stats.Summary
}

// Run streams the configured number of GOPs and returns the metrics.
// Every GOP's solve runs under ctx: a canceled ctx truncates it to its
// anytime plan.
func Run(ctx context.Context, cfg Config) (*Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	L := cfg.Network.NumLinks()
	gens := make([]*trace.Generator, L)
	for l := 0; l < L; l++ {
		gen, err := trace.NewGenerator(cfg.Trace, stats.Fork(cfg.Seed, int64(l)))
		if err != nil {
			return nil, err
		}
		gens[l] = gen
	}

	gopDur := cfg.Trace.GOPDuration()
	m := &Metrics{Mode: cfg.Mode, GOPs: cfg.GOPs}
	for g := 0; g < cfg.GOPs; g++ {
		demands := make([]video.Demand, L)
		var totalDemand float64
		for l := range demands {
			demands[l] = gens[l].NextDemand(cfg.Session)
			totalDemand += demands[l].Total()
		}

		switch cfg.Mode {
		case MinTime:
			solver, err := core.NewSolver(cfg.Network, demands, cfg.Solver)
			if err != nil {
				return nil, fmt.Errorf("session: gop %d: %w", g, err)
			}
			res, err := solver.Solve(ctx)
			if err != nil {
				return nil, fmt.Errorf("session: gop %d: %w", g, err)
			}
			t := res.Plan.Objective
			m.ScheduleTime.Add(t)
			if t <= gopDur {
				m.OnTime++
			} else {
				m.StallSeconds += t - gopDur
			}
			// Everything delivered: PSNR at the full stream rate.
			for l := range demands {
				rate := demands[l].Total() / gopDur / 1e6
				m.PSNR.Add(cfg.Session.Quality.PSNR(rate))
			}
			m.DeliveredFraction.Add(1)

		case Quality:
			qs, err := core.NewQualitySolver(cfg.Network, demands, gopDur, nil, cfg.Solver)
			if err != nil {
				return nil, fmt.Errorf("session: gop %d: %w", g, err)
			}
			res, err := qs.Solve(ctx)
			if err != nil {
				return nil, fmt.Errorf("session: gop %d: %w", g, err)
			}
			m.ScheduleTime.Add(res.Plan.Objective)
			m.OnTime++ // by construction the budget is the period
			var delivered float64
			for l := range demands {
				delivered += res.Delivered[l].Total()
				m.PSNR.Add(res.PSNR(l, cfg.Session.Quality, gopDur))
			}
			if totalDemand > 0 {
				m.DeliveredFraction.Add(delivered / totalDemand)
			} else {
				m.DeliveredFraction.Add(1)
			}
		}
	}
	return m, nil
}

// OnTimeRatio returns the fraction of GOPs that finished within their
// period.
func (m *Metrics) OnTimeRatio() float64 {
	if m.GOPs == 0 {
		return 0
	}
	return float64(m.OnTime) / float64(m.GOPs)
}

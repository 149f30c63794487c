package faults

import (
	"fmt"
	"math"

	"mmwave/internal/video"
)

// LoadConfig parameterizes a deterministic multi-cell traffic
// generator. All fields are pure inputs to a hash — two LoadGens built
// from equal configs emit identical demand sequences regardless of
// call order, which is what replayable soak tests and the pncd
// integration tests need (the in-process reference run and the
// over-HTTP run must feed cells the exact same bits).
type LoadConfig struct {
	// Links is the number of links per cell the generator serves.
	Links int

	// MeanHPBits / MeanLPBits set the per-link per-epoch average
	// demand for the classic high- and low-priority classes.
	MeanHPBits float64
	MeanLPBits float64

	// Burstiness scales a periodic surge on top of the mean: during a
	// burst epoch the demand is multiplied by (1 + Burstiness). Zero
	// disables bursts.
	Burstiness float64

	// BurstPeriod is the epoch period of the surge; a cell is "in
	// burst" when epoch mod BurstPeriod == cell mod BurstPeriod, so
	// bursts are staggered across cells. Zero or 1 with nonzero
	// Burstiness means every epoch bursts.
	BurstPeriod int64

	// Jitter is the relative amplitude of per-link pseudo-random
	// variation in [0,1): each demand is scaled by a factor drawn
	// uniformly from [1-Jitter, 1+Jitter). Zero makes the load flat.
	Jitter float64

	// Seed anchors the hash; different seeds give independent traces.
	Seed int64
}

// Validate rejects configurations that would generate invalid demands.
func (c LoadConfig) Validate() error {
	if c.Links <= 0 {
		return fmt.Errorf("faults: LoadConfig.Links must be positive, got %d", c.Links)
	}
	if c.MeanHPBits < 0 || c.MeanLPBits < 0 {
		return fmt.Errorf("faults: LoadConfig mean bits must be non-negative")
	}
	if c.Jitter < 0 || c.Jitter >= 1 {
		return fmt.Errorf("faults: LoadConfig.Jitter must be in [0,1), got %g", c.Jitter)
	}
	if c.Burstiness < 0 {
		return fmt.Errorf("faults: LoadConfig.Burstiness must be non-negative, got %g", c.Burstiness)
	}
	if c.BurstPeriod < 0 {
		return fmt.Errorf("faults: LoadConfig.BurstPeriod must be non-negative, got %d", c.BurstPeriod)
	}
	return nil
}

// LoadGen deterministically generates per-link demands for a fleet of
// cells. Unlike Injector it holds no RNG state: every demand is a pure
// function of (seed, cell, epoch, link), so callers may query epochs
// out of order, from multiple goroutines, or re-query after a restart
// and always see the same traffic.
type LoadGen struct {
	cfg LoadConfig
}

// NewLoadGen validates cfg and returns a generator.
func NewLoadGen(cfg LoadConfig) (*LoadGen, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &LoadGen{cfg: cfg}, nil
}

// Config returns the generator's configuration.
func (g *LoadGen) Config() LoadConfig { return g.cfg }

// Demand returns the traffic demand for one link of one cell at one
// epoch. It is safe for concurrent use.
func (g *LoadGen) Demand(cell int, epoch int64, link int) video.Demand {
	scale := 1.0
	if g.cfg.Jitter > 0 {
		// Map a 64-bit hash to [0,1) and center it: u in [-1,1).
		h := mix64(uint64(g.cfg.Seed) ^
			mix64(uint64(cell)+0x9e3779b97f4a7c15) ^
			mix64(uint64(epoch)+0xbf58476d1ce4e5b9) ^
			mix64(uint64(link)+0x94d049bb133111eb))
		u := 2*float64(h>>11)/(1<<53) - 1
		scale *= 1 + g.cfg.Jitter*u
	}
	if g.cfg.Burstiness > 0 {
		period := g.cfg.BurstPeriod
		if period <= 1 {
			scale *= 1 + g.cfg.Burstiness
		} else if epoch%period == int64(cell)%period {
			scale *= 1 + g.cfg.Burstiness
		}
	}
	return video.TwoClass(
		math.Max(0, g.cfg.MeanHPBits*scale),
		math.Max(0, g.cfg.MeanLPBits*scale),
	)
}

// Demands returns the full per-link demand vector for one cell at one
// epoch.
func (g *LoadGen) Demands(cell int, epoch int64) []video.Demand {
	out := make([]video.Demand, g.cfg.Links)
	for l := range out {
		out[l] = g.Demand(cell, epoch, l)
	}
	return out
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// hash used to derive independent per-(cell,epoch,link) variates from
// the seed without any shared RNG state.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

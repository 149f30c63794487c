// Package channel models the frequency-selective mmWave channel between
// links. It produces the two gain families the optimizer consumes:
//
//   - Direct gains H_l^k: the power gain from link l's transmitter to
//     its own receiver on channel k.
//   - Cross gains H_{l'l}^k = G_{l'l}^k · Δ(θ(l', l)): the interference
//     gain from link l's transmitter to link l's receiver on channel k,
//     already folded with the directional antenna pattern.
//
// The one generator is the paper's Table I model: every gain and
// angular factor is an independent U[0,1] draw per channel, capturing
// frequency selectivity abstractly.
package channel

import (
	"fmt"
	"math"
	"math/rand"

	"mmwave/internal/geom"
)

// Gains holds the complete gain structure of a network instance:
// Direct[l][k] is H_l^k and Cross[l'][l][k] is H_{l'l}^k (transmitter of
// l' into receiver of l on channel k). Cross[l][l][k] is unused and
// kept at zero.
type Gains struct {
	Direct [][]float64
	Cross  [][][]float64
}

// NumLinks returns the number of links the gain structure covers.
func (g *Gains) NumLinks() int { return len(g.Direct) }

// NumChannels returns the number of channels, or 0 for an empty
// structure.
func (g *Gains) NumChannels() int {
	if len(g.Direct) == 0 {
		return 0
	}
	return len(g.Direct[0])
}

// Validate checks structural consistency: rectangular Direct, cubic
// Cross with matching dimensions, non-negative entries, and zero
// self-interference diagonal.
func (g *Gains) Validate() error {
	l := g.NumLinks()
	k := g.NumChannels()
	if len(g.Cross) != l {
		return fmt.Errorf("channel: cross gain has %d rows, want %d", len(g.Cross), l)
	}
	for i := 0; i < l; i++ {
		if len(g.Direct[i]) != k {
			return fmt.Errorf("channel: direct gain row %d has %d channels, want %d", i, len(g.Direct[i]), k)
		}
		for _, h := range g.Direct[i] {
			if h < 0 || math.IsNaN(h) {
				return fmt.Errorf("channel: negative or NaN direct gain on link %d", i)
			}
		}
		if len(g.Cross[i]) != l {
			return fmt.Errorf("channel: cross gain row %d has %d columns, want %d", i, len(g.Cross[i]), l)
		}
		for j := 0; j < l; j++ {
			if len(g.Cross[i][j]) != k {
				return fmt.Errorf("channel: cross gain [%d][%d] has %d channels, want %d", i, j, len(g.Cross[i][j]), k)
			}
			for kk, h := range g.Cross[i][j] {
				if h < 0 || math.IsNaN(h) {
					return fmt.Errorf("channel: negative or NaN cross gain [%d][%d][%d]", i, j, kk)
				}
				if i == j && h != 0 {
					return fmt.Errorf("channel: nonzero self-interference on link %d channel %d", i, kk)
				}
			}
		}
	}
	return nil
}

// TableI is the paper's simulation model: every direct gain H_l^k and
// every cross-gain factor G_{l'l}^k and Δ(θ(l',l)) is an independent
// U[0,1] draw per channel (Table I of the paper). Link geometry is
// ignored; frequency selectivity comes from independent per-channel
// draws.
type TableI struct{}

// Generate draws the gains of len(links) links on numChannels channels
// from rng.
func (TableI) Generate(rng *rand.Rand, links []geom.Segment, numChannels int) *Gains {
	n := len(links)
	g := newGains(n, numChannels)
	for l := 0; l < n; l++ {
		for k := 0; k < numChannels; k++ {
			g.Direct[l][k] = rng.Float64()
		}
	}
	for lp := 0; lp < n; lp++ {
		for l := 0; l < n; l++ {
			if lp == l {
				continue
			}
			// Δ(θ(l', l)) is one draw per ordered pair; G varies per channel.
			delta := rng.Float64()
			for k := 0; k < numChannels; k++ {
				g.Cross[lp][l][k] = rng.Float64() * delta
			}
		}
	}
	return g
}

// newGains allocates a zeroed gain structure for n links and k
// channels.
func newGains(n, k int) *Gains {
	g := &Gains{
		Direct: make([][]float64, n),
		Cross:  make([][][]float64, n),
	}
	for i := 0; i < n; i++ {
		g.Direct[i] = make([]float64, k)
		g.Cross[i] = make([][]float64, n)
		for j := 0; j < n; j++ {
			g.Cross[i][j] = make([]float64, k)
		}
	}
	return g
}

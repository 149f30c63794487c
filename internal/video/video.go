// Package video models the scalable video sessions carried by the
// mmWave links. Following the paper, each video is encoded into
// prioritized layers (Medium-Grain Scalable coding) — classically a
// High-Priority (HP) and a Low-Priority (LP) layer — the reconstructed
// quality follows the linear model PSNR = α + β·(r_hp + r_lp) (eq. 1),
// and the traffic demand of a link is the per-layer data volume of the
// next GOP period.
//
// The demand model generalizes the paper's two layers to N ordered
// traffic classes (slice-style workloads: URLLC / eMBB / best-effort).
// A class is an index into Demand: a lower index is a higher priority,
// the order load shedding follows, and every class of a link carries
// the link's quality weight. The two-class case remains the canonical
// reproduction path via TwoClass.
package video

import (
	"fmt"
	"math"
	"strings"
)

// Quality holds the MGS rate-quality model parameters of one encoded
// sequence: PSNR = Alpha + Beta·r_sum with r_sum in Mb/s.
type Quality struct {
	Alpha float64 // PSNR offset, dB
	Beta  float64 // PSNR slope, dB per Mb/s
}

// PSNR returns the reconstructed quality (dB) at total received rate
// rSum (Mb/s), clamped below at 0 for rates too low to decode anything.
func (q Quality) PSNR(rSum float64) float64 {
	v := q.Alpha + q.Beta*rSum
	return math.Max(v, 0)
}

// RateFor returns the total rate (Mb/s) needed to reach the target
// PSNR (dB). It returns 0 when the target is below Alpha.
func (q Quality) RateFor(psnr float64) float64 {
	if q.Beta <= 0 {
		return 0
	}
	return math.Max(0, (psnr-q.Alpha)/q.Beta)
}

// Demand is one link's traffic demand for the upcoming scheduling
// period: a class-indexed vector of bit volumes, where index 0 is the
// highest-priority class. Demands stay constant for the whole
// scheduling period (the paper's §III note), and a new Demand is
// issued per GOP.
//
// The nil (zero-value) Demand is valid and all-zero for every class.
// The paper's two-layer HP/LP demand is the two-class special case —
// construct it with TwoClass. Demand values are treated as immutable:
// derive new vectors (Scale, Clone) instead of mutating elements, so
// sharing a Demand across coordinator state, checkpoints, and plans is
// safe.
type Demand []float64

// TwoClass builds the paper's classic two-layer demand: hp bits in
// class 0, lp bits in class 1.
func TwoClass(hp, lp float64) Demand { return Demand{hp, lp} }

// At returns the bits of class c, 0 for classes beyond the vector (a
// 2-class demand is implicitly zero in every higher class).
func (d Demand) At(c int) float64 {
	if c < 0 || c >= len(d) {
		return 0
	}
	return d[c]
}

// NumClasses returns the number of classes the vector carries
// explicitly.
func (d Demand) NumClasses() int { return len(d) }

// Clone returns an independent copy (nil stays nil).
func (d Demand) Clone() Demand {
	if d == nil {
		return nil
	}
	return append(Demand(nil), d...)
}

// Total returns the bits summed over every class.
func (d Demand) Total() float64 {
	var t float64
	for _, v := range d {
		t += v
	}
	return t
}

// IsZero reports whether every class is exactly zero (true for nil).
func (d Demand) IsZero() bool {
	for _, v := range d {
		if v != 0 {
			return false
		}
	}
	return true
}

// Scale returns the demand multiplied by factor c, used by the
// traffic-demand sweep of Fig. 2 and the staleness decay of the PNC
// epoch loop.
//
// Non-finite inputs never escape: a NaN or ±Inf factor drops the
// demand to zero (a poisoned factor must not poison every downstream
// LP row), and a finite product that overflows clamps to ±MaxFloat64.
// This keeps Scale's outputs inside what Valid accepts whenever the
// receiver was valid and the factor non-negative.
func (d Demand) Scale(c float64) Demand {
	if math.IsNaN(c) || math.IsInf(c, 0) {
		c = 0
	}
	out := make(Demand, len(d))
	for i, v := range d {
		p := v * c
		switch {
		case math.IsNaN(p):
			p = 0
		case math.IsInf(p, 1):
			p = math.MaxFloat64
		case math.IsInf(p, -1):
			p = -math.MaxFloat64
		}
		out[i] = p
	}
	return out
}

// Valid reports whether every class is non-negative and finite.
func (d Demand) Valid() bool {
	for _, v := range d {
		if v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
	}
	return true
}

// String renders the demand in Mb. Two-class demands (including the
// zero demand) keep the historical "hp=…Mb lp=…Mb" form; wider vectors
// render one "c<i>=…Mb" term per class.
func (d Demand) String() string {
	if len(d) <= 2 {
		return fmt.Sprintf("hp=%.2fMb lp=%.2fMb", d.At(0)/1e6, d.At(1)/1e6)
	}
	parts := make([]string, len(d))
	for i, v := range d {
		parts[i] = fmt.Sprintf("c%d=%.2fMb", i, v/1e6)
	}
	return strings.Join(parts, " ")
}

// Session describes one video session: its rate-quality model and how
// a GOP's bits split across traffic classes. The split follows the MGS
// layering of [17]/[18]: the base layer plus high-priority enhancement
// (I frames, motion info) goes to the first class, the remainder to
// the lower classes.
type Session struct {
	Quality Quality
	HPShare float64 // two-class path: fraction of bits in class 0, in [0, 1]

	// Shares, when non-nil, generalizes HPShare to N classes: entry c
	// is class c's fraction of the GOP bits. Negative entries clamp to
	// 0 and the vector is renormalized to sum to 1 (an all-zero vector
	// puts everything in class 0). When nil, the legacy two-class
	// [HPShare, 1−HPShare] split applies.
	Shares []float64
}

// DemandForBits converts a GOP's total bit volume into a class-indexed
// Demand using the session's share vector (or the legacy HP share).
func (s Session) DemandForBits(totalBits float64) Demand {
	if len(s.Shares) > 0 {
		shares := make([]float64, len(s.Shares))
		var sum float64
		for i, sh := range s.Shares {
			if sh > 0 {
				shares[i] = sh
				sum += sh
			}
		}
		out := make(Demand, len(shares))
		if sum <= 0 {
			out[0] = totalBits
			return out
		}
		for i, sh := range shares {
			out[i] = totalBits * sh / sum
		}
		return out
	}
	share := s.HPShare
	if share < 0 {
		share = 0
	}
	if share > 1 {
		share = 1
	}
	return TwoClass(totalBits*share, totalBits*(1-share))
}

// DefaultSession returns session parameters matching the paper's
// evaluation: an HD sequence (4096×1744 @ 24 fps, ≈171.44 Mb/s) with a
// one-third HP share and an MGS rate-quality curve in the typical range
// reported for high-rate HD content.
func DefaultSession() Session {
	return Session{
		Quality: Quality{Alpha: 30, Beta: 0.05},
		HPShare: 1.0 / 3.0,
	}
}

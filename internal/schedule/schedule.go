// Package schedule defines the feasible-schedule abstraction at the
// heart of problem P1: a simultaneous activation pattern assigning each
// active link a channel, a discrete rate level, a traffic class (the
// paper's HP or LP video layer, generalized to N ordered classes), and
// a transmit power. A schedule is feasible when every active
// link's SINR meets its level's threshold, each link uses at most one
// channel, and no node has two incident active links (half-duplex).
package schedule

import (
	"fmt"
	"sort"
	"strings"

	"mmwave/internal/netmodel"
)

// Layer identifies which traffic class a link transmits in a schedule.
// The value is the class index (0 = highest priority); the historical
// HP/LP names cover the paper's two-layer case.
type Layer uint8

// The paper's two video layers, as class indices.
const (
	HP Layer = iota // high-priority layer (class 0)
	LP              // low-priority layer (class 1)
)

// ClassLayer returns the Layer addressing traffic class c.
func ClassLayer(c int) Layer { return Layer(c) }

// Class returns the traffic-class index the layer addresses.
func (y Layer) Class() int { return int(y) }

// String implements fmt.Stringer.
func (y Layer) String() string {
	switch y {
	case HP:
		return "hp"
	case LP:
		return "lp"
	default:
		return fmt.Sprintf("c%d", uint8(y))
	}
}

// Assignment activates one link inside a schedule.
type Assignment struct {
	Link    int     // link index
	Channel int     // channel index
	Level   int     // rate level q (index into the network rate table)
	Layer   Layer   // which video layer the slot carries
	Power   float64 // transmit power, W
}

// Schedule is a set of simultaneous link activations. The zero value
// is the empty schedule (all links idle), which is trivially feasible.
type Schedule struct {
	Assignments []Assignment
}

// Clone returns a deep copy.
func (s *Schedule) Clone() *Schedule {
	return &Schedule{Assignments: append([]Assignment(nil), s.Assignments...)}
}

// Normalize sorts assignments into a canonical order (by link, then
// channel, level, and layer, so even structurally invalid schedules
// with duplicate links normalize deterministically).
func (s *Schedule) Normalize() {
	sort.Slice(s.Assignments, func(i, j int) bool {
		a, b := s.Assignments[i], s.Assignments[j]
		if a.Link != b.Link {
			return a.Link < b.Link
		}
		if a.Channel != b.Channel {
			return a.Channel < b.Channel
		}
		if a.Level != b.Level {
			return a.Level < b.Level
		}
		return a.Layer < b.Layer
	})
}

// Key returns a canonical identity string covering the discrete part
// of the schedule (links, channels, levels, layers). Powers are
// excluded: two schedules with the same discrete choices produce the
// same rate vectors and are interchangeable columns.
func (s *Schedule) Key() string {
	c := s.Clone()
	c.Normalize()
	var b strings.Builder
	for _, a := range c.Assignments {
		fmt.Fprintf(&b, "%d:%d:%d:%d;", a.Link, a.Channel, a.Level, a.Layer)
	}
	return b.String()
}

// String renders the schedule compactly.
func (s *Schedule) String() string {
	if len(s.Assignments) == 0 {
		return "schedule{idle}"
	}
	c := s.Clone()
	c.Normalize()
	parts := make([]string, len(c.Assignments))
	for i, a := range c.Assignments {
		parts[i] = fmt.Sprintf("l%d→ch%d q%d %s p=%.3f", a.Link, a.Channel, a.Level, a.Layer, a.Power)
	}
	return "schedule{" + strings.Join(parts, ", ") + "}"
}

// RateVectorsByClass returns the per-class, per-link rate vectors
// r_l^s of the schedule under the network's rate table — the
// coefficients of one master-problem column, one row family per
// traffic class (class-major).
func (s *Schedule) RateVectorsByClass(nw *netmodel.Network) [][]float64 {
	out := make([][]float64, nw.TrafficClasses())
	for c := range out {
		out[c] = make([]float64, nw.NumLinks())
	}
	for _, a := range s.Assignments {
		if c := a.Layer.Class(); c < len(out) {
			out[c][a.Link] = nw.Rates.Rates[a.Level]
		}
	}
	return out
}

// Value returns the pricing objective Σ_l λ_l(class)·r_l^s of the
// schedule under class-major dual prices lambda[c][l].
func (s *Schedule) Value(nw *netmodel.Network, lambda [][]float64) float64 {
	var v float64
	for _, a := range s.Assignments {
		c := a.Layer.Class()
		if c >= len(lambda) {
			continue
		}
		v += lambda[c][a.Link] * nw.Rates.Rates[a.Level]
	}
	return v
}

// Validate checks feasibility against the network: structural limits,
// half-duplex node conflicts, power bounds, and SINR thresholds under
// the schedule's own powers and the network's interference model.
// Under nw.MultiChannel a link may appear once per traffic class, on
// distinct channels; otherwise each link appears at most once.
func (s *Schedule) Validate(nw *netmodel.Network) error {
	seenLink := make(map[int]bool, len(s.Assignments))
	linkLayer := make(map[int]map[Layer]bool, len(s.Assignments))
	linkChannel := make(map[int]map[int]bool, len(s.Assignments))
	seenNode := make(map[int]int, 2*len(s.Assignments)) // node → owning link
	for _, a := range s.Assignments {
		if a.Link < 0 || a.Link >= nw.NumLinks() {
			return fmt.Errorf("schedule: link %d out of range [0,%d)", a.Link, nw.NumLinks())
		}
		if a.Channel < 0 || a.Channel >= nw.NumChannels {
			return fmt.Errorf("schedule: channel %d out of range [0,%d)", a.Channel, nw.NumChannels)
		}
		if a.Level < 0 || a.Level >= nw.Rates.Levels() {
			return fmt.Errorf("schedule: level %d out of range [0,%d)", a.Level, nw.Rates.Levels())
		}
		if int(a.Layer) >= nw.TrafficClasses() {
			return fmt.Errorf("schedule: link %d has invalid layer %d (network carries %d classes)", a.Link, a.Layer, nw.TrafficClasses())
		}
		if a.Power < 0 || a.Power > nw.PMax*(1+1e-9) {
			return fmt.Errorf("schedule: link %d power %g outside [0, %g]", a.Link, a.Power, nw.PMax)
		}
		if nw.MultiChannel {
			if linkLayer[a.Link] == nil {
				linkLayer[a.Link] = make(map[Layer]bool, 2)
				linkChannel[a.Link] = make(map[int]bool, 2)
			}
			if linkLayer[a.Link][a.Layer] {
				return fmt.Errorf("schedule: link %d carries layer %v twice", a.Link, a.Layer)
			}
			if linkChannel[a.Link][a.Channel] {
				return fmt.Errorf("schedule: link %d uses channel %d twice", a.Link, a.Channel)
			}
			linkLayer[a.Link][a.Layer] = true
			linkChannel[a.Link][a.Channel] = true
		} else if seenLink[a.Link] {
			return fmt.Errorf("schedule: link %d assigned twice (violates eq. 30/6)", a.Link)
		}
		seenLink[a.Link] = true
		tx, rx := nw.Links[a.Link].TXNode, nw.Links[a.Link].RXNode
		for _, node := range []int{tx, rx} {
			if owner, ok := seenNode[node]; ok && owner != a.Link {
				return fmt.Errorf("schedule: node conflict at link %d (half-duplex, eq. 31)", a.Link)
			}
			seenNode[node] = a.Link
		}
	}
	// SINR thresholds under the stored powers and the network's
	// interference model.
	active := make([]int, len(s.Assignments))
	chans := make([]int, len(s.Assignments))
	powers := make([]float64, len(s.Assignments))
	for i, a := range s.Assignments {
		active[i] = a.Link
		chans[i] = a.Channel
		powers[i] = a.Power
	}
	for i, a := range s.Assignments {
		gamma := nw.Rates.Gammas[a.Level]
		if sinr := nw.SINRAssigned(i, active, chans, powers); sinr < gamma*(1-1e-6) {
			return fmt.Errorf("schedule: link %d on channel %d reaches SINR %.4g < γ=%.4g (eq. 3)",
				a.Link, a.Channel, sinr, gamma)
		}
	}
	return nil
}

// TDMA builds the paper's initial column set Ŝ for the master problem:
// for every link, one single-link schedule per traffic class (HP then
// LP in the two-class case) on the link's best-throughput channel at
// the highest level the link can reach alone, with the minimal power
// that meets that level's threshold. Links that cannot reach even the
// lowest level at PMax are skipped (their demand is unservable and the
// instance infeasible).
func TDMA(nw *netmodel.Network) []*Schedule {
	var out []*Schedule
	for l := 0; l < nw.NumLinks(); l++ {
		bestK, bestRate, bestQ := -1, -1.0, -1
		for k := 0; k < nw.NumChannels; k++ {
			sinr := nw.Gains.Direct[l][k] * nw.PMax / nw.Noise[l]
			q := nw.Rates.BestLevel(sinr)
			if q < 0 {
				continue
			}
			r := nw.Rates.Rates[q]
			// Rate first; on ties prefer the higher-gain channel, which
			// needs less transmit power for the same level.
			better := r > bestRate ||
				(r == bestRate && bestK >= 0 && nw.Gains.Direct[l][k] > nw.Gains.Direct[l][bestK])
			if better {
				bestRate = r
				bestK = k
				bestQ = q
			}
		}
		if bestK < 0 {
			continue
		}
		// Minimal solo power for the chosen level.
		power := nw.Rates.Gammas[bestQ] * nw.Noise[l] / nw.Gains.Direct[l][bestK]
		if power > nw.PMax {
			power = nw.PMax
		}
		for c := 0; c < nw.TrafficClasses(); c++ {
			out = append(out, &Schedule{Assignments: []Assignment{{
				Link:    l,
				Channel: bestK,
				Level:   bestQ,
				Layer:   ClassLayer(c),
				Power:   power,
			}}})
		}
	}
	return out
}

// Pool is a deduplicating collection of schedules, the master problem's
// current column set S'.
type Pool struct {
	schedules []*Schedule
	index     map[string]int
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{index: make(map[string]int)}
}

// Add inserts the schedule unless an identical (discrete) one is
// already present. It returns the schedule's pool index and whether it
// was newly added.
func (p *Pool) Add(s *Schedule) (int, bool) {
	key := s.Key()
	if i, ok := p.index[key]; ok {
		return i, false
	}
	c := s.Clone()
	c.Normalize()
	p.schedules = append(p.schedules, c)
	i := len(p.schedules) - 1
	p.index[key] = i
	return i, true
}

// Len returns the number of schedules in the pool.
func (p *Pool) Len() int { return len(p.schedules) }

// At returns the schedule at index i.
func (p *Pool) At(i int) *Schedule { return p.schedules[i] }

// Compact retains only the schedules keep selects, preserving their
// relative order, and rebuilds the dedup index. It returns the old→new
// index mapping (-1 for removed entries), which callers use to remap
// anything addressed by pool index (master columns, warm bases). This
// is the column-GC entry point: the engine drops long-nonbasic columns
// so the pool stays bounded across epoch re-solves.
func (p *Pool) Compact(keep func(i int, s *Schedule) bool) []int {
	mapping := make([]int, len(p.schedules))
	kept := p.schedules[:0]
	for i, s := range p.schedules {
		if keep(i, s) {
			mapping[i] = len(kept)
			kept = append(kept, s)
		} else {
			mapping[i] = -1
			delete(p.index, s.Key())
		}
	}
	// Zero the tail so dropped schedules are collectable.
	for i := len(kept); i < len(p.schedules); i++ {
		p.schedules[i] = nil
	}
	p.schedules = kept
	for i, s := range p.schedules {
		p.index[s.Key()] = i
	}
	return mapping
}

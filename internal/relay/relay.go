// Package relay adds dual-hop relaying to the resource-allocation
// core, in the spirit of the link/relay-selection companion work the
// paper builds on (its ref. [4]): when a session's direct path is too
// weak to carry its demand — e.g. under blockage — an idle relay node
// can forward it over two hops.
//
// The integration reuses problem P1 unchanged: a relayed session
// contributes two links (source→relay, relay→destination) to an
// expanded network, each carrying the full session demand, and the
// relay's half-duplex constraint (it cannot receive and forward in the
// same slot) falls out of the existing per-node activation rule
// (eq. 31). Solving P1 on the expanded network jointly schedules
// direct sessions and both hops of relayed ones.
//
// Ordering note: within one scheduling period the hops may interleave
// arbitrarily; physically the relay operates store-and-forward with
// one-period pipelining (it forwards the previous GOP while receiving
// the current one), so per-period hop volumes — not intra-period
// ordering — determine correctness. This is the standard treatment in
// the frame-based dual-hop literature.
package relay

import (
	"fmt"
	"math"
	"math/rand"

	"mmwave/internal/channel"
	"mmwave/internal/geom"
	"mmwave/internal/netmodel"
	"mmwave/internal/video"
)

// Route describes how one session traverses the expanded network.
type Route struct {
	Session int // session index in the original network
	Direct  bool
	Relay   int // relay candidate index (valid when !Direct)
	// Links lists the expanded-network link indices carrying the
	// session: one entry when direct, two (hop1, hop2) when relayed.
	Links []int
}

// Expanded is a relay-augmented problem instance: a network whose
// links are the chosen routes' hops, with demands mapped onto every
// hop, ready for core.NewSolver.
type Expanded struct {
	Network *netmodel.Network
	Demands []video.Demand
	Routes  []Route
}

// Selector chooses routes for sessions over a set of relay candidate
// positions.
type Selector struct {
	// MinDirectRate is the solo-rate floor (bits/s) below which a
	// session is considered for relaying. Zero relays only sessions
	// with no feasible direct rate at all.
	MinDirectRate float64
}

// Select builds the expanded instance: sessions whose best direct solo
// rate is below the floor try every relay candidate and take the one
// minimizing the serial two-hop time (d/r₁ + d/r₂, the store-and-
// forward bound); sessions keep their direct link when no relay beats
// it. Gains for the expanded link set are drawn from the paper's
// Table I model using rng — pass a deterministic stream for
// reproducible instances.
func (s Selector) Select(nw *netmodel.Network, demands []video.Demand, relays []geom.Point, rng *rand.Rand) (*Expanded, error) {
	if err := nw.Validate(); err != nil {
		return nil, fmt.Errorf("relay: %w", err)
	}
	if len(demands) != nw.NumLinks() {
		return nil, fmt.Errorf("relay: %d demands for %d sessions", len(demands), nw.NumLinks())
	}
	// Pass 1: geometry of the expanded link set. Relay node IDs start
	// after the original node ID space.
	maxNode := 0
	for _, lk := range nw.Links {
		if lk.TXNode > maxNode {
			maxNode = lk.TXNode
		}
		if lk.RXNode > maxNode {
			maxNode = lk.RXNode
		}
	}
	relayNode := func(r int) int { return maxNode + 1 + r }

	type hopSpec struct {
		seg    geom.Segment
		tx, rx int
	}
	var hops []hopSpec
	var routes []Route

	// Evaluate candidate serial times on provisional gains: solo rates
	// need gains, which depend on the final link set. We draw gains in
	// two passes with independent sub-streams so the candidate
	// evaluation and the final instance are consistent per candidate
	// geometry. For simplicity and determinism, candidate evaluation
	// uses distance-based estimates only (path loss ∝ d^-2), while the
	// final gains come from the Table I model; selection is a
	// heuristic and P1 on the expanded network does the real work.
	soloRate := func(l int) float64 {
		best := 0.0
		for k := 0; k < nw.NumChannels; k++ {
			if r := nw.SoloRate(l, k); r > best {
				best = r
			}
		}
		return best
	}
	estRate := func(dist float64) float64 {
		// Distance-proportional estimate against the session geometry:
		// rate falls with d²; normalized to the top table rate at 1 m.
		top := nw.Rates.Rates[nw.Rates.Levels()-1]
		if dist < 1 {
			dist = 1
		}
		return top / (dist * dist)
	}

	for sess, lk := range nw.Links {
		direct := soloRate(sess)
		needsRelay := direct < s.MinDirectRate || direct == 0
		bestRelay := -1
		if needsRelay && demands[sess].Total() > 0 && len(relays) > 0 {
			d := demands[sess].Total()
			bestTime := math.Inf(1)
			if direct > 0 {
				bestTime = d / direct
			}
			for r, pos := range relays {
				d1 := lk.Seg.TX.Dist(pos)
				d2 := pos.Dist(lk.Seg.RX)
				t := d/estRate(d1) + d/estRate(d2)
				if t < bestTime {
					bestTime = t
					bestRelay = r
				}
			}
		}

		if bestRelay < 0 {
			routes = append(routes, Route{
				Session: sess, Direct: true, Relay: -1, Links: []int{len(hops)},
			})
			hops = append(hops, hopSpec{seg: lk.Seg, tx: lk.TXNode, rx: lk.RXNode})
			continue
		}
		pos := relays[bestRelay]
		rn := relayNode(bestRelay)
		routes = append(routes, Route{
			Session: sess, Direct: false, Relay: bestRelay,
			Links: []int{len(hops), len(hops) + 1},
		})
		hops = append(hops,
			hopSpec{seg: geom.Segment{TX: lk.Seg.TX, RX: pos}, tx: lk.TXNode, rx: rn},
			hopSpec{seg: geom.Segment{TX: pos, RX: lk.Seg.RX}, tx: rn, rx: lk.RXNode},
		)
	}

	// Pass 2: draw gains for the expanded link set and assemble the
	// network.
	segs := make([]geom.Segment, len(hops))
	for i, h := range hops {
		segs[i] = h.seg
	}
	gains := channel.TableI{}.Generate(rng, segs, nw.NumChannels)
	links := make([]netmodel.Link, len(hops))
	noise := make([]float64, len(hops))
	baseNoise := nw.Noise[0]
	for i, h := range hops {
		links[i] = netmodel.Link{TXNode: h.tx, RXNode: h.rx, Seg: h.seg}
		noise[i] = baseNoise
	}
	expanded := &netmodel.Network{
		Links:        links,
		NumChannels:  nw.NumChannels,
		Gains:        gains,
		Noise:        noise,
		PMax:         nw.PMax,
		Rates:        nw.Rates,
		BandwidthHz:  nw.BandwidthHz,
		Interference: nw.Interference,
		MultiChannel: nw.MultiChannel,
	}
	// Keep the original direct links' gains for direct routes so the
	// relay decision never changes an untouched session's channel.
	for _, rt := range routes {
		if rt.Direct {
			l := rt.Links[0]
			copy(expanded.Gains.Direct[l], nw.Gains.Direct[rt.Session])
		}
	}
	if err := expanded.Validate(); err != nil {
		return nil, fmt.Errorf("relay: expanded network invalid: %w", err)
	}

	// Demands: every hop carries the session's full volume
	// (store-and-forward within the scheduling period).
	expDemands := make([]video.Demand, len(hops))
	for _, rt := range routes {
		for _, l := range rt.Links {
			expDemands[l] = demands[rt.Session]
		}
	}
	return &Expanded{Network: expanded, Demands: expDemands, Routes: routes}, nil
}

// NumRelayed returns how many sessions were routed via a relay.
func (e *Expanded) NumRelayed() int {
	n := 0
	for _, rt := range e.Routes {
		if !rt.Direct {
			n++
		}
	}
	return n
}

// SessionCompletion maps per-hop completion times (from a simulator
// execution over the expanded network) back to per-session completion:
// a session finishes when its last hop finishes.
func (e *Expanded) SessionCompletion(hopCompletion []float64) []float64 {
	out := make([]float64, len(e.Routes))
	for i, rt := range e.Routes {
		worst := 0.0
		for _, l := range rt.Links {
			if l < len(hopCompletion) && hopCompletion[l] > worst {
				worst = hopCompletion[l]
			}
		}
		out[i] = worst
	}
	return out
}

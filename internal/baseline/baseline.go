// Package baseline implements the comparison schemes of the paper's
// evaluation (§VI):
//
//   - Benchmark 1 — the uncoordinated scheme of [17]: every link
//     independently places its HP (then LP) data on its best-gain
//     channel at full power, with no coordination of concurrent
//     transmissions. Crowded channels suffer mutual interference and
//     the achieved rate levels drop.
//   - Benchmark 2 — the frame-based minimum-scheduling-time heuristic
//     of [9]/[10] (greedy concurrent grouping, fixed transmit power, no
//     channel diversity awareness), combined with the SDMA-style
//     channel allocation of [8] (distance-constrained best-gain channel
//     assignment) as the paper does for fairness of comparison.
//   - TDMA — one link at a time on its best channel; the paper's
//     initialization and the classic lower-complexity reference.
//
// All baselines are sim.Policy implementations, so they run through the
// same slot-level executor as the proposed algorithm.
package baseline

import (
	"fmt"
	"math"
	"sort"

	"mmwave/internal/netmodel"
	"mmwave/internal/schedule"
	"mmwave/internal/sim"
)

// Benchmark1 is the uncoordinated per-link best-channel policy of
// [17]: all links with pending demand transmit simultaneously at PMax
// on their individually best channels. The achieved SINR — including
// the interference from every other transmitting link — determines the
// rate level actually credited; links whose SINR falls below the
// lowest threshold transmit uselessly that slot (their interference
// still counts against everyone else).
type Benchmark1 struct{}

var _ sim.Policy = Benchmark1{}

// Name implements sim.Policy.
func (Benchmark1) Name() string { return "benchmark1" }

// Decide implements sim.Policy.
func (Benchmark1) Decide(nw *netmodel.Network, rem *sim.Remaining, slot int) (*schedule.Schedule, error) {
	type tx struct {
		link    int
		channel int
		layer   schedule.Layer
	}
	var txs []tx
	usedNode := make(map[int]bool)
	for l := 0; l < nw.NumLinks(); l++ {
		if rem.Done(l) {
			continue
		}
		lk := nw.Links[l]
		if usedNode[lk.TXNode] || usedNode[lk.RXNode] {
			continue // half-duplex even for the uncoordinated scheme
		}
		usedNode[lk.TXNode] = true
		usedNode[lk.RXNode] = true
		k, _ := nw.BestSingleLinkChannel(l)
		txs = append(txs, tx{link: l, channel: k, layer: pendingLayer(rem, l)})
	}
	if len(txs) == 0 {
		return nil, nil
	}

	// Achieved SINR per transmitting link, counting interference from
	// every concurrent transmitter at PMax under the network's
	// interference model.
	active := make([]int, len(txs))
	chans := make([]int, len(txs))
	powers := make([]float64, len(txs))
	for i, t := range txs {
		active[i] = t.link
		chans[i] = t.channel
		powers[i] = nw.PMax
	}
	var out schedule.Schedule
	for i, t := range txs {
		sinr := nw.SINRAssigned(i, active, chans, powers)
		q := nw.Rates.BestLevel(sinr)
		if q < 0 {
			continue // transmission wasted this slot
		}
		out.Assignments = append(out.Assignments, schedule.Assignment{
			Link: t.link, Channel: t.channel, Level: q, Layer: t.layer, Power: nw.PMax,
		})
	}
	if len(out.Assignments) == 0 {
		// Everyone drowned everyone: fall back to serving the neediest
		// link alone so the run always progresses (a real system would
		// back off similarly).
		t := txs[0]
		best := -1.0
		for _, c := range txs {
			need := remSum(rem, c.link)
			if need > best {
				best = need
				t = c
			}
		}
		q := nw.Rates.BestLevel(nw.Gains.Direct[t.link][t.channel] * nw.PMax / nw.Noise[t.link])
		if q < 0 {
			return nil, fmt.Errorf("baseline: link %d unservable even alone", t.link)
		}
		out.Assignments = append(out.Assignments, schedule.Assignment{
			Link: t.link, Channel: t.channel, Level: q, Layer: t.layer, Power: nw.PMax,
		})
	}
	out.Normalize()
	return &out, nil
}

// ChannelAllocation assigns each link a fixed channel in the spirit of
// [8]: links take their best-gain channel, except that links within an
// exclusion distance of an already-assigned co-channel link are pushed
// to their next-best channel. When every channel conflicts, the
// best-gain channel is used anyway (those links will time-share).
type ChannelAllocation struct {
	// ExclusionDist is the minimum TX–TX distance (meters) for two
	// links to share a channel. Zero disables the distance rule.
	ExclusionDist float64
}

// Assign returns the per-link channel assignment.
func (c ChannelAllocation) Assign(nw *netmodel.Network) []int {
	L := nw.NumLinks()
	assign := make([]int, L)
	// Process links in descending best-gain order so strong links get
	// first pick (the usual SDMA priority heuristic).
	order := make([]int, L)
	for i := range order {
		order[i] = i
	}
	bestGain := func(l int) float64 {
		g := 0.0
		for k := 0; k < nw.NumChannels; k++ {
			if nw.Gains.Direct[l][k] > g {
				g = nw.Gains.Direct[l][k]
			}
		}
		return g
	}
	sort.Slice(order, func(a, b int) bool { return bestGain(order[a]) > bestGain(order[b]) })

	assigned := make([]bool, L)
	for _, l := range order {
		prefs := channelPrefs(nw, l)
		chosen := prefs[0]
		for _, k := range prefs {
			if c.fits(nw, assign, assigned, l, k) {
				chosen = k
				break
			}
		}
		assign[l] = chosen
		assigned[l] = true
	}
	return assign
}

// fits reports whether link l can join channel k under the exclusion
// distance rule.
func (c ChannelAllocation) fits(nw *netmodel.Network, assign []int, assigned []bool, l, k int) bool {
	if c.ExclusionDist <= 0 {
		return true
	}
	for other := range assign {
		if !assigned[other] || other == l || assign[other] != k {
			continue
		}
		if nw.Links[other].Seg.TX.Dist(nw.Links[l].Seg.TX) < c.ExclusionDist {
			return false
		}
	}
	return true
}

// channelPrefs lists channels in descending direct-gain order for l,
// restricted to channels where the link can reach at least the lowest
// rate level transmitting alone (assigning an unservable channel would
// strand the link's demand forever). If no channel is servable the
// unrestricted best-gain order is returned and the caller's run will
// surface the unservability as an error.
func channelPrefs(nw *netmodel.Network, l int) []int {
	var prefs []int
	for k := 0; k < nw.NumChannels; k++ {
		if nw.SoloRate(l, k) > 0 {
			prefs = append(prefs, k)
		}
	}
	if len(prefs) == 0 {
		prefs = make([]int, nw.NumChannels)
		for k := range prefs {
			prefs[k] = k
		}
	}
	sort.Slice(prefs, func(a, b int) bool {
		return nw.Gains.Direct[l][prefs[a]] > nw.Gains.Direct[l][prefs[b]]
	})
	return prefs
}

// Benchmark2 is the frame-based heuristic of [9]/[10] with the channel
// allocation of [8]: channels are fixed per link up front; each slot,
// per channel, links are greedily packed into a concurrent group in
// descending remaining-demand order, admitting a link only if the
// whole group stays SINR-feasible at fixed PMax transmit power (no
// power adaptation). Each admitted link transmits at the highest level
// its achieved SINR supports.
type Benchmark2 struct {
	Alloc ChannelAllocation

	assignment []int // lazily computed per network
	forNet     *netmodel.Network
}

var _ sim.Policy = (*Benchmark2)(nil)

// Name implements sim.Policy.
func (*Benchmark2) Name() string { return "benchmark2" }

// Decide implements sim.Policy.
func (b *Benchmark2) Decide(nw *netmodel.Network, rem *sim.Remaining, slot int) (*schedule.Schedule, error) {
	if b.forNet != nw {
		b.assignment = b.Alloc.Assign(nw)
		b.forNet = nw
	}

	// Pending links per channel, by descending remaining demand (the
	// frame-based heuristic serves the heaviest queues first).
	perChannel := make(map[int][]int)
	for l := 0; l < nw.NumLinks(); l++ {
		if !rem.Done(l) {
			k := b.assignment[l]
			perChannel[k] = append(perChannel[k], l)
		}
	}
	usedNode := make(map[int]bool)
	var selLinks, selChans []int
	channels := sortedKeys(perChannel)
	for _, k := range channels {
		links := perChannel[k]
		sort.Slice(links, func(a, b int) bool {
			da := remSum(rem, links[a])
			db := remSum(rem, links[b])
			if da != db {
				return da > db
			}
			return links[a] < links[b]
		})
		var group []int
		for _, l := range links {
			lk := nw.Links[l]
			if usedNode[lk.TXNode] || usedNode[lk.RXNode] {
				continue
			}
			cand := append(append([]int(nil), group...), l)
			if !groupFeasible(nw, k, cand) {
				continue
			}
			group = cand
			usedNode[lk.TXNode] = true
			usedNode[lk.RXNode] = true
		}
		for _, l := range group {
			selLinks = append(selLinks, l)
			selChans = append(selChans, k)
		}
	}

	// Final achieved levels under the full concurrent pattern and the
	// network's interference model; drowned links transmit uselessly.
	powers := make([]float64, len(selLinks))
	for i := range powers {
		powers[i] = nw.PMax
	}
	var out schedule.Schedule
	for i, l := range selLinks {
		sinr := nw.SINRAssigned(i, selLinks, selChans, powers)
		q := nw.Rates.BestLevel(sinr)
		if q < 0 {
			continue
		}
		out.Assignments = append(out.Assignments, schedule.Assignment{
			Link: l, Channel: selChans[i], Level: q, Layer: pendingLayer(rem, l), Power: nw.PMax,
		})
	}
	if len(out.Assignments) == 0 {
		if allDone(rem) {
			return nil, nil
		}
		// Mutual drowning: serve the neediest pending link alone. remSum
		// may be far below zero (overshoot is kept), so any pending link
		// beats the starting need.
		best, need := -1, math.Inf(-1)
		for l := 0; l < nw.NumLinks(); l++ {
			if rem.Done(l) {
				continue
			}
			if n := remSum(rem, l); n > need {
				need = n
				best = l
			}
		}
		k := b.assignment[best]
		q := nw.Rates.BestLevel(nw.Gains.Direct[best][k] * nw.PMax / nw.Noise[best])
		if q < 0 {
			return nil, fmt.Errorf("baseline: link %d unservable on its allocated channel %d", best, k)
		}
		out.Assignments = append(out.Assignments, schedule.Assignment{
			Link: best, Channel: k, Level: q, Layer: pendingLayer(rem, best), Power: nw.PMax,
		})
	}
	out.Normalize()
	return &out, nil
}

// sortedKeys returns the map's keys in ascending order for
// deterministic iteration.
func sortedKeys(m map[int][]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// groupFeasible reports whether every member of the group meets the
// lowest rate threshold at PMax on channel k.
func groupFeasible(nw *netmodel.Network, k int, group []int) bool {
	powers := make([]float64, len(group))
	for i := range powers {
		powers[i] = nw.PMax
	}
	for _, l := range group {
		if nw.SINR(l, k, group, powers) < nw.Rates.Gammas[0] {
			return false
		}
	}
	return true
}

// allDone reports whether no pending demand remains.
func allDone(rem *sim.Remaining) bool { return rem.AllDone() }

// pendingLayer returns the highest-priority class with bits remaining
// on link l (the last class when everything is drained — the classic
// HP-then-LP pick generalized to N classes).
func pendingLayer(rem *sim.Remaining, l int) schedule.Layer {
	nc := rem.Classes()
	for c := 0; c < nc-1; c++ {
		if rem.At(c, l) > 0 {
			return schedule.ClassLayer(c)
		}
	}
	return schedule.ClassLayer(nc - 1)
}

// remSum is link l's remaining bits summed over classes without
// clamping (negative overshoot from the executor's subtraction is kept
// so demand-ordering ties break exactly as the two-class code did).
func remSum(rem *sim.Remaining, l int) float64 {
	var v float64
	for c := 0; c < rem.Classes(); c++ {
		v += rem.At(c, l)
	}
	return v
}

// TDMA serves one link per slot (the pending link with the largest
// remaining demand) on its best channel at the highest solo level —
// the schedule the master problem is initialized from.
type TDMA struct{}

var _ sim.Policy = TDMA{}

// Name implements sim.Policy.
func (TDMA) Name() string { return "tdma" }

// Decide implements sim.Policy.
func (TDMA) Decide(nw *netmodel.Network, rem *sim.Remaining, slot int) (*schedule.Schedule, error) {
	best, need := -1, 0.0
	for l := 0; l < nw.NumLinks(); l++ {
		if rem.Done(l) {
			continue
		}
		if n := rem.LinkTotal(l); n > need || best < 0 {
			need = n
			best = l
		}
	}
	if best < 0 {
		return nil, nil
	}
	k, sinr := nw.BestSingleLinkChannel(best)
	q := nw.Rates.BestLevel(sinr)
	if q < 0 {
		return nil, fmt.Errorf("baseline: link %d unservable even alone", best)
	}
	return &schedule.Schedule{Assignments: []schedule.Assignment{{
		Link: best, Channel: k, Level: q, Layer: pendingLayer(rem, best), Power: nw.PMax,
	}}}, nil
}

// Package netmodel defines the mmWave network instance the optimizer
// works on: links (transmitter/receiver node pairs), channels, the
// gain structure, noise, the discrete rate/SINR-threshold table used
// for power adaptation, and the SINR arithmetic — including the
// power-control feasibility test (minimal power solution) that the
// column-generation pricer relies on.
package netmodel

import (
	"fmt"
	"math"
	"sync"

	"mmwave/internal/channel"
	"mmwave/internal/geom"
)

// RateTable maps discrete SINR thresholds γ^q to achievable data rates
// u^q (eq. 2 of the paper: u = W·log₂(1+γ)). Thresholds are strictly
// ascending, so Rates is ascending too.
type RateTable struct {
	Gammas []float64 // SINR thresholds (linear, not dB), ascending
	Rates  []float64 // achievable rates at each threshold, bits/s
}

// NewShannonRateTable derives the rate for each threshold from the
// Shannon capacity at the given bandwidth.
func NewShannonRateTable(bandwidthHz float64, gammas []float64) RateTable {
	rates := make([]float64, len(gammas))
	for i, g := range gammas {
		rates[i] = bandwidthHz * math.Log2(1+g)
	}
	return RateTable{Gammas: append([]float64(nil), gammas...), Rates: rates}
}

// Levels returns Q, the number of discrete rate levels.
func (rt RateTable) Levels() int { return len(rt.Gammas) }

// BestLevel returns the highest level q whose threshold is satisfied by
// the given SINR, or -1 if even the lowest threshold fails.
func (rt RateTable) BestLevel(sinr float64) int {
	best := -1
	for q, g := range rt.Gammas {
		if sinr >= g {
			best = q
		} else {
			break
		}
	}
	return best
}

// Validate checks the table for shape and monotonicity errors.
func (rt RateTable) Validate() error {
	if len(rt.Gammas) == 0 {
		return fmt.Errorf("netmodel: empty rate table")
	}
	if len(rt.Rates) != len(rt.Gammas) {
		return fmt.Errorf("netmodel: %d rates for %d thresholds", len(rt.Rates), len(rt.Gammas))
	}
	for q := range rt.Gammas {
		if rt.Gammas[q] <= 0 {
			return fmt.Errorf("netmodel: threshold %d is %g, want > 0", q, rt.Gammas[q])
		}
		if rt.Rates[q] <= 0 {
			return fmt.Errorf("netmodel: rate %d is %g, want > 0", q, rt.Rates[q])
		}
		if q > 0 && rt.Gammas[q] <= rt.Gammas[q-1] {
			return fmt.Errorf("netmodel: thresholds not ascending at %d", q)
		}
	}
	return nil
}

// Link is one transmitter→receiver pair carrying a video session.
type Link struct {
	TXNode, RXNode int          // node identifiers (for half-duplex conflicts)
	Seg            geom.Segment // geometry; zero value allowed for abstract models
}

// InterferenceModel selects which concurrent transmitters interfere
// with a receiver.
type InterferenceModel uint8

const (
	// PerChannel counts only co-channel transmitters (the physical
	// model of eq. 3: orthogonal channels do not interfere).
	PerChannel InterferenceModel = iota
	// Global counts every concurrent transmitter regardless of its
	// channel, with the cross gain evaluated on the victim's channel.
	// This is the paper's pricing formulation (eqs. 26–28 sum over all
	// l' ∈ L) — conservative, and the model under which the paper's
	// scheduling-time-versus-links trends arise (spatial reuse
	// saturates as ‖L‖ grows).
	Global
)

// String implements fmt.Stringer.
func (m InterferenceModel) String() string {
	switch m {
	case PerChannel:
		return "per-channel"
	case Global:
		return "global"
	default:
		return fmt.Sprintf("InterferenceModel(%d)", uint8(m))
	}
}

// Network is one problem instance: everything the schedulers need to
// evaluate SINR feasibility and achievable rates.
type Network struct {
	Links       []Link
	NumChannels int
	Gains       *channel.Gains // Direct[l][k] = H_l^k, Cross[l'][l][k] = H_{l'l}^k
	Noise       []float64      // per-link receiver noise power ρ_l, W
	PMax        float64        // maximum transmit power, W
	Rates       RateTable
	BandwidthHz float64 // channel bandwidth W (for reporting; rates already folded in)

	// Interference selects the interference accounting (PerChannel by
	// default; Global reproduces the paper's SP formulation).
	Interference InterferenceModel

	// MultiChannel enables the paper's §III extension: a link may carry
	// each of its traffic classes on a different channel in the same
	// time slot (channel aggregation), each stream with its own power
	// ≤ PMax. When false (the default and the paper's main setting,
	// eq. 6/30), a link uses at most one channel per slot.
	MultiChannel bool

	// NumTrafficClasses is the number of prioritized traffic classes
	// the network carries (the demand vector width schedules may
	// address). Zero means the paper's classic two classes (HP/LP);
	// see TrafficClasses.
	NumTrafficClasses int
}

// TrafficClasses returns the effective traffic-class count: the
// configured NumTrafficClasses, defaulting to the paper's two layers
// when unset.
func (n *Network) TrafficClasses() int {
	if n.NumTrafficClasses <= 0 {
		return 2
	}
	return n.NumTrafficClasses
}

// NumLinks returns the number of links.
func (n *Network) NumLinks() int { return len(n.Links) }

// Fingerprint hashes the problem instance (FNV-1a): link topology,
// channel count, every direct and cross gain, noise, power budget,
// rate table, interference model, MultiChannel and the traffic-class
// count. Two networks with equal fingerprints define the same P1, so
// pooled schedules and a warm basis built on one are valid on the
// other. BandwidthHz and link geometry are not hashed: rates already
// fold in the bandwidth, and gains the geometry.
func (n *Network) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	f := func(v float64) { word(math.Float64bits(v)) }
	word(uint64(len(n.Links)))
	for _, l := range n.Links {
		word(uint64(int64(l.TXNode)))
		word(uint64(int64(l.RXNode)))
	}
	word(uint64(n.NumChannels))
	for _, row := range n.Gains.Direct {
		for _, g := range row {
			f(g)
		}
	}
	for _, m := range n.Gains.Cross {
		for _, row := range m {
			for _, g := range row {
				f(g)
			}
		}
	}
	for _, rho := range n.Noise {
		f(rho)
	}
	f(n.PMax)
	word(uint64(len(n.Rates.Gammas)))
	for i := range n.Rates.Gammas {
		f(n.Rates.Gammas[i])
		f(n.Rates.Rates[i])
	}
	word(uint64(n.Interference))
	if n.MultiChannel {
		word(1)
	} else {
		word(0)
	}
	word(uint64(n.TrafficClasses()))
	return h
}

// Validate checks the instance for structural consistency.
func (n *Network) Validate() error {
	if n.NumChannels <= 0 {
		return fmt.Errorf("netmodel: NumChannels = %d, want > 0", n.NumChannels)
	}
	if n.PMax <= 0 {
		return fmt.Errorf("netmodel: PMax = %g, want > 0", n.PMax)
	}
	if n.NumTrafficClasses < 0 {
		return fmt.Errorf("netmodel: NumTrafficClasses = %d, want >= 0", n.NumTrafficClasses)
	}
	if err := n.Rates.Validate(); err != nil {
		return err
	}
	if n.Gains == nil {
		return fmt.Errorf("netmodel: nil gains")
	}
	if err := n.Gains.Validate(); err != nil {
		return err
	}
	if n.Gains.NumLinks() != len(n.Links) {
		return fmt.Errorf("netmodel: gains cover %d links, network has %d", n.Gains.NumLinks(), len(n.Links))
	}
	if n.Gains.NumChannels() != n.NumChannels && len(n.Links) > 0 {
		return fmt.Errorf("netmodel: gains cover %d channels, network has %d", n.Gains.NumChannels(), n.NumChannels)
	}
	if len(n.Noise) != len(n.Links) {
		return fmt.Errorf("netmodel: %d noise entries for %d links", len(n.Noise), len(n.Links))
	}
	for l, rho := range n.Noise {
		if rho <= 0 {
			return fmt.Errorf("netmodel: noise on link %d is %g, want > 0", l, rho)
		}
	}
	for l, lk := range n.Links {
		if lk.TXNode == lk.RXNode {
			return fmt.Errorf("netmodel: link %d has TXNode == RXNode == %d", l, lk.TXNode)
		}
	}
	return nil
}

// SharesNode reports whether two links have a node in common; such
// links cannot be active simultaneously (half-duplex, eq. 31).
func (n *Network) SharesNode(l1, l2 int) bool {
	a, b := n.Links[l1], n.Links[l2]
	return a.TXNode == b.TXNode || a.TXNode == b.RXNode ||
		a.RXNode == b.TXNode || a.RXNode == b.RXNode
}

// SINR evaluates the SINR at link l's receiver on channel k when the
// links in active transmit with the given powers (parallel slices).
// Link l must appear in active.
func (n *Network) SINR(l, k int, active []int, powers []float64) float64 {
	var signal, interference float64
	found := false
	for i, lp := range active {
		if lp == l {
			signal = n.Gains.Direct[l][k] * powers[i]
			found = true
			continue
		}
		interference += n.Gains.Cross[lp][l][k] * powers[i]
	}
	if !found {
		return 0
	}
	return signal / (n.Noise[l] + interference)
}

// SINRAssigned evaluates the SINR at the receiver of active[i] when
// every active link transmits on its assigned channel (chans parallel
// to active) with the given powers, under the network's interference
// model: co-channel transmitters always interfere; under Global,
// transmitters on other channels interfere too, with their cross gain
// evaluated on the victim's channel.
func (n *Network) SINRAssigned(i int, active []int, chans []int, powers []float64) float64 {
	l := active[i]
	k := chans[i]
	signal := n.Gains.Direct[l][k] * powers[i]
	var interference float64
	for j, lp := range active {
		if j == i {
			continue
		}
		if n.Interference == PerChannel && chans[j] != k {
			continue
		}
		interference += n.Gains.Cross[lp][l][k] * powers[j]
	}
	return signal / (n.Noise[l] + interference)
}

// powerScratch is the reusable workspace of one MinPowersAssigned
// call: the augmented system matrix and the solution vector in flat
// backing arrays.
type powerScratch struct {
	buf []float64
	sol []float64
}

// powerPool recycles workspaces across feasibility probes; the pricer
// performs millions of them.
var powerPool = sync.Pool{New: func() interface{} { return &powerScratch{} }}

// MinPowers computes the component-wise minimal power vector that
// satisfies SINR_l ≥ gamma[i] for every active link l = active[i] on
// the single shared channel k, subject to 0 ≤ P ≤ PMax. It returns
// (powers, true) when such a vector exists and (nil, false) otherwise.
// Interference is co-channel by construction (every link is on k), so
// the result is identical under both interference models.
func (n *Network) MinPowers(k int, active []int, gamma []float64) ([]float64, bool) {
	if len(active) == 0 {
		return nil, true
	}
	chans := make([]int, len(active))
	for i := range chans {
		chans[i] = k
	}
	return n.MinPowersAssigned(active, chans, gamma)
}

// MinPowersAssigned is the channel-assignment-aware generalization of
// MinPowers: active[i] transmits on chans[i] and must reach SINR
// gamma[i] under the network's interference model.
//
// The thresholds define the linear system (I − F)·P = b with
// F_{ij} = γ_i·H_{l_j,l_i}^{k_i}/H_{l_i}^{k_i} over interfering pairs
// and b_i = γ_i·ρ_i/H_i. A feasible power vector within [0, PMax]
// exists iff the system's solution is non-negative, within the cap,
// and achieves the thresholds (the classic Foschini–Miljanic result:
// any non-negative fixed point bounds the monotone iterates from
// below, so the minimal solution exists exactly when the direct solve
// verifies). The solve is performed in a pooled workspace; this is the
// innermost primitive of the pricing search.
func (n *Network) MinPowersAssigned(active []int, chans []int, gamma []float64) ([]float64, bool) {
	if len(active) == 0 {
		return nil, true
	}
	ws := powerPool.Get().(*powerScratch)
	defer powerPool.Put(ws)
	scratchSol, ok := n.solveAssigned(ws, active, chans, gamma)
	if !ok {
		return nil, false
	}
	return append([]float64(nil), scratchSol...), true
}

// FeasibleAssigned reports whether the assigned activation pattern
// admits powers within [0, PMax] — the same verdict MinPowersAssigned
// returns, computed with byte-identical arithmetic but without
// allocating the power vector. This is the form the pricing search's
// probes want: of the millions of feasibility questions a solve asks,
// only the handful on accepted schedules need the powers themselves.
func (n *Network) FeasibleAssigned(active []int, chans []int, gamma []float64) bool {
	if len(active) == 0 {
		return true
	}
	ws := powerPool.Get().(*powerScratch)
	defer powerPool.Put(ws)
	_, ok := n.solveAssigned(ws, active, chans, gamma)
	return ok
}

// solveAssigned runs the Foschini–Miljanic solve in the given
// workspace. On success the returned slice aliases ws.sol and is valid
// only until the workspace is recycled.
func (n *Network) solveAssigned(ws *powerScratch, active []int, chans []int, gamma []float64) ([]float64, bool) {
	m := len(active)
	if cap(ws.buf) < m*(m+1) {
		ws.buf = make([]float64, m*(m+1))
	}
	a := ws.buf[:m*(m+1)] // augmented [I−F | b], row-major, stride m+1
	stride := m + 1

	for i, l := range active {
		k := chans[i]
		h := n.Gains.Direct[l][k]
		if h <= 0 {
			return nil, false // no direct gain: threshold unreachable
		}
		row := a[i*stride : (i+1)*stride]
		for j, lp := range active {
			switch {
			case i == j:
				row[j] = 1
			case n.Interference == PerChannel && chans[j] != k:
				row[j] = 0
			default:
				row[j] = -gamma[i] * n.Gains.Cross[lp][l][k] / h
			}
		}
		bi := gamma[i] * n.Noise[l] / h
		if bi > n.PMax*(1+1e-9) {
			return nil, false // even interference-free power exceeds the cap
		}
		row[m] = bi
	}

	// In-place Gauss-Jordan with partial pivoting on the augmented
	// system.
	for col := 0; col < m; col++ {
		pr := col
		for r := col + 1; r < m; r++ {
			if math.Abs(a[r*stride+col]) > math.Abs(a[pr*stride+col]) {
				pr = r
			}
		}
		piv := a[pr*stride+col]
		if math.Abs(piv) < 1e-12 {
			return nil, false // singular: treat as infeasible
		}
		if pr != col {
			for j := col; j <= m; j++ {
				a[col*stride+j], a[pr*stride+j] = a[pr*stride+j], a[col*stride+j]
			}
		}
		inv := 1 / piv
		for j := col; j <= m; j++ {
			a[col*stride+j] *= inv
		}
		for r := 0; r < m; r++ {
			if r == col {
				continue
			}
			f := a[r*stride+col]
			if f == 0 {
				continue
			}
			for j := col; j <= m; j++ {
				a[r*stride+j] -= f * a[col*stride+j]
			}
		}
	}

	if cap(ws.sol) < m {
		ws.sol = make([]float64, m)
	}
	sol := ws.sol[:m]
	for i := 0; i < m; i++ {
		v := a[i*stride+m]
		if v < -1e-9 || v > n.PMax*(1+1e-7) {
			return nil, false
		}
		sol[i] = v
	}
	clampPowers(sol, n.PMax)
	// Explicit SINR verification: a solve of an infeasible system
	// (spectral radius ≥ 1) that happens to land in the box is caught
	// here, and roundoff never certifies a violating vector.
	for i := range active {
		if n.SINRAssigned(i, active, chans, sol) < gamma[i]*(1-1e-6) {
			return nil, false
		}
	}
	return sol, true
}

// clampPowers clips small overshoots above PMax from roundoff.
func clampPowers(p []float64, pmax float64) {
	for i := range p {
		if p[i] > pmax {
			p[i] = pmax
		}
		if p[i] < 0 {
			p[i] = 0
		}
	}
}

// BestSingleLinkChannel returns the channel with the highest direct
// gain for link l (the channel a solo TDMA transmission would pick) and
// the SINR the link achieves there alone at full power.
func (n *Network) BestSingleLinkChannel(l int) (bestK int, sinr float64) {
	bestK = 0
	bestGain := -1.0
	for k := 0; k < n.NumChannels; k++ {
		if g := n.Gains.Direct[l][k]; g > bestGain {
			bestGain = g
			bestK = k
		}
	}
	return bestK, bestGain * n.PMax / n.Noise[l]
}

// SoloRate returns the highest achievable discrete rate of link l
// transmitting alone at full power on channel k, or 0 if no threshold
// is met.
func (n *Network) SoloRate(l, k int) float64 {
	sinr := n.Gains.Direct[l][k] * n.PMax / n.Noise[l]
	q := n.Rates.BestLevel(sinr)
	if q < 0 {
		return 0
	}
	return n.Rates.Rates[q]
}

package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"mmwave/internal/cg"
	"mmwave/internal/netmodel"
	"mmwave/internal/schedule"
)

// BranchBoundPricer solves the pricing sub-problem exactly with a
// problem-specific branch and bound. It exploits three structural
// facts of the SP (eqs. 27–33):
//
//  1. Class choice collapses: a link transmitting in one schedule earns
//     λ_c·u at the same SINR threshold whichever class c it serves, so
//     the better class is simply the one with the larger dual (ties go
//     to the higher-priority class).
//  2. Links with zero dual value never belong to an optimal schedule —
//     they add interference and earn nothing.
//  3. Per-channel SINR feasibility of an active set with chosen levels
//     reduces to the minimal-power test (netmodel.MinPowersAssigned), which is
//     monotone: supersets and higher levels are never easier.
//
// The search branches over candidate links in descending best-case
// contribution order; each link either stays idle or picks a
// (channel, level). Sub-trees are pruned by an optimistic suffix bound
// and by per-channel power feasibility.
type BranchBoundPricer struct {
	probeBudget int

	// FixedPower disables power adaptation: every active link
	// transmits at PMax and feasibility requires the thresholds to hold
	// at that fixed power. This reproduces the paper's power-adaptation
	// ablation (Benchmark 2 lacks power control).
	FixedPower bool

	// Parallel is ignored: the search is serial. Parallelism comes
	// from pricing independent solves concurrently (sweep cells, host
	// cells), which keeps every walk reproducible.
	//
	// Deprecated: a no-op kept only because perfbench's replay still
	// assigns it.
	Parallel int

	// PoolLeaves, when > 0, pools up to this many improving complete
	// DFS leaves (pricing value > 1, i.e. negative reduced cost) and
	// returns them in PriceResult.Extras for multi-column admission.
	// Collection is passive: pruning and the returned argmax are
	// untouched. NewBranchBoundPricer sets it to the engine's per-round
	// bound; zero prices one column per round.
	PoolLeaves int

	// referenceProbes (test-only) answers every feasibility probe with
	// the full pivoted solve instead of the incremental bordered-LU
	// probe solver, for fast-vs-reference equivalence tests.
	referenceProbes bool

	// statePool recycles DFS states (incl. their probe solvers and
	// scratch) across pricing calls. A state belongs to one call while
	// checked out, so one pricer may serve concurrent Price calls.
	statePool sync.Pool
}

var _ ContextPricer = (*BranchBoundPricer)(nil)

// defaultPricerBudget bounds pricing feasibility probes per call. Each
// probe is one power-control feasibility test, the unit of real work
// in the search; bounding probes bounds wall-clock time regardless of
// instance shape.
const defaultPricerBudget = 60_000

// NewBranchBoundPricer returns the default pricer: it may spend up to
// probeBudget feasibility probes per Price call (0 means the default)
// and pools up to cg.MultiColumnPolicy's bound of improving leaves per
// round. When the budget is exhausted the best schedule found so far
// is returned with Exact=false and a valid relaxation bound.
func NewBranchBoundPricer(probeBudget int) *BranchBoundPricer {
	if probeBudget <= 0 {
		probeBudget = defaultPricerBudget
	}
	return &BranchBoundPricer{probeBudget: probeBudget, PoolLeaves: cg.MultiColumnPolicy{}.Columns()}
}

// String implements Pricer.
func (p *BranchBoundPricer) String() string {
	s := fmt.Sprintf("branch-bound(budget=%d", p.probeBudget)
	if p.FixedPower {
		s += ", fixed-power"
	}
	return s + ")"
}

// candidate is one link the pricer may activate.
type candidate struct {
	link    int
	layer   schedule.Layer
	lam     float64 // max_c λ_c (or the candidate's class dual under MultiChannel)
	best    float64 // optimistic contribution = lam · max achievable rate
	qmax    []int   // per channel: highest solo-feasible level, -1 if none
	chOrder []int   // channels in descending direct-gain order
}

// pricerState is one pricing call's mutable DFS state.
type pricerState struct {
	nw         *netmodel.Network
	cands      []candidate
	suffixBest []float64 // suffixBest[i] = Σ_{j≥i} cands[j].best

	budget int // feasibility probes the search may spend
	// done, when non-nil, is polled periodically so an expired solve
	// budget halts the search mid-tree; the best-so-far incumbent and
	// the upfront relaxation bound stay valid.
	done <-chan struct{}

	chActive [][]int     // per channel: active candidate indices (into cands)
	chLevels [][]float64 // per channel: γ thresholds parallel to chActive
	sibling  [][]int     // per candidate: indices of the same link's other-class candidates (nil when alone)

	// Half-duplex ownership over dense node indices: linkTX/linkRX map
	// each link to its nodes' indices (built once per network), and
	// nodeOwner holds each node's owning link or −1 when free. A link's
	// class-streams share its nodes.
	linkTX, linkRX []int
	nodeOwner      []int

	assign []assignChoice // per candidate: current choice

	bestVal    float64
	bestAssign []assignChoice

	// Leaf pool (multi-column pricing): the top poolLeaves improving,
	// activation-diverse complete assignments seen by the DFS,
	// value-keyed, buffers recycled across calls. poolLeaves is 0
	// unless the owning pricer enables pooling.
	poolLeaves  int
	leafVals    []float64
	leafSigs    []uint64
	leafAssigns [][]assignChoice

	nodes      int // dfs nodes (telemetry)
	probes     int // feasibility probes (the budget unit)
	lastPoll   int
	halted     bool
	fixedPower bool
	reference  bool // test-only: answer probes with the full pivoted solve

	// probe answers feasibility questions incrementally: the committed
	// activation pattern mirrors the DFS path (pushed/popped alongside
	// chActive), so each probe is one O(m²) bordered solve instead of
	// an O(m³) rebuild. One solver covers both interference models —
	// the PerChannel masking zeroes cross-channel matrix entries, and
	// since the committed blocks are always feasible, the full-pattern
	// verdict equals the probed channel's block verdict.
	probe *netmodel.ProbeSolver

	// Scratch buffers reused across feasibility probes (assembled-path
	// probes only: fixed power or reference mode).
	scratchLinks  []int
	scratchChans  []int
	scratchGammas []float64
	scratchPowers []float64
}

// assignChoice is a candidate's decision: idle (channel == -1) or an
// activation.
type assignChoice struct {
	channel int
	level   int
}

// Price implements Pricer.
func (p *BranchBoundPricer) Price(nw *netmodel.Network, lambda [][]float64) (*PriceResult, error) {
	return p.price(nil, nw, lambda)
}

// PriceContext implements ContextPricer: the search polls ctx and
// halts mid-tree on cancellation, returning the best schedule found so
// far with Exact=false and the valid interference-free relaxation
// bound.
func (p *BranchBoundPricer) PriceContext(ctx context.Context, nw *netmodel.Network, lambda [][]float64) (*PriceResult, error) {
	return p.price(ctx.Done(), nw, lambda)
}

// checkDuals validates one class-major dual matrix against the network.
func checkDuals(nw *netmodel.Network, lambda [][]float64) error {
	if len(lambda) == 0 {
		return fmt.Errorf("core: empty dual matrix")
	}
	for c, lam := range lambda {
		if len(lam) != nw.NumLinks() {
			return fmt.Errorf("core: class-%d dual vector sized %d for %d links", c, len(lam), nw.NumLinks())
		}
	}
	return nil
}

func (p *BranchBoundPricer) price(done <-chan struct{}, nw *netmodel.Network, lambda [][]float64) (*PriceResult, error) {
	L := nw.NumLinks()
	if err := checkDuals(nw, lambda); err != nil {
		return nil, err
	}

	const lamTol = 1e-12
	var cands []candidate
	var relax float64
	for l := 0; l < L; l++ {
		qmax := make([]int, nw.NumChannels)
		bestRate := -1.0
		usable := false
		for k := 0; k < nw.NumChannels; k++ {
			sinr := nw.Gains.Direct[l][k] * nw.PMax / nw.Noise[l]
			q := nw.Rates.BestLevel(sinr)
			qmax[k] = q
			if q >= 0 {
				usable = true
				if r := nw.Rates.Rates[q]; r > bestRate {
					bestRate = r
				}
			}
		}
		if !usable {
			continue
		}
		var chOrder []int
		addCand := func(layer schedule.Layer, lam float64) {
			if lam <= lamTol {
				return
			}
			if chOrder == nil {
				chOrder = channelOrder(nw, l)
			}
			c := candidate{
				link: l, layer: layer, lam: lam, best: lam * bestRate, qmax: qmax,
				chOrder: chOrder,
			}
			cands = append(cands, c)
			relax += c.best
		}
		if nw.MultiChannel {
			// §III extension: classes may ride different channels in
			// the same slot, so each class is its own candidate (in
			// priority order — HP before LP in the two-class case).
			for c := range lambda {
				addCand(schedule.ClassLayer(c), lambda[c][l])
			}
		} else {
			// Class choice collapses to the larger dual (same rate,
			// same threshold); ties resolve to the higher-priority
			// class via the strict comparison.
			lam, cls := lambda[0][l], 0
			for c := 1; c < len(lambda); c++ {
				if lambda[c][l] > lam {
					lam, cls = lambda[c][l], c
				}
			}
			addCand(schedule.ClassLayer(cls), lam)
		}
	}

	if len(cands) == 0 {
		return &PriceResult{Schedule: nil, Value: 0, Exact: true, RelaxValue: 0}, nil
	}

	sort.Slice(cands, func(i, j int) bool { return cands[i].best > cands[j].best })
	suffix := make([]float64, len(cands)+1)
	for i := len(cands) - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + cands[i].best
	}
	sibling := make([][]int, len(cands))
	if nw.MultiChannel {
		byLink := make(map[int][]int, len(cands))
		for i, c := range cands {
			byLink[c.link] = append(byLink[c.link], i)
		}
		for _, group := range byLink {
			if len(group) < 2 {
				continue
			}
			for _, i := range group {
				for _, j := range group {
					if j != i {
						sibling[i] = append(sibling[i], j)
					}
				}
			}
		}
	}

	st := p.getState(done, nw, cands, suffix, sibling)

	// Seed the incumbent with the greedy heuristic: a strong initial
	// bound prunes most of the tree, and the exact search can only
	// improve on it.
	if !p.FixedPower {
		if seed, err := (GreedyPricer{}).Price(nw, lambda); err == nil && seed.Schedule != nil {
			if assign, ok := seedAssignment(cands, seed.Schedule); ok {
				st.bestVal, st.bestAssign = seed.Value, assign
			}
		}
	}

	st.dfs(0, 0)
	bestVal, bestAssign := st.bestVal, st.bestAssign
	res := &PriceResult{
		Value:  bestVal,
		Exact:  !st.halted,
		Nodes:  st.nodes,
		Probes: st.probes,
		// Under truncation the interference-free relaxation Σ best_l is
		// a loose but valid upper bound on Ψ*; with an exhausted search
		// the found value itself is the tight bound.
		RelaxValue: relax,
		Extras:     st.buildLeafPool(nw, cands, bestAssign, p.FixedPower),
	}
	if res.Exact {
		res.RelaxValue = bestVal
	}
	p.putState(st)
	if bestVal > 0 && bestAssign != nil {
		sched, err := buildSchedule(nw, cands, bestAssign, p.FixedPower)
		if err != nil {
			return nil, err
		}
		res.Schedule = sched
	}
	return res, nil
}

// getState checks a DFS state out of the pricer's pool and re-arms it
// for the given search. Pool reuse keeps the per-call allocation cost
// near zero; a state is owned by exactly one call between getState and
// putState.
func (p *BranchBoundPricer) getState(done <-chan struct{}, nw *netmodel.Network, cands []candidate, suffix []float64, sibling [][]int) *pricerState {
	st, _ := p.statePool.Get().(*pricerState)
	if st == nil {
		st = &pricerState{}
	}
	st.budget, st.done = p.probeBudget, done
	st.cands = cands
	st.suffixBest = suffix
	st.sibling = sibling
	st.fixedPower = p.FixedPower
	st.reference = p.referenceProbes
	st.bestVal, st.bestAssign = 0, nil
	st.nodes, st.probes, st.lastPoll = 0, 0, 0
	st.halted = false
	st.poolLeaves = p.PoolLeaves
	st.leafVals = st.leafVals[:0]
	st.leafSigs = st.leafSigs[:0]
	st.leafAssigns = st.leafAssigns[:0]

	if st.nw != nw || len(st.chActive) < nw.NumChannels {
		st.nw = nw
		st.chActive = make([][]int, nw.NumChannels)
		st.chLevels = make([][]float64, nw.NumChannels)
		var nodes int
		st.linkTX, st.linkRX, nodes = denseNodes(nw)
		st.nodeOwner = make([]int, nodes)
		st.probe = nil
	}
	for n := range st.nodeOwner {
		st.nodeOwner[n] = -1
	}
	for k := 0; k < nw.NumChannels; k++ {
		st.chActive[k] = st.chActive[k][:0]
		st.chLevels[k] = st.chLevels[k][:0]
	}
	if cap(st.assign) < len(cands) {
		st.assign = make([]assignChoice, len(cands))
	}
	st.assign = st.assign[:len(cands)]
	for i := range st.assign {
		st.assign[i] = assignChoice{channel: -1}
	}
	if !st.fixedPower && !st.reference {
		if st.probe == nil || st.probe.Cap() < len(cands) {
			st.probe = netmodel.NewProbeSolver(nw, len(cands))
		} else {
			st.probe.Reset()
		}
	}
	return st
}

// putState returns a state to the pool. The caller must have copied
// out bestAssign/counters it still needs (bestAssign slices are fresh
// per improvement, so references remain valid after recycling).
func (p *BranchBoundPricer) putState(st *pricerState) {
	st.bestAssign = nil
	p.statePool.Put(st)
}

// activate commits candidate ci on channel k at level q: per-channel
// lists, the assignment, and the probe solver's committed pattern all
// advance together.
func (st *pricerState) activate(k, ci, q int) {
	st.chActive[k] = append(st.chActive[k], ci)
	st.chLevels[k] = append(st.chLevels[k], st.nw.Rates.Gammas[q])
	st.assign[ci] = assignChoice{channel: k, level: q}
	if st.probe != nil {
		st.probe.Push(st.cands[ci].link, k, st.nw.Rates.Gammas[q])
	}
}

// deactivate undoes the matching activate (LIFO along the DFS path).
func (st *pricerState) deactivate(k, ci int) {
	st.chActive[k] = st.chActive[k][:len(st.chActive[k])-1]
	st.chLevels[k] = st.chLevels[k][:len(st.chLevels[k])-1]
	st.assign[ci] = assignChoice{channel: -1}
	if st.probe != nil {
		st.probe.Pop()
	}
}

// seedAssignment maps a known feasible schedule (from the greedy
// heuristic) onto the candidate array as an initial incumbent.
func seedAssignment(cands []candidate, sched *schedule.Schedule) ([]assignChoice, bool) {
	type key struct {
		link  int
		layer schedule.Layer
	}
	byKey := make(map[key]int, len(cands))
	for ci, c := range cands {
		byKey[key{c.link, c.layer}] = ci
	}
	assign := make([]assignChoice, len(cands))
	for i := range assign {
		assign[i] = assignChoice{channel: -1}
	}
	for _, a := range sched.Assignments {
		ci, ok := byKey[key{a.Link, a.Layer}]
		if !ok {
			return nil, false // schedule references a non-candidate; skip seeding
		}
		assign[ci] = assignChoice{channel: a.Channel, level: a.Level}
	}
	return assign, true
}

// dfs explores candidate i with accumulated value.
func (st *pricerState) dfs(i int, value float64) {
	st.nodes++
	if st.probes > st.budget {
		st.halted = true
		return
	}
	// Poll the cancellation channel every few dozen probes: cheap
	// enough to be invisible, frequent enough that an expired solve
	// budget stops the search within microseconds.
	if st.done != nil && st.probes-st.lastPoll >= 64 {
		st.lastPoll = st.probes
		select {
		case <-st.done:
			st.halted = true
			return
		default:
		}
	}
	if value > st.bestVal {
		st.bestVal = value
		st.bestAssign = append([]assignChoice(nil), st.assign...)
	}
	if i >= len(st.cands) {
		st.recordLeaf(value)
		return
	}
	// Prune against max(incumbent, 1): schedules with pricing value
	// ≤ 1 have non-negative reduced cost and are useless to the master
	// problem, so subtrees that cannot exceed 1 need no exploration —
	// completing the search still proves Φ ≥ 0 (convergence).
	target := st.bestVal
	if target < 1 {
		target = 1 - 1e-12
	}
	if value+st.suffixBest[i] <= target+1e-15 {
		return // optimistic bound cannot beat the incumbent/threshold
	}

	c := &st.cands[i]
	// Half-duplex: the candidate may activate only if its nodes are
	// free or already owned by the same link (its other layer-stream
	// under the multi-channel extension).
	tx, rx := st.linkTX[c.link], st.linkRX[c.link]
	ownTX, ownRX := st.nodeOwner[tx], st.nodeOwner[rx]
	nodeFree := (ownTX < 0 || ownTX == c.link) && (ownRX < 0 || ownRX == c.link)

	if nodeFree {
		st.nodeOwner[tx], st.nodeOwner[rx] = c.link, c.link
		// Try channels in descending direct-gain order: feasible
		// high-gain placements first to tighten the incumbent early.
	channels:
		for _, k := range c.chOrder {
			// A link's class-streams must ride distinct channels.
			if channelTaken(st.sibling[i], st.assign, k) {
				continue
			}
			maxQ := c.qmax[k]
			for q := maxQ; q >= 0; q-- {
				if value+c.lam*st.nw.Rates.Rates[q]+st.suffixBest[i+1] <= target+1e-15 {
					break // lower q only shrinks this branch's bound further
				}
				if !st.feasibleWith(k, i, q) {
					continue
				}
				st.activate(k, i, q)
				st.dfs(i+1, value+c.lam*st.nw.Rates.Rates[q])
				st.deactivate(k, i)
				if st.halted {
					break channels
				}
			}
		}
		st.nodeOwner[tx], st.nodeOwner[rx] = ownTX, ownRX
		if st.halted {
			return
		}
	}

	// Idle branch.
	st.dfs(i+1, value)
}

// recordLeaf pools a complete improving assignment (Ψ > 1) into the
// bounded leaf pool. The pool is activation-diverse: it keeps at most
// one leaf — the best-valued one — per distinct set of active
// candidates, because the DFS visits long runs of siblings that differ
// only in channel or power level, and a batch of such near-duplicates
// teaches the master almost nothing (and breeds the numerically
// near-parallel columns the LP then has to sort out). When full, the
// weakest entry is replaced only by a strictly better value, so among
// equal values the first (DFS-order) leaf wins and serial collection
// is deterministic.
func (st *pricerState) recordLeaf(value float64) {
	if st.poolLeaves <= 0 || value <= 1+1e-12 {
		return
	}
	sig := activationSig(st.assign)
	for i, sg := range st.leafSigs {
		if sg == sig {
			if value > st.leafVals[i] {
				st.leafVals[i] = value
				st.leafAssigns[i] = append(st.leafAssigns[i][:0], st.assign...)
			}
			return
		}
	}
	if len(st.leafVals) >= st.poolLeaves {
		mi := 0
		for i, v := range st.leafVals {
			if v < st.leafVals[mi] {
				mi = i
			}
		}
		if value <= st.leafVals[mi] {
			return
		}
		st.leafVals[mi] = value
		st.leafSigs[mi] = sig
		st.leafAssigns[mi] = append(st.leafAssigns[mi][:0], st.assign...)
		return
	}
	st.leafVals = append(st.leafVals, value)
	st.leafSigs = append(st.leafSigs, sig)
	st.leafAssigns = append(st.leafAssigns, append([]assignChoice(nil), st.assign...))
}

// activationSig hashes which candidates are active (FNV-1a over the
// active indices), ignoring channels and power levels: assignments
// with the same active set are one diversity class.
func activationSig(assign []assignChoice) uint64 {
	h := uint64(14695981039346656037)
	for i := range assign {
		if assign[i].channel < 0 {
			continue
		}
		h ^= uint64(i) + 1
		h *= 1099511628211
	}
	return h
}

// buildLeafPool converts the pooled leaves into schedules, best value
// first (ties in discovery order), skipping the argmax assignment the
// caller already returns. Leaves that fail the power refit (cannot
// happen for DFS-verified patterns; defensive) are dropped.
func (st *pricerState) buildLeafPool(nw *netmodel.Network, cands []candidate, bestAssign []assignChoice, fixedPower bool) []*schedule.Schedule {
	if len(st.leafVals) == 0 {
		return nil
	}
	order := make([]int, len(st.leafVals))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return st.leafVals[order[a]] > st.leafVals[order[b]] })
	var out []*schedule.Schedule
	for _, idx := range order {
		assign := st.leafAssigns[idx]
		if sameAssignment(assign, bestAssign) {
			continue
		}
		sched, err := buildSchedule(nw, cands, assign, fixedPower)
		if err != nil || sched == nil {
			continue
		}
		out = append(out, sched)
	}
	return out
}

// sameAssignment reports elementwise equality of two full assignments.
func sameAssignment(a, b []assignChoice) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// channelTaken reports whether any sibling candidate already occupies
// channel k.
func channelTaken(siblings []int, assign []assignChoice, k int) bool {
	for _, sib := range siblings {
		if assign[sib].channel == k {
			return true
		}
	}
	return false
}

// feasibleWith tests whether the current activation pattern plus
// candidate ci on channel k at level q admits a power assignment
// within PMax. Under the per-channel interference model only channel
// k's active set matters; under the global model the whole
// cross-channel pattern is checked.
func (st *pricerState) feasibleWith(k, ci, q int) bool {
	st.probes++
	// The probe solver already holds the committed pattern's
	// factorization, so the question costs at most one O(m²) bordered
	// solve (O(m) for a sibling level it rejects) and zero allocations. It is unarmed only under fixed power and in the
	// test-only reference mode, which assemble the pattern instead.
	if st.probe != nil {
		return st.probe.Probe(st.cands[ci].link, k, st.nw.Rates.Gammas[q])
	}
	active := st.scratchLinks[:0]
	chans := st.scratchChans[:0]
	gammas := st.scratchGammas[:0]
	if st.nw.Interference == netmodel.Global {
		for kk := range st.chActive {
			for idx, cj := range st.chActive[kk] {
				active = append(active, st.cands[cj].link)
				chans = append(chans, kk)
				gammas = append(gammas, st.chLevels[kk][idx])
			}
		}
	} else {
		for idx, cj := range st.chActive[k] {
			active = append(active, st.cands[cj].link)
			chans = append(chans, k)
			gammas = append(gammas, st.chLevels[k][idx])
		}
	}
	active = append(active, st.cands[ci].link)
	chans = append(chans, k)
	gammas = append(gammas, st.nw.Rates.Gammas[q])
	st.scratchLinks = active
	st.scratchChans = chans
	st.scratchGammas = gammas
	if st.fixedPower {
		return st.fixedPowerFeasible(active, chans, gammas)
	}
	return st.nw.FeasibleAssigned(active, chans, gammas)
}

// fixedPowerFeasible checks the thresholds with every link at PMax.
func fixedPowerFeasible(nw *netmodel.Network, active []int, chans []int, gammas []float64) bool {
	powers := make([]float64, len(active))
	return fixedPowerFeasibleInto(nw, active, chans, gammas, powers)
}

// fixedPowerFeasible is the allocation-free probe form, reusing the
// search's power scratch.
func (st *pricerState) fixedPowerFeasible(active []int, chans []int, gammas []float64) bool {
	if cap(st.scratchPowers) < len(active) {
		st.scratchPowers = make([]float64, len(active))
	}
	return fixedPowerFeasibleInto(st.nw, active, chans, gammas, st.scratchPowers[:len(active)])
}

// fixedPowerFeasibleInto checks the thresholds at PMax in the given
// power buffer.
func fixedPowerFeasibleInto(nw *netmodel.Network, active []int, chans []int, gammas []float64, powers []float64) bool {
	for i := range powers {
		powers[i] = nw.PMax
	}
	for i := range active {
		if nw.SINRAssigned(i, active, chans, powers) < gammas[i] {
			return false
		}
	}
	return true
}

// buildSchedule converts the best assignment into a schedule with
// minimal feasible powers (PMax everywhere under FixedPower).
func buildSchedule(nw *netmodel.Network, cands []candidate, bestAssign []assignChoice, fixedPower bool) (*schedule.Schedule, error) {
	var cis, active, chans []int
	var gammas []float64
	for ci, a := range bestAssign {
		if a.channel < 0 {
			continue
		}
		cis = append(cis, ci)
		active = append(active, cands[ci].link)
		chans = append(chans, a.channel)
		gammas = append(gammas, nw.Rates.Gammas[a.level])
	}
	var powers []float64
	if fixedPower {
		if !fixedPowerFeasible(nw, active, chans, gammas) {
			return nil, fmt.Errorf("core: internal: best fixed-power assignment infeasible")
		}
		powers = make([]float64, len(active))
		for i := range powers {
			powers[i] = nw.PMax
		}
	} else {
		var ok bool
		powers, ok = nw.MinPowersAssigned(active, chans, gammas)
		if !ok {
			return nil, fmt.Errorf("core: internal: best assignment infeasible")
		}
	}
	var out schedule.Schedule
	for i, ci := range cis {
		out.Assignments = append(out.Assignments, schedule.Assignment{
			Link:    cands[ci].link,
			Channel: chans[i],
			Level:   bestAssign[ci].level,
			Layer:   cands[ci].layer,
			Power:   powers[i],
		})
	}
	out.Normalize()
	return &out, nil
}

// channelOrder returns channel indices sorted by descending direct gain
// for the link.
func channelOrder(nw *netmodel.Network, link int) []int {
	order := make([]int, nw.NumChannels)
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(a, b int) bool {
		return nw.Gains.Direct[link][order[a]] > nw.Gains.Direct[link][order[b]]
	})
	return order
}

// denseNodes maps every link's TX and RX node ids to dense indices
// 0..n−1 over the n distinct nodes, so half-duplex bookkeeping can use
// slices instead of maps keyed by arbitrary node ids.
func denseNodes(nw *netmodel.Network) (tx, rx []int, n int) {
	index := make(map[int]int, 2*len(nw.Links))
	dense := func(id int) int {
		i, ok := index[id]
		if !ok {
			i = len(index)
			index[id] = i
		}
		return i
	}
	tx = make([]int, len(nw.Links))
	rx = make([]int, len(nw.Links))
	for l, lk := range nw.Links {
		tx[l], rx[l] = dense(lk.TXNode), dense(lk.RXNode)
	}
	return tx, rx, len(index)
}

// greedyScratch is the greedy heuristic's per-network working set: the
// probe solver plus the dense node maps and occupancy of its
// half-duplex check.
type greedyScratch struct {
	probe          *netmodel.ProbeSolver
	linkTX, linkRX []int
	nodeUsed       []bool
}

// greedyScratchPool recycles greedyScratch values: the branch-and-bound
// pricer seeds from greedy on every Price call, so the solver's factors
// and scratch survive across CG iterations.
var greedyScratchPool sync.Pool

// GreedyPricer is a fast heuristic pricer: it greedily activates
// candidates in descending contribution order at the highest feasible
// level on their best feasible channel. It never proves optimality
// (Exact is false unless nothing is activatable) and serves as the
// branch-and-bound incumbent seed and as the greedy-pricing ablation's
// pricer.
type GreedyPricer struct{}

var _ Pricer = GreedyPricer{}

// String implements Pricer.
func (GreedyPricer) String() string { return "greedy" }

// Price implements Pricer.
func (GreedyPricer) Price(nw *netmodel.Network, lambda [][]float64) (*PriceResult, error) {
	L := nw.NumLinks()
	if err := checkDuals(nw, lambda); err != nil {
		return nil, err
	}
	type item struct {
		link  int
		layer schedule.Layer
		lam   float64
		best  float64
	}
	var items []item
	var relax float64
	for l := 0; l < L; l++ {
		lam, cls := lambda[0][l], 0
		for c := 1; c < len(lambda); c++ {
			if lambda[c][l] > lam {
				lam, cls = lambda[c][l], c
			}
		}
		layer := schedule.ClassLayer(cls)
		if lam <= 1e-12 {
			continue
		}
		bestRate := -1.0
		for k := 0; k < nw.NumChannels; k++ {
			sinr := nw.Gains.Direct[l][k] * nw.PMax / nw.Noise[l]
			if q := nw.Rates.BestLevel(sinr); q >= 0 && nw.Rates.Rates[q] > bestRate {
				bestRate = nw.Rates.Rates[q]
			}
		}
		if bestRate < 0 {
			continue
		}
		items = append(items, item{link: l, layer: layer, lam: lam, best: lam * bestRate})
		relax += lam * bestRate
	}
	sort.Slice(items, func(i, j int) bool { return items[i].best > items[j].best })

	// The accepted set grows one link at a time, so the incremental
	// probe solver answers each candidate placement in O(m²) without
	// assembling (or allocating) the pattern.
	sc, _ := greedyScratchPool.Get().(*greedyScratch)
	if sc == nil || sc.probe.Cap() < L || sc.probe.Network() != nw {
		sc = &greedyScratch{probe: netmodel.NewProbeSolver(nw, L)}
		var nodes int
		sc.linkTX, sc.linkRX, nodes = denseNodes(nw)
		sc.nodeUsed = make([]bool, nodes)
	} else {
		sc.probe.Reset()
	}
	defer greedyScratchPool.Put(sc)
	probe, used := sc.probe, sc.nodeUsed

	var accLinks, accChans, accLevels []int
	var accGammas []float64
	var layers []schedule.Layer
	clear(used)
	var value float64
	for _, it := range items {
		tx, rx := sc.linkTX[it.link], sc.linkRX[it.link]
		if used[tx] || used[rx] {
			continue
		}
		bestK, bestQ := -1, -1
		for k := 0; k < nw.NumChannels; k++ {
			solo := nw.Rates.BestLevel(nw.Gains.Direct[it.link][k] * nw.PMax / nw.Noise[it.link])
			for q := solo; q >= 0; q-- {
				if bestQ >= q {
					break // cannot beat the incumbent channel choice
				}
				if probe.Probe(it.link, k, nw.Rates.Gammas[q]) {
					bestK, bestQ = k, q
					break
				}
			}
		}
		if bestK < 0 {
			continue
		}
		probe.Push(it.link, bestK, nw.Rates.Gammas[bestQ])
		accLinks = append(accLinks, it.link)
		accChans = append(accChans, bestK)
		accLevels = append(accLevels, bestQ)
		accGammas = append(accGammas, nw.Rates.Gammas[bestQ])
		layers = append(layers, it.layer)
		used[tx], used[rx] = true, true
		value += it.lam * nw.Rates.Rates[bestQ]
	}
	if len(accLinks) == 0 {
		return &PriceResult{Value: 0, Exact: len(items) == 0, RelaxValue: relax}, nil
	}
	powers, ok := nw.MinPowersAssigned(accLinks, accChans, accGammas)
	if !ok {
		return nil, fmt.Errorf("core: internal: greedy activation set infeasible")
	}
	var out schedule.Schedule
	for i, l := range accLinks {
		out.Assignments = append(out.Assignments, schedule.Assignment{
			Link:    l,
			Channel: accChans[i],
			Level:   accLevels[i],
			Layer:   layers[i],
			Power:   powers[i],
		})
	}
	out.Normalize()
	return &PriceResult{Schedule: &out, Value: value, Exact: false, RelaxValue: relax}, nil
}

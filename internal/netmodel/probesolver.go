package netmodel

import "math"

// ProbeSolver answers the pricer's innermost question — "is the
// committed activation pattern plus one more (link, channel, level)
// still power-feasible?" — incrementally. The depth-first pricing
// search grows its pattern one link at a time, so consecutive probes
// share all but the last row of the Foschini–Miljanic system
// (I − F)·P = b. Instead of rebuilding and factoring that system from
// scratch at every probe (the O(m³) Gauss-Jordan of
// MinPowersAssigned), the solver maintains a bordered LU factorization
// of the committed pattern's matrix: Push appends one row/column to
// the factors in O(m²), Pop truncates them in O(1), and Probe answers
// the bordered system for a tentative extra link with three triangular
// solves — O(m²) per probe.
//
// The factorization is unpivoted. For feasible patterns I − F is a
// nonsingular M-matrix (spectral radius of F below one), for which
// unpivoted LU is stable with positive pivots; a probe whose bordered
// pivot falls below the safety threshold falls back to the pivoted
// reference solve instead of guessing. Every accept/reject decision
// applies the same box and SINR verification rules as
// MinPowersAssigned, so the two paths can only disagree on patterns
// whose feasibility margin is at rounding level (≲1e-12 relative —
// below every tolerance in the model).
//
// A ProbeSolver is NOT safe for concurrent use: each pricing worker
// owns one (the goroutine-local pooling contract of the root-split
// parallel pricer). It is bound to one immutable network.
type ProbeSolver struct {
	nw  *Network
	cap int // allocated pattern capacity

	m      int // committed pattern size
	links  []int
	chans  []int
	gammas []float64

	// lu holds the committed factorization in one cap×cap block:
	// U on and above the diagonal, unit-diagonal L strictly below.
	lu []float64
	// ut holds U transposed (ut[j·cap+i] = U[i][j]), so the row solve
	// w·U = r walks memory contiguously instead of at stride cap.
	ut []float64
	// g holds the committed raw gain matrix: g[i·cap+j] is the gain of
	// transmitter j into receiver i on i's channel, masked to zero for
	// non-interfering pairs, with g[i·cap+i] the direct gain.
	g []float64
	b []float64 // committed RHS b_i = γ_i·ρ_i/h_i
	z []float64 // forward solve L⁻¹·b of the committed system

	// Border column cache, one slot per depth: slot d holds the column
	// solve L⁻¹c (colY) and the raw gains new→committed (colG) of the
	// (colLink[d], colKey[d]) last probed at depth d. Both depend only
	// on the committed rows 0..d−1 and on the probed link — plus its
	// channel under PerChannel masking — never on γ, so every sibling
	// probe of one search node reuses them. A Push writing row r
	// invalidates the slots d > r: it stamps rowGen[r+1] with a fresh
	// push count, and slot d is valid only while colGen[d] still equals
	// rowGen[d], the stamp of row d−1. Rows below d−1 cannot change
	// without row d−1 being popped and pushed again, so one stamp
	// covers them all. Pop and Reset only truncate and stamp nothing.
	colY, colG []float64
	colLink    []int
	colKey     []int
	colGen     []uint64
	rowGen     []uint64 // rowGen[r+1] stamps row r; rowGen[0] is the empty pattern
	pushes     uint64

	// Probe scratch, valid between a successful Probe and the matching
	// Push (Push adopts them instead of recomputing). y and gCol view
	// the current depth's cache slot.
	y, w, x    []float64 // bordered column/row solves and the power vector
	gRow, gCol []float64 // raw gains committed→new and new→committed
	pendLink   int
	pendChan   int
	pendGamma  float64
	pendB      float64
	pendU      float64
	pendZ      float64
	pendOK     bool
}

// NewProbeSolver returns an empty solver for patterns of at most
// capacity links over the given immutable network.
func NewProbeSolver(nw *Network, capacity int) *ProbeSolver {
	if capacity < 1 {
		capacity = 1
	}
	return &ProbeSolver{
		nw:      nw,
		cap:     capacity,
		links:   make([]int, 0, capacity),
		chans:   make([]int, 0, capacity),
		gammas:  make([]float64, 0, capacity),
		lu:      make([]float64, capacity*capacity),
		ut:      make([]float64, capacity*capacity),
		g:       make([]float64, capacity*capacity),
		b:       make([]float64, 0, capacity),
		z:       make([]float64, 0, capacity),
		colY:    make([]float64, capacity*capacity),
		colG:    make([]float64, capacity*capacity),
		colLink: make([]int, capacity),
		colKey:  make([]int, capacity),
		colGen:  make([]uint64, capacity),
		rowGen:  make([]uint64, capacity+1),
		w:       make([]float64, capacity),
		x:       make([]float64, capacity),
		gRow:    make([]float64, capacity),
	}
}

// Reset clears the committed pattern (the factors are truncated, not
// reallocated), ready for a fresh search.
func (s *ProbeSolver) Reset() {
	s.m = 0
	s.links = s.links[:0]
	s.chans = s.chans[:0]
	s.gammas = s.gammas[:0]
	s.b = s.b[:0]
	s.z = s.z[:0]
	s.pendOK = false
}

// Depth returns the committed pattern size.
func (s *ProbeSolver) Depth() int { return s.m }

// Cap returns the solver's pattern capacity.
func (s *ProbeSolver) Cap() int { return s.cap }

// Network returns the network the solver is bound to.
func (s *ProbeSolver) Network() *Network { return s.nw }

// interferes reports whether transmitter tx disturbs a victim on
// channel vk when transmitting on channel tk, under the network's
// interference model.
func (s *ProbeSolver) interferes(tk, vk int) bool {
	return s.nw.Interference != PerChannel || tk == vk
}

// Probe tests whether the committed pattern extended by link on
// channel k at SINR threshold gamma admits powers within [0, PMax].
// The committed factorization is untouched; a subsequent
// Push(link, k, gamma) commits the extension in O(m²) by adopting the
// probe's bordered solves.
func (s *ProbeSolver) Probe(link, k int, gamma float64) bool {
	s.pendOK = false
	nw := s.nw
	m := s.m
	h := nw.Gains.Direct[link][k]
	if h <= 0 {
		return false // no direct gain: threshold unreachable
	}
	bNew := gamma * nw.Noise[link] / h
	if bNew > nw.PMax*(1+1e-9) {
		return false // even interference-free power exceeds the cap
	}
	if m >= s.cap {
		return false // capacity exhausted (callers size for the worst case)
	}

	u := s.border(link, k, gamma, h)
	if math.Abs(u) < 1e-9 {
		// Near-singular border: defer to the pivoted reference solve
		// rather than dividing by noise. (For genuinely singular systems
		// the reference declares infeasible, matching the old behavior.)
		return s.probeReference(link, k, gamma)
	}

	// Solve the bordered system: z is cached for the committed rows, so
	// only the last entry and the back substitution remain.
	zNew := s.borderZ(bNew)
	p := zNew / u
	if p < -1e-9 || p > nw.PMax*(1+1e-7) {
		return false
	}
	for i := m - 1; i >= 0; i-- {
		v := s.z[i] - s.y[i]*p
		row := s.lu[i*s.cap:]
		for j := i + 1; j < m; j++ {
			v -= row[j] * s.x[j]
		}
		v /= row[i]
		if v < -1e-9 || v > nw.PMax*(1+1e-7) {
			return false
		}
		s.x[i] = v
	}

	// Clamp and verify the SINR thresholds exactly as the reference
	// solve does: roundoff never certifies a violating vector.
	pc := clamp01(p, nw.PMax)
	for i := 0; i < m; i++ {
		s.x[i] = clamp01(s.x[i], nw.PMax)
	}
	for i := 0; i < m; i++ {
		row := s.g[i*s.cap:]
		signal := row[i] * s.x[i]
		interference := s.gCol[i] * pc
		for j := 0; j < m; j++ {
			if j != i {
				interference += row[j] * s.x[j]
			}
		}
		if signal < s.gammas[i]*(1-1e-6)*(s.noise(i)+interference) {
			return false
		}
	}
	var newInterf float64
	for j := 0; j < m; j++ {
		newInterf += s.gRow[j] * s.x[j]
	}
	if h*pc < gamma*(1-1e-6)*(nw.Noise[link]+newInterf) {
		return false
	}

	s.pendLink, s.pendChan, s.pendGamma = link, k, gamma
	s.pendB, s.pendU, s.pendZ = bNew, u, zNew
	s.pendOK = true
	return true
}

// border computes the bordered factors of the committed pattern
// extended by link on channel k at threshold gamma (h is the link's
// direct gain on k) and returns the bordered pivot u = 1 − w·y. The
// column solve y = L⁻¹c and its raw gains gCol come from the depth's
// cache slot when it holds the same link and channel key; otherwise
// they are solved and stored there. The γ-dependent row solve
// w = r·U⁻¹ and its raw gains gRow are computed on every call.
func (s *ProbeSolver) border(link, k int, gamma, h float64) float64 {
	m := s.m
	off := m * s.cap
	s.y = s.colY[off : off+m]
	s.gCol = s.colG[off : off+m]
	key := k
	if s.nw.Interference != PerChannel {
		key = -1 // the column never depends on the channel
	}
	cross := s.nw.Gains.Cross
	if s.colLink[m] != link || s.colKey[m] != key || s.colGen[m] != s.rowGen[m] {
		// Border column c (new variable in committed rows), forward
		// solved: y ← L⁻¹c.
		for j := 0; j < m; j++ {
			lj, kj := s.links[j], s.chans[j]
			var gij float64 // new→row j
			if s.interferes(k, kj) {
				gij = cross[link][lj][kj]
			}
			s.gCol[j] = gij
			// c_j lives in row j: scaled by row j's −γ_j/h_j.
			s.y[j] = -s.gammas[j] * gij / s.g[j*s.cap+j]
		}
		for i := 0; i < m; i++ {
			v := s.y[i]
			row := s.lu[i*s.cap:]
			for j := 0; j < i; j++ {
				v -= row[j] * s.y[j]
			}
			s.y[i] = v
		}
		s.colLink[m], s.colKey[m], s.colGen[m] = link, key, s.rowGen[m]
	}

	// Border row r (committed variables in the new row), solved on the
	// transpose: w ← r·U⁻¹, then the pivot u = 1 − w·y.
	var u float64 = 1
	for j := 0; j < m; j++ {
		lj, kj := s.links[j], s.chans[j]
		var gji float64 // column j→new
		if s.interferes(kj, k) {
			gji = cross[lj][link][k]
		}
		s.gRow[j] = gji
		v := -gamma * gji / h
		col := s.ut[j*s.cap:]
		for i := 0; i < j; i++ {
			v -= s.w[i] * col[i]
		}
		v /= col[j]
		s.w[j] = v
		u -= v * s.y[j]
	}
	return u
}

// borderZ returns the new entry of the forward-solved right-hand side
// for a bordered row with b-entry bNew.
func (s *ProbeSolver) borderZ(bNew float64) float64 {
	zNew := bNew
	for i := 0; i < s.m; i++ {
		zNew -= s.w[i] * s.z[i]
	}
	return zNew
}

// noise returns the receiver noise of committed row i.
func (s *ProbeSolver) noise(i int) float64 { return s.nw.Noise[s.links[i]] }

// clamp01 clips a power into [0, pmax].
func clamp01(p, pmax float64) float64 {
	if p > pmax {
		return pmax
	}
	if p < 0 {
		return 0
	}
	return p
}

// probeReference answers one probe with the pivoted full solve,
// used when the bordered pivot is too small to trust. It leaves no
// pending extension, so a following Push recomputes the border.
func (s *ProbeSolver) probeReference(link, k int, gamma float64) bool {
	m := s.m
	active := make([]int, m+1)
	chans := make([]int, m+1)
	gammas := make([]float64, m+1)
	copy(active, s.links)
	copy(chans, s.chans)
	copy(gammas, s.gammas)
	active[m], chans[m], gammas[m] = link, k, gamma
	return s.nw.FeasibleAssigned(active, chans, gammas)
}

// Push commits link on channel k at threshold gamma as the new last
// row/column of the factors. After a successful Probe with the same
// arguments it adopts the probe's bordered solves; otherwise — the
// probe was answered by the reference fallback, refused at rounding
// level, or the caller probed other alternatives before choosing — it
// computes them first, without the feasibility checks: the caller
// vouches that the extension is feasible, and probes on top of a
// degenerate row still verify every SINR threshold and fall back to
// the reference solve when their own pivot is too small. Each row
// depends only on the rows before it and its own (link, k, gamma), so
// both ways produce bit-identical factors.
func (s *ProbeSolver) Push(link, k int, gamma float64) {
	if !s.pendOK || s.pendLink != link || s.pendChan != k || s.pendGamma != gamma {
		h := s.nw.Gains.Direct[link][k]
		s.pendU = s.border(link, k, gamma, h)
		s.pendB = gamma * s.nw.Noise[link] / h
		s.pendZ = s.borderZ(s.pendB)
	}
	m := s.m
	row := s.lu[m*s.cap:]
	urow := s.ut[m*s.cap:]
	grow := s.g[m*s.cap:]
	for j := 0; j < m; j++ {
		row[j] = s.w[j]            // L entries of the new row
		s.lu[j*s.cap+m] = s.y[j]   // U entries of the new column
		urow[j] = s.y[j]           // ... and of the transposed copy
		grow[j] = s.gRow[j]        // raw gains committed→new receiver
		s.g[j*s.cap+m] = s.gCol[j] // raw gains new→committed receivers
	}
	row[m] = s.pendU
	urow[m] = s.pendU
	grow[m] = s.nw.Gains.Direct[link][k]
	s.links = append(s.links, link)
	s.chans = append(s.chans, k)
	s.gammas = append(s.gammas, gamma)
	s.b = append(s.b, s.pendB)
	s.z = append(s.z, s.pendZ)
	s.m++
	s.pendOK = false
	s.pushes++
	s.rowGen[m+1] = s.pushes // row m changed: deeper border columns are stale
}

// Pop removes the most recently committed link. The factors of the
// remaining pattern are the untouched leading block, so this is O(1).
func (s *ProbeSolver) Pop() {
	if s.m == 0 {
		return
	}
	s.m--
	s.links = s.links[:s.m]
	s.chans = s.chans[:s.m]
	s.gammas = s.gammas[:s.m]
	s.b = s.b[:s.m]
	s.z = s.z[:s.m]
	s.pendOK = false
}

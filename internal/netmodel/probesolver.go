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
// the bordered system for a tentative extra link.
//
// The border row of a probe at threshold γ is r = −(γ/h)·gRow, so its
// row solve is w = (γ/h)·ŵ with ŵ = (−gRow)·U⁻¹ independent of γ, and
// the bordered solution is p = (b − (γ/h)·ŵ·z)/(1 − (γ/h)·ŵ·y) for
// the new link and x = x₀ − p·v for the committed ones, where x₀ are
// the committed pattern's own powers (U⁻¹z) and v = U⁻¹y. Everything
// but the scalar γ/h is cached, one slot per depth:
//
//   - the border column y = L⁻¹c and its raw gains, keyed on the probed
//     link and (under PerChannel masking) its channel, with v solved
//     the first time a probe of that column gets past the new link's
//     box check;
//   - the border row ŵ, its raw gains and the scalars ŵ·y and ŵ·z,
//     keyed on the probed link and channel;
//   - the committed powers x₀, which Push writes for the extended
//     pattern as the bordered solution [x₀ − p·v; p] it commits.
//
// A sibling probe — the same link and channel at another level — is
// therefore rejected in O(1) by the new link's box check or in O(m)
// by the committed links'; only a probe that passes every box pays
// the O(m²) SINR verification, and a probe of a new link or channel
// the O(m²) solves of its slots.
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
// A ProbeSolver is NOT safe for concurrent use: each pricing call owns
// one (checked out of its pricer's state pool). It is bound to one
// immutable network.
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
	// ŵ·U = −gRow walks memory contiguously instead of at stride cap.
	ut []float64
	// g holds the committed raw gain matrix: g[i·cap+j] is the gain of
	// transmitter j into receiver i on i's channel, masked to zero for
	// non-interfering pairs, with g[i·cap+i] the direct gain.
	g []float64
	b []float64 // committed RHS b_i = γ_i·ρ_i/h_i
	z []float64 // forward solve L⁻¹·b of the committed system

	// Border caches, one slot per depth, all stamped alike: a Push
	// writing row r stamps rowGen[r+1] with a fresh push count, and a
	// slot at depth d is valid only while its stamp still equals
	// rowGen[d], the stamp of row d−1. Rows below d−1 cannot change
	// without row d−1 being popped and pushed again, so one stamp
	// covers them all. Pop and Reset only truncate and stamp nothing.
	rowGen []uint64 // rowGen[r+1] stamps row r; rowGen[0] is the empty pattern
	pushes uint64

	// Column slot d: y = L⁻¹c (colY) and the raw gains new→committed
	// (colG) of the (colLink[d], colKey[d]) last probed at depth d, and
	// v = U⁻¹y (colV) once colVOK[d] is set. None depends on γ; the key
	// is the channel under PerChannel masking and −1 otherwise.
	colY, colG, colV []float64
	colLink, colKey  []int
	colGen           []uint64
	colVOK           []bool

	// Row slot d: ŵ (rowW), the raw gains committed→new (rowG) and the
	// scalars ŵ·y (rowWY) and ŵ·z (rowWZ) of the (rowLink[d],
	// rowChan[d]) last probed at depth d. The row is solved after the
	// column, and y is a function of the same link, channel and
	// committed rows, so ŵ·y stays valid exactly as long as ŵ does.
	rowW, rowG   []float64
	rowWY, rowWZ []float64
	rowLink      []int
	rowChan      []int
	rowStamp     []uint64

	// x0[d·cap:] holds x₀, the committed powers of the depth-d pattern
	// ((cap+1) slots). Push writes depth m+1's from depth m's, so slot d
	// is valid exactly as long as the rows below d.
	x0 []float64

	// Probe scratch: views of the current depth's slots, and the
	// bordered power vector of the last probe that reached the boxes.
	y, gCol, gRow, wh []float64
	x                 []float64
}

// NewProbeSolver returns an empty solver for patterns of at most
// capacity links over the given immutable network.
func NewProbeSolver(nw *Network, capacity int) *ProbeSolver {
	if capacity < 1 {
		capacity = 1
	}
	sq := capacity * capacity
	return &ProbeSolver{
		nw:       nw,
		cap:      capacity,
		links:    make([]int, 0, capacity),
		chans:    make([]int, 0, capacity),
		gammas:   make([]float64, 0, capacity),
		lu:       make([]float64, sq),
		ut:       make([]float64, sq),
		g:        make([]float64, sq),
		b:        make([]float64, 0, capacity),
		z:        make([]float64, 0, capacity),
		rowGen:   make([]uint64, capacity+1),
		colY:     make([]float64, sq),
		colG:     make([]float64, sq),
		colV:     make([]float64, sq),
		colLink:  make([]int, capacity),
		colKey:   make([]int, capacity),
		colGen:   make([]uint64, capacity),
		colVOK:   make([]bool, capacity),
		rowW:     make([]float64, sq),
		rowG:     make([]float64, sq),
		rowWY:    make([]float64, capacity),
		rowWZ:    make([]float64, capacity),
		rowLink:  make([]int, capacity),
		rowChan:  make([]int, capacity),
		rowStamp: make([]uint64, capacity),
		x0:       make([]float64, sq+capacity),
		x:        make([]float64, capacity),
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
// Push(link, k, gamma) commits the extension in O(m) from the caches
// this probe filled.
func (s *ProbeSolver) Probe(link, k int, gamma float64) bool {
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

	s.border(link, k)
	u, zNew := s.pivot(gamma, h, bNew)
	if math.Abs(u) < 1e-9 {
		// Near-singular border: defer to the pivoted reference solve
		// rather than dividing by noise. (For genuinely singular systems
		// the reference declares infeasible, matching the old behavior.)
		return s.probeReference(link, k, gamma)
	}

	// Solve the bordered system: the new link's power from the cached
	// scalars, then the committed powers as x₀ − p·v.
	p := zNew / u
	if p < -1e-9 || p > nw.PMax*(1+1e-7) {
		return false
	}
	x0 := s.x0[m*s.cap : m*s.cap+m]
	v := s.columnV()
	for i := 0; i < m; i++ {
		xi := x0[i] - p*v[i]
		if xi < -1e-9 || xi > nw.PMax*(1+1e-7) {
			return false
		}
		s.x[i] = xi
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
	return h*pc >= gamma*(1-1e-6)*(nw.Noise[link]+newInterf)
}

// pivot returns the bordered pivot u = 1 − (γ/h)·ŵ·y and the new
// entry zNew = bNew − (γ/h)·ŵ·z of the forward-solved right-hand side,
// from the current depth's row slot. Probe and Push share it, so a
// committed row is the same bits whichever path filled the slot.
func (s *ProbeSolver) pivot(gamma, h, bNew float64) (u, zNew float64) {
	sc := gamma / h
	return 1 - sc*s.rowWY[s.m], bNew - sc*s.rowWZ[s.m]
}

// border points y, gCol, gRow and wh at the current depth's slots for
// link on channel k, solving whichever slot does not already hold
// them: the column y = L⁻¹c with its raw gains gCol, then the row
// ŵ = (−gRow)·U⁻¹ with its raw gains gRow and the scalars ŵ·y, ŵ·z.
func (s *ProbeSolver) border(link, k int) {
	m := s.m
	off := m * s.cap
	s.y = s.colY[off : off+m]
	s.gCol = s.colG[off : off+m]
	s.gRow = s.rowG[off : off+m]
	s.wh = s.rowW[off : off+m]
	key := k
	if s.nw.Interference != PerChannel {
		key = -1 // the column never depends on the channel
	}
	cross := s.nw.Gains.Cross
	stamp := s.rowGen[m]
	if s.colLink[m] != link || s.colKey[m] != key || s.colGen[m] != stamp {
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
		s.colLink[m], s.colKey[m], s.colGen[m] = link, key, stamp
		s.colVOK[m] = false
	}
	if s.rowLink[m] != link || s.rowChan[m] != k || s.rowStamp[m] != stamp {
		// Border row r = −(γ/h)·gRow (committed variables in the new
		// row) without its γ/h: ŵ ← (−gRow)·U⁻¹, solved on the
		// transpose, with ŵ·y and ŵ·z alongside.
		var wy, wz float64
		for j := 0; j < m; j++ {
			lj, kj := s.links[j], s.chans[j]
			var gji float64 // column j→new
			if s.interferes(kj, k) {
				gji = cross[lj][link][k]
			}
			s.gRow[j] = gji
			v := -gji
			col := s.ut[j*s.cap:]
			for i := 0; i < j; i++ {
				v -= s.wh[i] * col[i]
			}
			v /= col[j]
			s.wh[j] = v
			wy += v * s.y[j]
			wz += v * s.z[j]
		}
		s.rowWY[m], s.rowWZ[m] = wy, wz
		s.rowLink[m], s.rowChan[m], s.rowStamp[m] = link, k, stamp
	}
}

// columnV returns v = U⁻¹y for the current depth's column slot,
// back-solving it the first time it is asked for.
func (s *ProbeSolver) columnV() []float64 {
	m := s.m
	v := s.colV[m*s.cap : m*s.cap+m]
	if !s.colVOK[m] {
		for i := m - 1; i >= 0; i-- {
			vi := s.y[i]
			row := s.lu[i*s.cap:]
			for j := i + 1; j < m; j++ {
				vi -= row[j] * v[j]
			}
			v[i] = vi / row[i]
		}
		s.colVOK[m] = true
	}
	return v
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
// used when the bordered pivot is too small to trust.
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
// row/column of the factors, from the depth's border slots: after a
// Probe of the same link and channel that reached the committed
// links' box check they are already filled and the commit is O(m);
// otherwise — the caller probed other alternatives before choosing,
// or the probe stopped earlier — the missing ones are solved first,
// without the feasibility checks: the caller vouches that the
// extension is feasible, and probes on top of a degenerate row still
// verify every SINR threshold and fall back to the reference solve
// when their own pivot is too small. The L row is (γ/h)·ŵ, the pivot
// and z entry come from pivot, and the extended pattern's powers are
// the bordered solution [x₀ − p·v; p]; each slot depends only on the
// rows before it and its own (link, k), so both ways produce
// bit-identical factors and powers.
func (s *ProbeSolver) Push(link, k int, gamma float64) {
	h := s.nw.Gains.Direct[link][k]
	s.border(link, k)
	bNew := gamma * s.nw.Noise[link] / h
	u, zNew := s.pivot(gamma, h, bNew)
	sc := gamma / h
	m := s.m
	row := s.lu[m*s.cap:]
	urow := s.ut[m*s.cap:]
	grow := s.g[m*s.cap:]
	for j := 0; j < m; j++ {
		row[j] = sc * s.wh[j]      // L entries of the new row
		s.lu[j*s.cap+m] = s.y[j]   // U entries of the new column
		urow[j] = s.y[j]           // ... and of the transposed copy
		grow[j] = s.gRow[j]        // raw gains committed→new receiver
		s.g[j*s.cap+m] = s.gCol[j] // raw gains new→committed receivers
	}
	row[m] = u
	urow[m] = u
	grow[m] = h
	p := zNew / u
	x0, v := s.x0[m*s.cap:m*s.cap+m], s.columnV()
	next := s.x0[(m+1)*s.cap:]
	for i := 0; i < m; i++ {
		next[i] = x0[i] - p*v[i]
	}
	next[m] = p
	s.links = append(s.links, link)
	s.chans = append(s.chans, k)
	s.gammas = append(s.gammas, gamma)
	s.b = append(s.b, bNew)
	s.z = append(s.z, zNew)
	s.m++
	s.pushes++
	s.rowGen[m+1] = s.pushes // row m changed: deeper slots are stale
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
}

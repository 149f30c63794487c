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
// the bordered system for a tentative extra link. ProbeDown answers
// the levels of one (link, channel) from the highest down, on one
// border, and stops at the first feasible one.
//
// The border row of a probe at threshold γ is r = −(γ/h)·gRow, so its
// row solve is w = (γ/h)·ŵ with ŵ = (−gRow)·U⁻¹ independent of γ, and
// the bordered solution is p = (b − (γ/h)·ŵ·z)/(1 − (γ/h)·ŵ·y) for
// the new link and x = x₀ − p·v for the committed ones, where x₀ are
// the committed pattern's own powers (U⁻¹z) and v = U⁻¹y. Everything
// but the scalar γ/h is cached:
//
//   - the border column y = L⁻¹c and its raw gains, one vector per
//     probed link and (under PerChannel masking) channel;
//   - the border row ŵ, its raw gains and the running sums ŵ·y and
//     ŵ·z, one vector per probed link and channel;
//   - v, one slot per depth, solved the first time a probe of that
//     column at that depth gets past the new link's box check;
//   - the committed powers x₀, one slot per depth, which Push writes
//     for the extended pattern as the bordered solution [x₀ − p·v; p]
//     it commits.
//
// The border vectors are prefix-stable: entry j of y, of ŵ and of the
// running sums reads only committed rows 0..j and the probed (link,
// channel), so a vector solved at one depth stays valid at a deeper
// one up to the first row that has since been rewritten, and a probe
// solves only the entries past that prefix — O(m) per new row. v and
// x₀ come from back substitution, which reads every row, so they stay
// per depth.
//
// A level of the same link and channel is therefore rejected in O(1)
// by the new link's box check or in O(m) by the committed links'; only
// a level that passes every box pays the O(m²) SINR verification.
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

	// Every cache entry carries the stamp of the newest row it read: a
	// Push writing row r stamps rowGen[r+1] with a fresh push count, and
	// an entry that read rows 0..j is valid only while its stamp still
	// equals rowGen[j+1]. Rows below j cannot change without row j being
	// popped and pushed again, so one stamp covers them all, and an
	// entry valid implies every entry before it in its vector valid.
	// Pop and Reset only truncate and stamp nothing.
	rowGen []uint64 // rowGen[r+1] stamps row r; rowGen[0] is the empty pattern
	pushes uint64

	// Border column vectors, cap entries each, one per (link, key) at
	// offset (link·colKeys + key)·cap: y = L⁻¹c (colY) and the raw gains
	// new→committed (colG), entry j stamped in colStamp. None depends
	// on γ; the key is the channel under PerChannel masking and 0
	// otherwise (colKeys is 1).
	colKeys    int
	colY, colG []float64
	colStamp   []uint64

	// Border row vectors, one per (link, channel) at offset
	// (link·channels + channel)·cap: ŵ (rowW), the raw gains
	// committed→new (rowG) and the running sums ŵ·y (rowWY) and ŵ·z
	// (rowWZ) over entries 0..j, entry j stamped in rowStamp. The row is
	// solved after the column, and y_j reads the same rows as ŵ_j, so
	// the sums stay valid exactly as long as ŵ does.
	rowW, rowG   []float64
	rowWY, rowWZ []float64
	rowStamp     []uint64

	// colOff and rowOff locate the current border's column and row
	// vectors, set by border. They are offsets, not slices, so pointing
	// them at another vector writes no pointer.
	colOff, rowOff int

	// Slot d of colV holds v = U⁻¹y at depth d for the column vector at
	// offset vCol[d], valid while vGen[d] equals rowGen[d].
	colV []float64
	vCol []int
	vGen []uint64

	// x0[d·cap:] holds x₀, the committed powers of the depth-d pattern
	// ((cap+1) slots). Push writes depth m+1's from depth m's, so slot d
	// is valid exactly as long as the rows below d.
	x0 []float64

	// x is the bordered power vector of the last probe that reached the
	// committed links' boxes.
	x []float64
}

// NewProbeSolver returns an empty solver for patterns of at most
// capacity links over the given immutable network. Its border caches
// hold links × channels × capacity entries.
func NewProbeSolver(nw *Network, capacity int) *ProbeSolver {
	if capacity < 1 {
		capacity = 1
	}
	colKeys := 1
	if nw.Interference == PerChannel {
		colKeys = nw.NumChannels
	}
	sq := capacity * capacity
	cols := nw.NumLinks() * colKeys * capacity
	rows := nw.NumLinks() * nw.NumChannels * capacity
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
		colKeys:  colKeys,
		colY:     make([]float64, cols),
		colG:     make([]float64, cols),
		colStamp: make([]uint64, cols),
		rowW:     make([]float64, rows),
		rowG:     make([]float64, rows),
		rowWY:    make([]float64, rows),
		rowWZ:    make([]float64, rows),
		rowStamp: make([]uint64, rows),
		colV:     make([]float64, sq),
		vCol:     make([]int, capacity),
		vGen:     make([]uint64, capacity),
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
// this probe filled. It is ProbeDown's one-level case.
func (s *ProbeSolver) Probe(link, k int, gamma float64) bool {
	g := [1]float64{gamma}
	return s.ProbeDown(link, k, g[:], 0, 0) == 0
}

// ProbeDown asks Probe's question for link on channel k at thresholds
// gammas[hi], gammas[hi−1], …, gammas[lo] in turn and returns the
// first level whose extension is feasible, or lo−1 if none is. Each
// answer is the one Probe gives for that threshold; the border is
// solved once, for the first level that passes the new link's
// interference-free power cap, and every level after it only rescales
// it by its γ/h.
func (s *ProbeSolver) ProbeDown(link, k int, gammas []float64, hi, lo int) int {
	nw := s.nw
	h := nw.Gains.Direct[link][k]
	if h <= 0 || s.m >= s.cap {
		// No direct gain makes every threshold unreachable; a full
		// solver has no room (callers size for the worst case).
		return lo - 1
	}
	bordered := false
	for q := hi; q >= lo; q-- {
		gamma := gammas[q]
		bNew := gamma * nw.Noise[link] / h
		if bNew > nw.PMax*(1+1e-9) {
			continue // even interference-free power exceeds the cap
		}
		if !bordered {
			s.border(link, k)
			bordered = true
		}
		if s.feasible(link, k, h, gamma, bNew) {
			return q
		}
	}
	return lo - 1
}

// feasible answers one level on the current border: link on channel k
// (direct gain h) at threshold gamma, whose interference-free power
// bNew is within the cap.
func (s *ProbeSolver) feasible(link, k int, h, gamma, bNew float64) bool {
	nw := s.nw
	m := s.m
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
	x := s.x[:m]
	for i := 0; i < m; i++ {
		xi := x0[i] - p*v[i]
		if xi < -1e-9 || xi > nw.PMax*(1+1e-7) {
			return false
		}
		x[i] = xi
	}

	// Clamp and verify the SINR thresholds exactly as the reference
	// solve does: roundoff never certifies a violating vector.
	pc := clamp01(p, nw.PMax)
	for i := 0; i < m; i++ {
		x[i] = clamp01(x[i], nw.PMax)
	}
	_, gCol := s.borderCol()
	_, gRow := s.borderRow()
	for i := 0; i < m; i++ {
		row := s.g[i*s.cap:]
		signal := row[i] * x[i]
		interference := gCol[i] * pc
		for j := 0; j < m; j++ {
			if j != i {
				interference += row[j] * x[j]
			}
		}
		if signal < s.gammas[i]*(1-1e-6)*(s.noise(i)+interference) {
			return false
		}
	}
	var newInterf float64
	for j := 0; j < m; j++ {
		newInterf += gRow[j] * x[j]
	}
	return h*pc >= gamma*(1-1e-6)*(nw.Noise[link]+newInterf)
}

// pivot returns the bordered pivot u = 1 − (γ/h)·ŵ·y and the new
// entry zNew = bNew − (γ/h)·ŵ·z of the forward-solved right-hand side,
// from the current border's row sums. Probe and Push share it, so a
// committed row is the same bits whichever path filled the caches.
func (s *ProbeSolver) pivot(gamma, h, bNew float64) (u, zNew float64) {
	var wy, wz float64
	if s.m > 0 {
		wy, wz = s.rowWY[s.rowOff+s.m-1], s.rowWZ[s.rowOff+s.m-1]
	}
	sc := gamma / h
	return 1 - sc*wy, bNew - sc*wz
}

// borderCol returns the current border's column y = L⁻¹c and its raw
// gains new→committed, over the committed rows.
func (s *ProbeSolver) borderCol() (y, gCol []float64) {
	o := s.colOff
	return s.colY[o : o+s.m], s.colG[o : o+s.m]
}

// borderRow returns the current border's row ŵ and its raw gains
// committed→new, over the committed rows.
func (s *ProbeSolver) borderRow() (wh, gRow []float64) {
	o := s.rowOff
	return s.rowW[o : o+s.m], s.rowG[o : o+s.m]
}

// validPrefix returns how many leading entries of the stamped vector
// are still valid at depth m. Validity is prefix-closed, so the scan
// runs down from the top and stops at the first valid entry: a hit
// costs O(1) and a miss as many steps as entries to re-solve.
func (s *ProbeSolver) validPrefix(stamp []uint64, m int) int {
	for m > 0 && stamp[m-1] != s.rowGen[m] {
		m--
	}
	return m
}

// border points colOff and rowOff at link's vectors on channel k and
// solves whichever of their entries are stale at the current depth:
// the column y = L⁻¹c with its raw gains, then the row
// ŵ = (−gRow)·U⁻¹ with its raw gains and the running sums ŵ·y, ŵ·z.
func (s *ProbeSolver) border(link, k int) {
	m := s.m
	key := 0
	if s.colKeys > 1 {
		key = k // the column depends on the channel only through masking
	}
	s.colOff = (link*s.colKeys + key) * s.cap
	s.rowOff = (link*s.nw.NumChannels + k) * s.cap
	cross := s.nw.Gains.Cross
	o := s.colOff
	y, gCol, colStamp := s.colY[o:o+m], s.colG[o:o+m], s.colStamp[o:o+m]
	for j := s.validPrefix(colStamp, m); j < m; j++ {
		// Entry j of the border column c (new variable in committed
		// rows), forward solved: y_j ← c_j − Σ_{i<j} L_ji·y_i.
		lj, kj := s.links[j], s.chans[j]
		var gij float64 // new→row j
		if s.interferes(k, kj) {
			gij = cross[link][lj][kj]
		}
		gCol[j] = gij
		// c_j lives in row j: scaled by row j's −γ_j/h_j.
		v := -s.gammas[j] * gij / s.g[j*s.cap+j]
		row := s.lu[j*s.cap:]
		for i := 0; i < j; i++ {
			v -= row[i] * y[i]
		}
		y[j] = v
		colStamp[j] = s.rowGen[j+1]
	}
	o = s.rowOff
	wh, gRow, rowStamp := s.rowW[o:o+m], s.rowG[o:o+m], s.rowStamp[o:o+m]
	wys, wzs := s.rowWY[o:o+m], s.rowWZ[o:o+m]
	for j := s.validPrefix(rowStamp, m); j < m; j++ {
		// Entry j of the border row r = −(γ/h)·gRow (committed
		// variables in the new row) without its γ/h: ŵ ← (−gRow)·U⁻¹,
		// solved on the transpose, with the sums ŵ·y and ŵ·z carried
		// on from entry j−1.
		lj, kj := s.links[j], s.chans[j]
		var gji float64 // column j→new
		if s.interferes(kj, k) {
			gji = cross[lj][link][k]
		}
		gRow[j] = gji
		v := -gji
		col := s.ut[j*s.cap:]
		for i := 0; i < j; i++ {
			v -= wh[i] * col[i]
		}
		v /= col[j]
		wh[j] = v
		var wy, wz float64
		if j > 0 {
			wy, wz = wys[j-1], wzs[j-1]
		}
		wys[j] = wy + v*y[j]
		wzs[j] = wz + v*s.z[j]
		rowStamp[j] = s.rowGen[j+1]
	}
}

// columnV returns v = U⁻¹y for the current border's column at the
// current depth, back-solving it the first time it is asked for.
func (s *ProbeSolver) columnV() []float64 {
	m := s.m
	v := s.colV[m*s.cap : m*s.cap+m]
	if s.vCol[m] != s.colOff || s.vGen[m] != s.rowGen[m] {
		y, _ := s.borderCol()
		for i := m - 1; i >= 0; i-- {
			vi := y[i]
			row := s.lu[i*s.cap:]
			for j := i + 1; j < m; j++ {
				vi -= row[j] * v[j]
			}
			v[i] = vi / row[i]
		}
		s.vCol[m], s.vGen[m] = s.colOff, s.rowGen[m]
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
// row/column of the factors, from the border caches: after a probe of
// the same link and channel that reached the committed links' box
// check they are already filled and the commit is O(m); otherwise the
// stale entries are solved first, without the feasibility checks: the
// caller vouches that the extension is feasible, and probes on top of
// a degenerate row still verify every SINR threshold and fall back to
// the reference solve when their own pivot is too small. The L row is
// (γ/h)·ŵ, the pivot and z entry come from pivot, and the extended
// pattern's powers are the bordered solution [x₀ − p·v; p]; each cache
// entry depends only on the rows it read and its own (link, k), so
// both ways produce bit-identical factors and powers.
func (s *ProbeSolver) Push(link, k int, gamma float64) {
	h := s.nw.Gains.Direct[link][k]
	s.border(link, k)
	bNew := gamma * s.nw.Noise[link] / h
	u, zNew := s.pivot(gamma, h, bNew)
	sc := gamma / h
	m := s.m
	y, gCol := s.borderCol()
	wh, gRow := s.borderRow()
	row := s.lu[m*s.cap:]
	urow := s.ut[m*s.cap:]
	grow := s.g[m*s.cap:]
	for j := 0; j < m; j++ {
		row[j] = sc * wh[j]      // L entries of the new row
		s.lu[j*s.cap+m] = y[j]   // U entries of the new column
		urow[j] = y[j]           // ... and of the transposed copy
		grow[j] = gRow[j]        // raw gains committed→new receiver
		s.g[j*s.cap+m] = gCol[j] // raw gains new→committed receivers
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
	s.rowGen[m+1] = s.pushes // row m changed: entries that read it are stale
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

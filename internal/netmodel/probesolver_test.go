package netmodel

import (
	"math"
	"math/rand"
	"testing"
)

// randomPattern draws a random feasibility question: a set of distinct
// links (repeats allowed under multiChannel, on distinct channels),
// each with a channel and a threshold from the rate table.
func randomPattern(rng *rand.Rand, nw *Network, maxLen int, multiChannel bool) (links, chans []int, gammas []float64) {
	n := 1 + rng.Intn(maxLen)
	usedPair := map[[2]int]bool{}
	for len(links) < n {
		l := rng.Intn(nw.NumLinks())
		k := rng.Intn(nw.NumChannels)
		if usedPair[[2]int{l, k}] {
			continue
		}
		if !multiChannel {
			dup := false
			for _, lj := range links {
				if lj == l {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
		}
		usedPair[[2]int{l, k}] = true
		links = append(links, l)
		chans = append(chans, k)
		gammas = append(gammas, nw.Rates.Gammas[rng.Intn(nw.Rates.Levels())])
	}
	return
}

// TestFeasibleAssignedMatchesMinPowers checks that the allocation-free
// verdict agrees with the solving API on random patterns.
func TestFeasibleAssignedMatchesMinPowers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, model := range []InterferenceModel{PerChannel, Global} {
		nw := randomNetwork(rng, 10, 3)
		nw.Interference = model
		for trial := 0; trial < 500; trial++ {
			links, chans, gammas := randomPattern(rng, nw, 6, false)
			_, want := nw.MinPowersAssigned(links, chans, gammas)
			if got := nw.FeasibleAssigned(links, chans, gammas); got != want {
				t.Fatalf("model %v trial %d: FeasibleAssigned = %v, MinPowersAssigned ok = %v (links %v chans %v gammas %v)",
					model, trial, got, want, links, chans, gammas)
			}
		}
	}
}

// TestProbeSolverMatchesReference walks the ProbeSolver through random
// probe/push/pop sequences and checks every Probe verdict against the
// full pivoted solve of the same pattern.
func TestProbeSolverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		name  string
		model InterferenceModel
		multi bool
	}{
		{"global", Global, false},
		{"per-channel", PerChannel, false},
		{"global/multi-channel", Global, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for inst := 0; inst < 8; inst++ {
				nw := randomNetwork(rng, 12, 3)
				nw.Interference = tc.model
				nw.MultiChannel = tc.multi
				ps := NewProbeSolver(nw, nw.NumLinks()*nw.NumChannels)
				// committed[i] = {link, chan, gammaIdx} of the solver stack.
				type entry struct {
					l, k int
					g    float64
				}
				var stack []entry
				checkProbe := func(l, k int, g float64) bool {
					refLinks := make([]int, 0, len(stack)+1)
					refChans := make([]int, 0, len(stack)+1)
					refGammas := make([]float64, 0, len(stack)+1)
					for _, e := range stack {
						refLinks = append(refLinks, e.l)
						refChans = append(refChans, e.k)
						refGammas = append(refGammas, e.g)
					}
					refLinks = append(refLinks, l)
					refChans = append(refChans, k)
					refGammas = append(refGammas, g)
					want := nw.FeasibleAssigned(refLinks, refChans, refGammas)
					got := ps.Probe(l, k, g)
					if got != want {
						t.Fatalf("instance %d depth %d: Probe(%d,%d,%g) = %v, reference = %v (stack %v)",
							inst, len(stack), l, k, g, got, want, stack)
					}
					return got
				}
				for step := 0; step < 400; step++ {
					switch {
					case len(stack) > 0 && rng.Intn(3) == 0:
						ps.Pop()
						stack = stack[:len(stack)-1]
					default:
						l := rng.Intn(nw.NumLinks())
						k := rng.Intn(nw.NumChannels)
						g := nw.Rates.Gammas[rng.Intn(nw.Rates.Levels())]
						dup := false
						for _, e := range stack {
							if e.l == l && (e.k == k || !tc.multi) {
								dup = true
								break
							}
						}
						if dup {
							continue
						}
						if checkProbe(l, k, g) && rng.Intn(2) == 0 {
							ps.Push(l, k, g)
							stack = append(stack, entry{l, k, g})
						}
					}
					if ps.Depth() != len(stack) {
						t.Fatalf("depth mismatch: solver %d, reference %d", ps.Depth(), len(stack))
					}
				}
			}
		})
	}
}

// TestProbeSolverReset checks that a reset solver answers like a fresh
// one.
func TestProbeSolverReset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nw := randomNetwork(rng, 8, 2)
	nw.Interference = Global
	ps := NewProbeSolver(nw, 16)
	if !ps.Probe(0, 0, nw.Rates.Gammas[0]) {
		t.Skip("first probe infeasible on this draw")
	}
	ps.Push(0, 0, nw.Rates.Gammas[0])
	ps.Reset()
	if ps.Depth() != 0 {
		t.Fatalf("Depth after Reset = %d, want 0", ps.Depth())
	}
	want := nw.FeasibleAssigned([]int{1}, []int{1}, []float64{nw.Rates.Gammas[1]})
	if got := ps.Probe(1, 1, nw.Rates.Gammas[1]); got != want {
		t.Fatalf("probe after Reset = %v, want %v", got, want)
	}
}

// probeEntry is one committed (link, channel, threshold) of a walk.
type probeEntry struct {
	l, k int
	g    float64
}

// patternOf splits a walk's entries into FeasibleAssigned arguments.
func patternOf(pat []probeEntry) (links, chans []int, gammas []float64) {
	for _, e := range pat {
		links = append(links, e.l)
		chans = append(chans, e.k)
		gammas = append(gammas, e.g)
	}
	return links, chans, gammas
}

// nearSingularNetwork draws a random network and wires links 0 and 1
// into a pair whose two-link system sits just inside the singularity:
// at the lowest threshold γ on a shared channel, the bordered pivot is
// u = 1 − γ²·c² = 5e-10, below the probe solver's 1e-9 guard, while
// tiny noise keeps the pair feasible at powers far below PMax. Probing
// one of them on top of the other is answered by the pivoted reference
// solve, and committing it forces a degenerate row into the factors.
func nearSingularNetwork(rng *rand.Rand, model InterferenceModel, multi bool) *Network {
	nw := randomNetwork(rng, 10, 3)
	nw.Interference = model
	nw.MultiChannel = multi
	g0 := nw.Rates.Gammas[0]
	c := math.Sqrt(1-5e-10) / g0
	direct, cross := nw.Gains.Direct, nw.Gains.Cross
	for _, a := range []int{0, 1} {
		nw.Noise[a] = 1e-15
		for k := 0; k < nw.NumChannels; k++ {
			direct[a][k] = 1
			for l := 2; l < nw.NumLinks(); l++ {
				cross[a][l][k] *= 1e-12
				cross[l][a][k] *= 1e-12
			}
		}
	}
	for k := 0; k < nw.NumChannels; k++ {
		cross[0][1][k], cross[1][0][k] = c, c
	}
	return nw
}

// sameBits reports whether two float slices are bit-for-bit equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// committedBlock returns the leading m×m block of a cap-strided matrix.
func committedBlock(mat []float64, m, stride int) []float64 {
	out := make([]float64, 0, m*m)
	for i := 0; i < m; i++ {
		out = append(out, mat[i*stride:i*stride+m]...)
	}
	return out
}

// reuseWalk drives one ProbeSolver through Probe, Push, Pop and Reset
// and holds it to fresh replays of its committed pattern: after every
// probe the verdict, every border cache entry the walked solver holds
// valid at its depth (border column y and v = U⁻¹y, border row ŵ with
// ŵ·y and ŵ·z, committed powers x₀) and the power vector must equal a
// fresh solver's bit for bit, and after every commit so must the
// committed factors.
type reuseWalk struct {
	tb    testing.TB
	nw    *Network
	ps    *ProbeSolver
	stack []probeEntry
}

func newReuseWalk(tb testing.TB, nw *Network) *reuseWalk {
	return &reuseWalk{tb: tb, nw: nw, ps: NewProbeSolver(nw, nw.NumLinks()*nw.NumChannels)}
}

// replay returns a fresh solver holding the walk's committed pattern.
func (w *reuseWalk) replay() *ProbeSolver {
	fresh := NewProbeSolver(w.nw, w.ps.cap)
	for _, e := range w.stack {
		fresh.Push(e.l, e.k, e.g)
	}
	return fresh
}

// free reports whether link may be probed on channel k on top of the
// committed pattern: once per link, or once per (link, channel) under
// MultiChannel.
func (w *reuseWalk) free(l, k int) bool {
	for _, e := range w.stack {
		if e.l == l && (e.k == k || !w.nw.MultiChannel) {
			return false
		}
	}
	return true
}

// probe probes (l, k, g), checks it against a fresh replay and reports
// the verdict and whether the reference fallback answered it.
func (w *reuseWalk) probe(l, k int, g float64) (got, refAnswered bool) {
	w.tb.Helper()
	ps, m := w.ps, len(w.stack)
	got = ps.Probe(l, k, g)
	fresh := w.replay()
	if want := fresh.Probe(l, k, g); got != want {
		w.tb.Fatalf("Probe(%d,%d,%g) = %v, fresh replay = %v, stack %v", l, k, g, got, want, w.stack)
	}
	if !borderReached(w.nw, l, k, g, m) {
		return got, false
	}
	if what := borderDiff(ps, fresh); what != "" {
		w.tb.Fatalf("Probe(%d,%d,%g): %s differs from a fresh replay, stack %v", l, k, g, what, w.stack)
	}
	refAnswered = referenceAnswered(ps, l, k, g)
	if got && !refAnswered && !sameBits(ps.x[:m], fresh.x[:m]) {
		w.tb.Fatalf("Probe(%d,%d,%g): power vector differs from a fresh replay, stack %v", l, k, g, w.stack)
	}
	return got, refAnswered
}

// probeDown sweeps link l on channel k from level hi down to lo with
// ProbeDown and checks the answer against a per-level Probe sequence on
// a fresh replay: the same first feasible level, and the same border
// vectors and power vector, bit for bit.
func (w *reuseWalk) probeDown(l, k, hi, lo int) int {
	w.tb.Helper()
	ps, m, gammas := w.ps, len(w.stack), w.nw.Rates.Gammas
	got := ps.ProbeDown(l, k, gammas, hi, lo)
	fresh := w.replay()
	want, reached := lo-1, false
	for q := hi; q >= lo; q-- {
		reached = reached || borderReached(w.nw, l, k, gammas[q], m)
		if fresh.Probe(l, k, gammas[q]) {
			want = q
			break
		}
	}
	if got != want {
		w.tb.Fatalf("ProbeDown(%d,%d,%d..%d) = %d, per-level Probe on a fresh replay = %d, stack %v", l, k, hi, lo, got, want, w.stack)
	}
	if !reached {
		return got
	}
	if what := borderDiff(ps, fresh); what != "" {
		w.tb.Fatalf("ProbeDown(%d,%d,%d..%d): %s differs from a fresh replay, stack %v", l, k, hi, lo, what, w.stack)
	}
	if got >= lo && !referenceAnswered(ps, l, k, gammas[got]) && !sameBits(ps.x[:m], fresh.x[:m]) {
		w.tb.Fatalf("ProbeDown(%d,%d,%d..%d): power vector differs from a fresh replay, stack %v", l, k, hi, lo, w.stack)
	}
	return got
}

// firstFeasible returns the reference verdict's highest feasible level
// in [lo, hi] for (l, k) on top of the committed pattern, or lo−1.
func (w *reuseWalk) firstFeasible(l, k, hi, lo int) int {
	for q := hi; q >= lo; q-- {
		if w.feasibleWith(l, k, w.nw.Rates.Gammas[q]) {
			return q
		}
	}
	return lo - 1
}

// push commits (l, k, g) and checks the factors against a fresh replay.
func (w *reuseWalk) push(l, k int, g float64) {
	w.tb.Helper()
	w.ps.Push(l, k, g)
	w.stack = append(w.stack, probeEntry{l, k, g})
	ps, fresh, m := w.ps, w.replay(), len(w.stack)
	if !sameBits(committedBlock(ps.lu, m, ps.cap), committedBlock(fresh.lu, m, fresh.cap)) ||
		!sameBits(committedBlock(ps.ut, m, ps.cap), committedBlock(fresh.ut, m, fresh.cap)) ||
		!sameBits(committedBlock(ps.g, m, ps.cap), committedBlock(fresh.g, m, fresh.cap)) ||
		!sameBits(ps.z, fresh.z) || !sameBits(ps.b, fresh.b) ||
		!sameBits(ps.x0[m*ps.cap:m*ps.cap+m], fresh.x0[m*fresh.cap:m*fresh.cap+m]) {
		w.tb.Fatalf("committed factors differ from a fresh replay of %v", w.stack)
	}
}

func (w *reuseWalk) pop() {
	w.ps.Pop()
	w.stack = w.stack[:len(w.stack)-1]
}

func (w *reuseWalk) reset() {
	w.ps.Reset()
	w.stack = w.stack[:0]
}

// feasibleWith reports the reference verdict on the committed pattern
// extended by (l, k, g).
func (w *reuseWalk) feasibleWith(l, k int, g float64) bool {
	m := len(w.stack)
	return w.nw.FeasibleAssigned(patternOf(append(w.stack[:m:m], probeEntry{l, k, g})))
}

// borderReached reports whether a probe of link on channel k at gamma
// on top of a depth-m pattern gets past Probe's early exits to the
// border slots.
func borderReached(nw *Network, link, k int, gamma float64, m int) bool {
	h := nw.Gains.Direct[link][k]
	return h > 0 && gamma*nw.Noise[link]/h <= nw.PMax*(1+1e-9) && m < nw.NumLinks()*nw.NumChannels
}

// referenceAnswered reports whether a probe of link on channel k at
// gamma, whose border slots are filled, has a pivot small enough for
// the reference fallback.
func referenceAnswered(ps *ProbeSolver, link, k int, gamma float64) bool {
	h := ps.nw.Gains.Direct[link][k]
	u, _ := ps.pivot(gamma, h, gamma*ps.nw.Noise[link]/h)
	return math.Abs(u) < 1e-9
}

// borderDiff compares the border vectors ps used for its last probe at
// its current depth with those of fresh, a solver holding the same
// committed pattern that has just answered the same probe, and names
// the first entry that differs in any bit ("" if none). The border
// vectors are compared over every committed row, so an entry kept past
// its invalidation, or a running sum not carried on from its prefix,
// shows here even if no verdict moves. The lazily solved v = U⁻¹y is
// compared whenever ps holds it valid, solving it in fresh on demand.
func borderDiff(ps, fresh *ProbeSolver) string {
	m := ps.m
	y, gCol := ps.borderCol()
	fy, fgCol := fresh.borderCol()
	wh, gRow := ps.borderRow()
	fwh, fgRow := fresh.borderRow()
	sums := func(s *ProbeSolver) []float64 {
		o := s.rowOff
		return append(append([]float64(nil), s.rowWY[o:o+m]...), s.rowWZ[o:o+m]...)
	}
	switch {
	case !sameBits(y, fy) || !sameBits(gCol, fgCol):
		return "border column y = L⁻¹c"
	case !sameBits(wh, fwh) || !sameBits(gRow, fgRow):
		return "border row ŵ"
	case !sameBits(sums(ps), sums(fresh)):
		return "running sums ŵ·y or ŵ·z"
	case ps.vCol[m] == ps.colOff && ps.vGen[m] == ps.rowGen[m] && !sameBits(ps.colV[m*ps.cap:m*ps.cap+m], fresh.columnV()):
		return "v = U⁻¹y"
	case !sameBits(ps.x0[m*ps.cap:m*ps.cap+m], fresh.x0[m*fresh.cap:m*fresh.cap+m]):
		return "committed powers x₀"
	}
	return ""
}

// TestProbeSolverBorderReuseBitExact walks one ProbeSolver (a
// reuseWalk) through a seeded random sequence of Probe, ProbeDown over
// a random band of levels, Push (after a matching probe, at a level
// below a sweep's answer, and cold — committing an alternative probed
// earlier), Pop and Reset, holding it to fresh replays bit for bit and
// every verdict to the reference solve. The walk reuses cached border
// slots across sibling probes and, through nearSingularNetwork,
// commits rows whose probe was answered by the reference fallback;
// both are counted and must occur.
func TestProbeSolverBorderReuseBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, tc := range []struct {
		name  string
		model InterferenceModel
		multi bool
	}{
		{"global", Global, false},
		{"per-channel", PerChannel, false},
		{"global/multi-channel", Global, true},
		{"per-channel/multi-channel", PerChannel, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var reused, referenced, referencePushed, swept, sweptBelow int
			for inst := 0; inst < 6; inst++ {
				nw := nearSingularNetwork(rng, tc.model, tc.multi)
				w := newReuseWalk(t, nw)
				var last probeEntry
				lastDepth := -1 // depth of the previous probe; −1 after a row write

				draw := func() (int, int, float64) {
					if last.g != 0 && rng.Intn(2) == 0 {
						// Sibling probe: same link, another (channel, level).
						return last.l, rng.Intn(nw.NumChannels), nw.Rates.Gammas[rng.Intn(nw.Rates.Levels())]
					}
					l := rng.Intn(nw.NumLinks())
					if rng.Intn(3) == 0 {
						l = rng.Intn(2) // the near-singular pair
					}
					q := rng.Intn(nw.Rates.Levels())
					if l < 2 && rng.Intn(2) == 0 {
						q = 0
					}
					return l, rng.Intn(nw.NumChannels), nw.Rates.Gammas[q]
				}

				for step := 0; step < 600; step++ {
					switch op := rng.Intn(12); {
					case op == 0:
						w.reset()
						last, lastDepth = probeEntry{}, -1
						continue
					case op <= 2 && len(w.stack) > 0:
						w.pop()
						last, lastDepth = probeEntry{}, -1
						continue
					case op == 3 && last.g != 0 && w.free(last.l, last.k):
						// Commit an alternative that is not the last probe.
						l := last.l
						k := rng.Intn(nw.NumChannels)
						g := nw.Rates.Gammas[rng.Intn(nw.Rates.Levels())]
						if !w.free(l, k) || (k == last.k && g == last.g) || !w.feasibleWith(l, k, g) {
							continue
						}
						w.push(l, k, g)
						last, lastDepth = probeEntry{}, -1
						continue
					}

					l, k, g := draw()
					if !w.free(l, k) {
						continue
					}
					if rng.Intn(4) == 0 {
						// Level sweep over a random band, committing the
						// first feasible level or one below it.
						hi := rng.Intn(nw.Rates.Levels())
						lo := rng.Intn(hi + 1)
						q := w.probeDown(l, k, hi, lo)
						if want := w.firstFeasible(l, k, hi, lo); q != want {
							t.Fatalf("instance %d step %d: ProbeDown(%d,%d,%d..%d) = %d, reference first feasible level %d", inst, step, l, k, hi, lo, q, want)
						}
						swept++
						last, lastDepth = probeEntry{l, k, nw.Rates.Gammas[hi]}, len(w.stack)
						if q < lo || rng.Intn(2) == 0 {
							continue
						}
						if q2 := lo + rng.Intn(q-lo+1); q2 < q {
							// A level below a feasible one is feasible too.
							if !w.feasibleWith(l, k, nw.Rates.Gammas[q2]) {
								t.Fatalf("instance %d step %d: (%d,%d) feasible at level %d but not at %d", inst, step, l, k, q, q2)
							}
							q, sweptBelow = q2, sweptBelow+1
						}
						w.push(l, k, nw.Rates.Gammas[q])
						last, lastDepth = probeEntry{}, -1
						continue
					}
					if lastDepth == len(w.stack) && l == last.l && (tc.model == Global || k == last.k) {
						reused++
					}
					got, refAnswered := w.probe(l, k, g)
					if got != w.feasibleWith(l, k, g) {
						t.Fatalf("instance %d step %d: Probe(%d,%d,%g) = %v disagrees with the reference solve", inst, step, l, k, g, got)
					}
					last, lastDepth = probeEntry{l, k, g}, len(w.stack)
					if !got {
						continue
					}
					if refAnswered {
						referenced++
					}
					if rng.Intn(2) == 0 {
						if refAnswered {
							referencePushed++
						}
						w.push(l, k, g)
						last, lastDepth = probeEntry{}, -1
					}
				}
			}
			if reused == 0 || referenced == 0 || referencePushed == 0 || swept == 0 || sweptBelow == 0 {
				t.Fatalf("walk missed a path: %d sibling probes, %d reference-answered probes, %d of them committed, %d level sweeps, %d commits below a sweep's answer",
					reused, referenced, referencePushed, swept, sweptBelow)
			}
			t.Logf("%d sibling probes, %d reference-answered probes, %d of them committed, %d level sweeps, %d commits below a sweep's answer",
				reused, referenced, referencePushed, swept, sweptBelow)
		})
	}
}

// TestProbeSolverLevelSweep probes as the pricing DFS does: at each
// node, every free link on every channel at every level from the
// highest down, descending into a random subset of the feasible
// extensions (Push, recurse, Pop) before the sweep goes on, so the
// probes after a Pop reuse the border vectors the subtree left behind.
// Half the nodes ask level by level with Probe; the other half ask
// ProbeDown once per (link, channel) and take every level below its
// answer as feasible without probing it, committing those levels cold
// after the subtree of the level above has popped. Every verdict must
// equal FeasibleAssigned on the same pattern, and every probe and sweep
// a fresh replay bit for bit. The sweep must see border row reuse
// (consecutive probes of one link and channel at one depth),
// rejections, acceptances, probes that follow a Push/Pop, and levels
// taken as feasible below a ProbeDown answer.
func TestProbeSolverLevelSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range []struct {
		name  string
		model InterferenceModel
		multi bool
	}{
		{"global", Global, false},
		{"per-channel", PerChannel, false},
		{"global/multi-channel", Global, true},
		{"per-channel/multi-channel", PerChannel, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var probes, rowReused, accepted, afterPop, sweeps, implied int
			for inst := 0; inst < 4; inst++ {
				nw := randomNetwork(rng, 7, 3)
				nw.Interference = tc.model
				nw.MultiChannel = tc.multi
				w := newReuseWalk(t, nw)
				top := nw.Rates.Levels() - 1
				nodes := 0
				var dfs func(first int)
				// descend commits (l, k) at level q and explores below it
				// for a random third of the feasible extensions.
				descend := func(l, k, q int) bool {
					if nodes >= 400 || rng.Intn(3) != 0 {
						return false
					}
					next := l + 1
					if tc.multi {
						next = l
					}
					w.push(l, k, nw.Rates.Gammas[q])
					dfs(next)
					w.pop()
					return true
				}
				dfs = func(first int) {
					nodes++
					sweep := rng.Intn(2) == 0
					var last probeEntry
					popped := false
					for l := first; l < nw.NumLinks(); l++ {
						for k := 0; k < nw.NumChannels; k++ {
							if !w.free(l, k) {
								continue
							}
							if sweep {
								sweeps++
								q := w.probeDown(l, k, top, 0)
								if want := w.firstFeasible(l, k, top, 0); q != want {
									t.Fatalf("instance %d: ProbeDown(%d,%d) = %d, reference first feasible level %d, stack %v",
										inst, l, k, q, want, w.stack)
								}
								for lev := q; lev >= 0; lev-- {
									if lev < q {
										implied++
										if !w.feasibleWith(l, k, nw.Rates.Gammas[lev]) {
											t.Fatalf("instance %d: (%d,%d) feasible at level %d but not at %d, stack %v",
												inst, l, k, q, lev, w.stack)
										}
									}
									accepted++
									descend(l, k, lev)
								}
								continue
							}
							for q := top; q >= 0; q-- {
								g := nw.Rates.Gammas[q]
								if last.l == l && last.k == k && last.g != 0 {
									rowReused++
								}
								if popped {
									afterPop++
									popped = false
								}
								probes++
								got, _ := w.probe(l, k, g)
								if want := w.feasibleWith(l, k, g); got != want {
									t.Fatalf("instance %d: Probe(%d,%d,%g) = %v, FeasibleAssigned = %v, stack %v",
										inst, l, k, g, got, want, w.stack)
								}
								last = probeEntry{l, k, g}
								if !got {
									continue
								}
								accepted++
								if descend(l, k, q) {
									popped = true
								}
							}
						}
					}
				}
				dfs(0)
				if len(w.stack) != 0 {
					t.Fatalf("sweep left %d links committed", len(w.stack))
				}
			}
			if rowReused == 0 || accepted == 0 || accepted == probes || afterPop == 0 || sweeps == 0 || implied == 0 {
				t.Fatalf("sweep missed a path: %d probes, %d reusing the border row, %d accepted, %d after a Pop, %d ProbeDown sweeps, %d levels below their answers",
					probes, rowReused, accepted, afterPop, sweeps, implied)
			}
			t.Logf("%d probes, %d reusing the border row, %d accepted, %d after a Pop, %d ProbeDown sweeps, %d levels below their answers",
				probes, rowReused, accepted, afterPop, sweeps, implied)
		})
	}
}

// TestProbeSolverBorderPrefixReuse checks that a probe extends the
// border vectors it already holds instead of re-solving them: after a
// probe of (link, channel) at depth m, entries 0..m−1 of its column and
// row vectors must survive a Push of another link and a second probe of
// the same (link, channel) one row deeper, which solves entry m only;
// a Pop and a Push of a different last row must re-solve that row's
// entry and nothing below it. The kept entries are overwritten with a
// sentinel after the first probe, so an entry the solver re-solved — a
// stamp that no longer matches, a prefix scan that gives up early —
// shows as a lost sentinel. The bit-exact walks cannot see this: a
// re-solved entry has the same bits as a kept one.
func TestProbeSolverBorderPrefixReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sentinel := math.Float64frombits(0x7ff8_0000_dead_beef)
	for _, model := range []InterferenceModel{Global, PerChannel} {
		nw := randomNetwork(rng, 8, 2)
		nw.Interference = model
		ps := NewProbeSolver(nw, nw.NumLinks())
		g := nw.Rates.Gammas[0]
		// Commit three links on channel 0, keep the rest as spares to
		// push between the probes of link 0.
		var spares []int
		for l := 1; l < nw.NumLinks(); l++ {
			if ps.Depth() < 3 && ps.Probe(l, 0, g) {
				ps.Push(l, 0, g)
			} else {
				spares = append(spares, l)
			}
		}
		m := ps.Depth()
		if m < 3 || !borderReached(nw, 0, 0, g, m) {
			t.Fatalf("%v: committed %d links, want 3 and a reachable border for link 0", model, m)
		}
		// vectors returns link 0's border vectors on channel 0 over n rows.
		vectors := func(n int) [][]float64 {
			c, r := ps.colOff, ps.rowOff
			return [][]float64{ps.colY[c : c+n], ps.colG[c : c+n], ps.rowW[r : r+n], ps.rowG[r : r+n], ps.rowWY[r : r+n], ps.rowWZ[r : r+n]}
		}
		// kept reports whether entries 0..n−1 all still hold the sentinel.
		kept := func(n int) bool {
			for _, v := range vectors(n) {
				for _, x := range v {
					if math.Float64bits(x) != math.Float64bits(sentinel) {
						return false
					}
				}
			}
			return true
		}
		pushSpare := func() {
			for i, l := range spares {
				if ps.Probe(l, 0, g) {
					ps.Push(l, 0, g)
					spares = append(spares[:i], spares[i+1:]...)
					return
				}
			}
			t.Fatalf("%v: no spare link fits at depth %d", model, ps.Depth())
		}

		ps.Probe(0, 0, g)
		for _, v := range vectors(m) {
			for j := range v {
				v[j] = sentinel
			}
		}
		pushSpare()
		ps.Probe(0, 0, g)
		if !kept(m) {
			t.Fatalf("%v: a probe one row deeper re-solved entries below row %d", model, m)
		}
		if kept(m + 1) {
			t.Fatalf("%v: a probe one row deeper did not solve entry %d", model, m)
		}
		for _, v := range vectors(m + 1) {
			v[m] = sentinel
		}
		ps.Pop()
		pushSpare()
		ps.Probe(0, 0, g)
		if !kept(m) {
			t.Fatalf("%v: a probe after replacing row %d re-solved the rows below it", model, m)
		}
		if kept(m + 1) {
			t.Fatalf("%v: a probe after replacing row %d kept its stale entry", model, m)
		}
	}
}

// FuzzProbeSolverReuse drives a ProbeSolver with a byte-coded sequence
// of Probe, ProbeDown (from the coded level down to the lowest), Push,
// Pop and Reset on a fixed network with a near-singular
// pair (the reuseWalk of TestProbeSolverBorderReuseBitExact); every
// probe and commit must agree bit for bit with a fresh solver's replay
// of the committed pattern. Each op takes two bytes: the first picks
// the operation, the second the link, channel and level. A Push
// commits its extension only when the reference solve finds it
// feasible, as callers vouch.
func FuzzProbeSolverReuse(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 0, 0, 9, 1, 9, 0, 17, 2, 0, 0, 3, 3, 0})
	f.Add([]byte{0, 5, 0, 21, 0, 37, 1, 5, 0, 0, 0, 64, 1, 0, 2, 0, 4, 0, 0, 5})
	f.Add([]byte{1, 3, 40, 4, 40, 3, 41, 3, 77, 6, 0, 3, 40, 4, 1, 3, 121})
	models := []struct {
		model InterferenceModel
		multi bool
	}{{Global, false}, {PerChannel, false}, {Global, true}, {PerChannel, true}}
	nws := make([]*Network, len(models))
	rng := rand.New(rand.NewSource(5))
	for i, m := range models {
		nws[i] = nearSingularNetwork(rng, m.model, m.multi)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 256 {
			return
		}
		nw := nws[int(ops[0])%len(nws)]
		w := newReuseWalk(t, nw)
		links, chans, levels := nw.NumLinks(), nw.NumChannels, nw.Rates.Levels()
		for i := 1; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			l := arg % links
			k := (arg / links) % chans
			g := nw.Rates.Gammas[(arg/(links*chans))%levels]
			switch ops[i] % 8 {
			case 0, 1, 2:
				if w.free(l, k) {
					w.probe(l, k, g)
				}
			case 3:
				if w.free(l, k) {
					w.probeDown(l, k, (arg/(links*chans))%levels, 0)
				}
			case 4, 5:
				if w.free(l, k) && w.feasibleWith(l, k, g) {
					w.push(l, k, g)
				}
			case 6:
				if len(w.stack) > 0 {
					w.pop()
				}
			case 7:
				w.reset()
			}
		}
	})
}

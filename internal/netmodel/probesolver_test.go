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

// TestProbeSolverBorderReuseBitExact walks one ProbeSolver through a
// seeded random sequence of Probe, Push (after a matching probe, and
// cold — committing an alternative probed earlier), Pop and Reset, and
// after every probe replays the committed pattern into a fresh solver:
// the verdict, the bordered solves, the pivot and the power vector
// must agree bit for bit, and so must the committed factors after
// every commit. The walk reuses cached border columns across sibling
// probes and, through nearSingularNetwork, commits rows whose probe
// was answered by the reference fallback; both are counted and must
// occur.
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
			var reused, referenced, referencePushed int
			for inst := 0; inst < 6; inst++ {
				nw := nearSingularNetwork(rng, tc.model, tc.multi)
				capacity := nw.NumLinks() * nw.NumChannels
				ps := NewProbeSolver(nw, capacity)
				var stack []probeEntry
				var last probeEntry
				lastDepth := -1 // depth of the previous probe; −1 after a row write

				replay := func() *ProbeSolver {
					fresh := NewProbeSolver(nw, capacity)
					for _, e := range stack {
						fresh.Push(e.l, e.k, e.g)
					}
					return fresh
				}
				checkFactors := func(step int) {
					fresh := replay()
					m := len(stack)
					if !sameBits(committedBlock(ps.lu, m, ps.cap), committedBlock(fresh.lu, m, fresh.cap)) ||
						!sameBits(committedBlock(ps.ut, m, ps.cap), committedBlock(fresh.ut, m, fresh.cap)) ||
						!sameBits(committedBlock(ps.g, m, ps.cap), committedBlock(fresh.g, m, fresh.cap)) ||
						!sameBits(ps.z, fresh.z) || !sameBits(ps.b, fresh.b) {
						t.Fatalf("instance %d step %d: committed factors differ from a fresh replay of %v", inst, step, stack)
					}
				}
				free := func(l, k int) bool {
					for _, e := range stack {
						if e.l == l && (e.k == k || !tc.multi) {
							return false
						}
					}
					return true
				}
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
						ps.Reset()
						stack, last, lastDepth = stack[:0], probeEntry{}, -1
						continue
					case op <= 2 && len(stack) > 0:
						ps.Pop()
						stack = stack[:len(stack)-1]
						last, lastDepth = probeEntry{}, -1
						continue
					case op == 3 && last.g != 0 && free(last.l, last.k):
						// Commit an alternative that is not the pending probe.
						l := last.l
						k := rng.Intn(nw.NumChannels)
						g := nw.Rates.Gammas[rng.Intn(nw.Rates.Levels())]
						if !free(l, k) || (k == last.k && g == last.g) {
							continue
						}
						pat := append(stack[:len(stack):len(stack)], probeEntry{l, k, g})
						if !nw.FeasibleAssigned(patternOf(pat)) {
							continue
						}
						ps.Push(l, k, g)
						stack = pat
						last, lastDepth = probeEntry{}, -1
						checkFactors(step)
						continue
					}

					l, k, g := draw()
					if !free(l, k) {
						continue
					}
					if lastDepth == len(stack) && l == last.l && (tc.model == Global || k == last.k) {
						reused++
					}
					got := ps.Probe(l, k, g)
					fresh := replay()
					want := fresh.Probe(l, k, g)
					m := len(stack)
					if got != want || ps.pendOK != fresh.pendOK {
						t.Fatalf("instance %d step %d: Probe(%d,%d,%g) = %v (pending %v), fresh replay = %v (pending %v), stack %v",
							inst, step, l, k, g, got, ps.pendOK, want, fresh.pendOK, stack)
					}
					if ps.pendOK && (!sameBits(ps.x[:m], fresh.x[:m]) || !sameBits(ps.y, fresh.y) ||
						!sameBits(ps.w[:m], fresh.w[:m]) || !sameBits(ps.gCol, fresh.gCol) ||
						!sameBits(ps.gRow[:m], fresh.gRow[:m]) ||
						!sameBits([]float64{ps.pendB, ps.pendU, ps.pendZ}, []float64{fresh.pendB, fresh.pendU, fresh.pendZ})) {
						t.Fatalf("instance %d step %d: Probe(%d,%d,%g) bordered solve differs from a fresh replay, stack %v",
							inst, step, l, k, g, stack)
					}
					if want != nw.FeasibleAssigned(patternOf(append(stack[:m:m], probeEntry{l, k, g}))) {
						t.Fatalf("instance %d step %d: Probe(%d,%d,%g) = %v disagrees with the reference solve", inst, step, l, k, g, got)
					}
					last, lastDepth = probeEntry{l, k, g}, m
					if !got {
						continue
					}
					if !ps.pendOK {
						referenced++
					}
					if rng.Intn(2) == 0 {
						if !ps.pendOK {
							referencePushed++
						}
						ps.Push(l, k, g)
						stack = append(stack, probeEntry{l, k, g})
						last, lastDepth = probeEntry{}, -1
						checkFactors(step)
					}
				}
			}
			if reused == 0 || referenced == 0 || referencePushed == 0 {
				t.Fatalf("walk missed a path: %d sibling probes, %d reference-answered probes, %d of them committed",
					reused, referenced, referencePushed)
			}
			t.Logf("%d sibling probes, %d reference-answered probes, %d of them committed", reused, referenced, referencePushed)
		})
	}
}

package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mmwave/internal/channel"
	"mmwave/internal/netmodel"
)

// pricingDuals draws a random positive dual vector pair, scaled so
// that single-link schedules already price above the improvement
// threshold of 1 — the search must then actually explore multi-link
// combinations instead of pruning at the root.
func pricingDuals(rng *rand.Rand, n int) (hp, lp []float64) {
	hp = make([]float64, n)
	lp = make([]float64, n)
	for i := range hp {
		hp[i] = (0.5 + rng.Float64()) * 1e-7
		lp[i] = (0.5 + rng.Float64()) * 1e-7
	}
	return hp, lp
}

// TestParallelPricerValueMatchesSerial prices the same instances with
// the serial search and the root-split parallel search. The parallel
// search shares one probe budget and prunes against the same bound, so
// when both complete exactly they must find the same optimal value —
// the schedule may differ only among equal-value optima.
func TestParallelPricerValueMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	searched := 0
	for trial := 0; trial < 8; trial++ {
		nw := servableNetwork(rng, 8, 2)
		hp := make([]float64, 8)
		lp := make([]float64, 8)
		for i := range hp {
			hp[i] = rng.Float64() * 2e-8
			lp[i] = rng.Float64() * 2e-8
		}

		serial := NewBranchBoundPricer(500000)
		sres, err := serial.Price(nw, [][]float64{hp, lp})
		if err != nil {
			t.Fatalf("trial %d serial: %v", trial, err)
		}
		par := NewBranchBoundPricer(500000)
		par.Parallel = 4
		pres, err := par.Price(nw, [][]float64{hp, lp})
		if err != nil {
			t.Fatalf("trial %d parallel: %v", trial, err)
		}
		if !sres.Exact || !pres.Exact {
			t.Fatalf("trial %d: searches not exact (serial %v, parallel %v) — raise the budget", trial, sres.Exact, pres.Exact)
		}
		if sres.Value != pres.Value {
			t.Errorf("trial %d: value %g (serial) vs %g (workers=4)", trial, sres.Value, pres.Value)
		}
		if sres.Probes > 0 {
			searched++
		}
	}
	// Greedy-optimal draws prune at the root without probing; the
	// comparison only has teeth when some instances actually search.
	if searched < 2 {
		t.Fatalf("only %d/8 instances searched — regenerate the test seeds", searched)
	}
}

// friendlyNetwork builds a network with negligible cross interference,
// so every subset of links is concurrently feasible and the pricing
// tree is deep (many probes, large activation patterns).
func friendlyNetwork(nLinks, nChannels int) *netmodel.Network {
	g := &channel.Gains{
		Direct: make([][]float64, nLinks),
		Cross:  make([][][]float64, nLinks),
	}
	links := make([]netmodel.Link, nLinks)
	noise := make([]float64, nLinks)
	for i := 0; i < nLinks; i++ {
		g.Direct[i] = make([]float64, nChannels)
		g.Cross[i] = make([][]float64, nLinks)
		for k := 0; k < nChannels; k++ {
			g.Direct[i][k] = 1
		}
		for j := 0; j < nLinks; j++ {
			g.Cross[i][j] = make([]float64, nChannels)
			if i != j {
				for k := 0; k < nChannels; k++ {
					g.Cross[i][j][k] = 1e-4
				}
			}
		}
		links[i] = netmodel.Link{TXNode: 2 * i, RXNode: 2*i + 1}
		noise[i] = 0.1
	}
	return &netmodel.Network{
		Links:       links,
		NumChannels: nChannels,
		Gains:       g,
		Noise:       noise,
		PMax:        1,
		Rates:       rateTable5(),
		BandwidthHz: 200e6,
	}
}

// TestParallelPricerSharesBudget checks that an exhausted shared budget
// marks the parallel result inexact, exactly like the serial pricer.
func TestParallelPricerSharesBudget(t *testing.T) {
	// This (seed, size) draw needs >10k probes to finish exactly.
	rng := rand.New(rand.NewSource(5))
	nw := servableNetwork(rng, 10, 2)
	hp := make([]float64, 10)
	lp := make([]float64, 10)
	for i := range hp {
		hp[i] = rng.Float64() * 2e-8
		lp[i] = rng.Float64() * 2e-8
	}

	p := NewBranchBoundPricer(50) // far too small to finish
	p.Parallel = 4
	res, err := p.Price(nw, [][]float64{hp, lp})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Error("budget of 50 probes reported an exact search")
	}
	if res.Schedule == nil {
		t.Error("halted search returned no incumbent (greedy seed expected)")
	}
}

// TestParallelPricerDeterministicSchedules requires byte-identical
// schedules from serial and root-split parallel pricing, across
// repeated parallel runs: with generically unique optima the shared
// incumbent and the lowest-task-index tie-break make the parallel
// merge deterministic, and the goroutine-local pooled probe solvers
// must not perturb the search. Both single- and multi-channel access
// modes are covered.
func TestParallelPricerDeterministicSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	searched := 0
	for trial := 0; trial < 6; trial++ {
		nw := servableNetwork(rng, 8, 2)
		nw.MultiChannel = trial%2 == 1
		hp, lp := pricingDuals(rng, 8)

		serial := NewBranchBoundPricer(500000)
		want, err := serial.Price(nw, [][]float64{hp, lp})
		if err != nil {
			t.Fatalf("trial %d serial: %v", trial, err)
		}
		par := NewBranchBoundPricer(500000)
		par.Parallel = 4
		for rep := 0; rep < 3; rep++ {
			got, err := par.Price(nw, [][]float64{hp, lp})
			if err != nil {
				t.Fatalf("trial %d rep %d: %v", trial, rep, err)
			}
			if got.Value != want.Value {
				t.Fatalf("trial %d rep %d: value %g (parallel) != %g (serial)", trial, rep, got.Value, want.Value)
			}
			if !reflect.DeepEqual(got.Schedule, want.Schedule) {
				t.Fatalf("trial %d rep %d: schedules differ:\nparallel: %+v\nserial: %+v",
					trial, rep, got.Schedule, want.Schedule)
			}
		}
		if want.Probes > 0 {
			searched++
		}
	}
	if searched < 2 {
		t.Fatalf("only %d/6 instances searched — regenerate the test seeds", searched)
	}
}

// TestPooledPricerConcurrentRace hammers one shared BranchBoundPricer
// from many goroutines, each itself running a root-split parallel
// search, so the sync.Pool of pricer states (and their goroutine-local
// probe solvers) is churned under maximum contention. Run under
// `go test -race` this is the pooled solver's race test; in any mode
// every concurrent result must equal the serial reference.
func TestPooledPricerConcurrentRace(t *testing.T) {
	const goroutines = 8
	type instance struct {
		nw     *netmodel.Network
		hp, lp []float64
		want   *PriceResult
	}
	rng := rand.New(rand.NewSource(37))
	insts := make([]instance, goroutines)
	for i := range insts {
		nw := servableNetwork(rng, 7, 2)
		nw.MultiChannel = i%2 == 1
		hp, lp := pricingDuals(rng, 7)
		want, err := NewBranchBoundPricer(500000).Price(nw, [][]float64{hp, lp})
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = instance{nw: nw, hp: hp, lp: lp, want: want}
	}

	shared := NewBranchBoundPricer(500000)
	shared.Parallel = 2
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			in := insts[g]
			for rep := 0; rep < 5; rep++ {
				got, err := shared.Price(in.nw, [][]float64{in.hp, in.lp})
				if err != nil {
					errs[g] = err
					return
				}
				if got.Value != in.want.Value || !reflect.DeepEqual(got.Schedule, in.want.Schedule) {
					errs[g] = fmt.Errorf("goroutine %d rep %d: result diverged from serial reference", g, rep)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestPricerStringReportsWorkers pins the diagnostic string.
func TestPricerStringReportsWorkers(t *testing.T) {
	p := NewBranchBoundPricer(100)
	p.Parallel = 4
	if s := p.String(); !strings.Contains(s, "workers=4") {
		t.Errorf("String() = %q, missing %q", s, "workers=4")
	}
}

package faults

import (
	"math"
	"sync"
	"testing"
)

func TestLoadGenDeterministic(t *testing.T) {
	cfg := LoadConfig{
		Links:       4,
		MeanHPBits:  2e6,
		MeanLPBits:  6e6,
		Burstiness:  0.5,
		BurstPeriod: 7,
		Jitter:      0.3,
		Seed:        42,
	}
	a, err := NewLoadGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLoadGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Query b in reverse order to prove order independence.
	type key struct {
		cell int
		ep   int64
	}
	got := map[key][]float64{}
	for cell := 0; cell < 3; cell++ {
		for ep := int64(0); ep < 20; ep++ {
			ds := a.Demands(cell, ep)
			flat := make([]float64, 0, 2*len(ds))
			for _, d := range ds {
				if !d.Valid() {
					t.Fatalf("invalid demand cell=%d ep=%d: %v", cell, ep, d)
				}
				flat = append(flat, d.At(0), d.At(1))
			}
			got[key{cell, ep}] = flat
		}
	}
	for cell := 2; cell >= 0; cell-- {
		for ep := int64(19); ep >= 0; ep-- {
			ds := b.Demands(cell, ep)
			want := got[key{cell, ep}]
			for l, d := range ds {
				if d.At(0) != want[2*l] || d.At(1) != want[2*l+1] {
					t.Fatalf("mismatch cell=%d ep=%d link=%d: %v vs (%g,%g)",
						cell, ep, l, d, want[2*l], want[2*l+1])
				}
			}
		}
	}
}

func TestLoadGenConcurrent(t *testing.T) {
	g, err := NewLoadGen(LoadConfig{Links: 8, MeanHPBits: 1e6, MeanLPBits: 3e6, Jitter: 0.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ref := g.Demands(1, 5)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 100; rep++ {
				ds := g.Demands(1, 5)
				for l, d := range ds {
					if d.At(0) != ref[l].At(0) || d.At(1) != ref[l].At(1) {
						t.Errorf("concurrent mismatch link %d: %v vs %v", l, d, ref[l])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestLoadGenVariation(t *testing.T) {
	g, err := NewLoadGen(LoadConfig{Links: 2, MeanHPBits: 1e6, MeanLPBits: 2e6, Jitter: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := g.Demand(0, 0, 0)
	b := g.Demand(0, 1, 0)
	c := g.Demand(1, 0, 0)
	same := func(x, y interface{ At(int) float64 }) bool {
		return x.At(0) == y.At(0) && x.At(1) == y.At(1)
	}
	if same(a, b) && same(b, c) {
		t.Fatalf("jittered demands identical across epoch and cell: %v", a)
	}
}

func TestLoadGenBurstStaggering(t *testing.T) {
	g, err := NewLoadGen(LoadConfig{Links: 1, MeanHPBits: 1e6, MeanLPBits: 0, Burstiness: 1, BurstPeriod: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Cell 0 bursts at epochs 0,4,8…; cell 1 at 1,5,9…
	if got := g.Demand(0, 0, 0).At(0); got != 2e6 {
		t.Fatalf("cell 0 epoch 0 should burst: %g", got)
	}
	if got := g.Demand(0, 1, 0).At(0); got != 1e6 {
		t.Fatalf("cell 0 epoch 1 should not burst: %g", got)
	}
	if got := g.Demand(1, 1, 0).At(0); got != 2e6 {
		t.Fatalf("cell 1 epoch 1 should burst: %g", got)
	}
}

func TestLoadConfigValidate(t *testing.T) {
	bad := []LoadConfig{
		{Links: 0},
		{Links: 1, MeanHPBits: -1},
		{Links: 1, Jitter: 1},
		{Links: 1, Burstiness: -0.1},
		{Links: 1, BurstPeriod: -2},
	}
	for i, cfg := range bad {
		if _, err := NewLoadGen(cfg); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if _, err := NewLoadGen(LoadConfig{Links: 1}); err != nil {
		t.Errorf("minimal config should validate: %v", err)
	}
}

// TestLoadGenPerClassMix: the generator emits the two-class (HP, LP)
// vector, the configured means come through exactly with no jitter or
// bursts, and with them both classes share one per-(cell, epoch, link)
// scale, so the HP:LP mix of every demand is the configured one.
func TestLoadGenPerClassMix(t *testing.T) {
	flat, err := NewLoadGen(LoadConfig{Links: 2, MeanHPBits: 1e6, MeanLPBits: 3e6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	d := flat.Demand(0, 0, 0)
	if d.NumClasses() != 2 || !d.Valid() {
		t.Fatalf("demand %v, want a valid two-class vector", d)
	}
	if d.At(0) != 1e6 || d.At(1) != 3e6 {
		t.Errorf("demand = %v, want the configured means", d)
	}

	g, err := NewLoadGen(LoadConfig{Links: 2, MeanHPBits: 1e6, MeanLPBits: 3e6, Jitter: 0.3, Burstiness: 0.5, BurstPeriod: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for ep := int64(0); ep < 12; ep++ {
		d := g.Demand(0, ep, 1)
		if ratio := d.At(1) / d.At(0); math.Abs(ratio-3) > 1e-12 {
			t.Fatalf("epoch %d: demand %v has LP:HP %v, want 3", ep, d, ratio)
		}
	}
}

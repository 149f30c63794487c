package channel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mmwave/internal/geom"
)

// placedLinks draws n random links in a 20×20 room.
func placedLinks(rng *rand.Rand, n int) []geom.Segment {
	return geom.Room{Width: 20, Height: 20}.PlaceLinks(rng, n, 1, 6)
}

func TestTableIShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	links := placedLinks(rng, 6)
	g := TableI{}.Generate(rng, links, 4)
	if g.NumLinks() != 6 || g.NumChannels() != 4 {
		t.Fatalf("shape = %d×%d, want 6×4", g.NumLinks(), g.NumChannels())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestTableIRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	links := placedLinks(rng, 10)
	g := TableI{}.Generate(rng, links, 3)
	for l := 0; l < 10; l++ {
		for k := 0; k < 3; k++ {
			if h := g.Direct[l][k]; h < 0 || h > 1 {
				t.Fatalf("direct gain %v outside [0,1]", h)
			}
		}
		for j := 0; j < 10; j++ {
			for k := 0; k < 3; k++ {
				h := g.Cross[l][j][k]
				if l == j && h != 0 {
					t.Fatal("nonzero self-interference")
				}
				if h < 0 || h > 1 {
					t.Fatalf("cross gain %v outside [0,1]", h)
				}
			}
		}
	}
}

func TestTableIFrequencySelectivity(t *testing.T) {
	// Different channels must (almost surely) get different direct
	// gains for the same link.
	rng := rand.New(rand.NewSource(3))
	links := placedLinks(rng, 1)
	g := TableI{}.Generate(rng, links, 5)
	allEqual := true
	for k := 1; k < 5; k++ {
		if g.Direct[0][k] != g.Direct[0][0] {
			allEqual = false
		}
	}
	if allEqual {
		t.Error("direct gains identical across channels — no frequency selectivity")
	}
}

func TestValidateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	fresh := func() *Gains { return TableI{}.Generate(rng, placedLinks(rng, 3), 2) }

	t.Run("cross rows", func(t *testing.T) {
		g := fresh()
		g.Cross = g.Cross[:2]
		if g.Validate() == nil {
			t.Error("want error")
		}
	})
	t.Run("ragged direct", func(t *testing.T) {
		g := fresh()
		g.Direct[1] = g.Direct[1][:1]
		if g.Validate() == nil {
			t.Error("want error")
		}
	})
	t.Run("negative direct", func(t *testing.T) {
		g := fresh()
		g.Direct[0][0] = -0.5
		if g.Validate() == nil {
			t.Error("want error")
		}
	})
	t.Run("nan cross", func(t *testing.T) {
		g := fresh()
		g.Cross[0][1][0] = math.NaN()
		if g.Validate() == nil {
			t.Error("want error")
		}
	})
	t.Run("self interference", func(t *testing.T) {
		g := fresh()
		g.Cross[1][1][0] = 0.3
		if g.Validate() == nil {
			t.Error("want error")
		}
	})
	t.Run("ragged cross", func(t *testing.T) {
		g := fresh()
		g.Cross[0][1] = g.Cross[0][1][:1]
		if g.Validate() == nil {
			t.Error("want error")
		}
	})
}

func TestGeneratorsPropertyValid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	check := func(uint32) bool {
		n := 1 + rng.Intn(8)
		k := 1 + rng.Intn(4)
		g := TableI{}.Generate(rng, placedLinks(rng, n), k)
		return g.Validate() == nil && g.NumLinks() == n && g.NumChannels() == k
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEmptyGains(t *testing.T) {
	var g Gains
	if g.NumLinks() != 0 || g.NumChannels() != 0 {
		t.Error("empty gains should report zero dimensions")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("empty gains should validate: %v", err)
	}
}

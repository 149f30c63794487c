package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestDist(t *testing.T) {
	a := Point{0, 0}
	b := Point{3, 4}
	if d := a.Dist(b); math.Abs(d-5) > 1e-12 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d := a.Dist(a); d != 0 {
		t.Errorf("self distance = %v, want 0", d)
	}
}

func TestRandomPointInRoom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	room := Room{Width: 12, Height: 7}
	for i := 0; i < 200; i++ {
		p := room.RandomPoint(rng)
		if p.X < 0 || p.X > room.Width || p.Y < 0 || p.Y > room.Height {
			t.Fatalf("point %v outside room", p)
		}
	}
}

func TestPlaceLinks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	room := Room{Width: 20, Height: 20}
	links := room.PlaceLinks(rng, 50, 2, 6)
	if len(links) != 50 {
		t.Fatalf("placed %d links, want 50", len(links))
	}
	for i, l := range links {
		d := l.TX.Dist(l.RX)
		if d < 2-1e-9 || d > 6+1e-9 {
			t.Errorf("link %d length %v outside [2, 6]", i, d)
		}
		for _, p := range []Point{l.TX, l.RX} {
			if p.X < 0 || p.X > 20 || p.Y < 0 || p.Y > 20 {
				t.Errorf("link %d endpoint %v outside room", i, p)
			}
		}
	}
}

func TestPlaceLinksSwappedBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	room := Room{Width: 20, Height: 20}
	links := room.PlaceLinks(rng, 5, 6, 2) // min > max: should swap
	for _, l := range links {
		if d := l.TX.Dist(l.RX); d < 2-1e-9 || d > 6+1e-9 {
			t.Errorf("length %v outside swapped bounds", d)
		}
	}
}

func TestPointString(t *testing.T) {
	p := Point{1.234, 5.678}
	if got := p.String(); got != "(1.23, 5.68)" {
		t.Errorf("String = %q", got)
	}
}

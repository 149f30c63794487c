// Package geom provides the 2-D geometry used by the mmWave network
// model: node positions, link endpoints, distances, and random link
// placement in a room.
package geom

import (
	"fmt"
	"math"
	"math/rand"
)

// Point is a position on the 2-D deployment plane, in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// String renders the point as "(x, y)".
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Segment is a directed transmitter→receiver pair, i.e. the geometry of
// one mmWave link.
type Segment struct {
	TX, RX Point
}

// Room describes a rectangular indoor deployment area.
type Room struct {
	Width, Height float64 // meters
}

// RandomPoint draws a point uniformly inside the room.
func (r Room) RandomPoint(rng *rand.Rand) Point {
	return Point{X: rng.Float64() * r.Width, Y: rng.Float64() * r.Height}
}

// PlaceLinks places n links uniformly at random inside the room with
// TX–RX separation drawn uniformly from [minLen, maxLen]. Receivers are
// re-drawn until they fall inside the room, so all endpoints are valid.
func (r Room) PlaceLinks(rng *rand.Rand, n int, minLen, maxLen float64) []Segment {
	if minLen > maxLen {
		minLen, maxLen = maxLen, minLen
	}
	links := make([]Segment, n)
	for i := range links {
		tx := r.RandomPoint(rng)
		var rx Point
		for {
			d := minLen + rng.Float64()*(maxLen-minLen)
			phi := rng.Float64() * 2 * math.Pi
			rx = Point{X: tx.X + d*math.Cos(phi), Y: tx.Y + d*math.Sin(phi)}
			if rx.X >= 0 && rx.X <= r.Width && rx.Y >= 0 && rx.Y <= r.Height {
				break
			}
		}
		links[i] = Segment{TX: tx, RX: rx}
	}
	return links
}

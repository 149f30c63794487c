//go:build !race

package core

// raceEnabled reports whether the race detector is on: under it,
// sync.Pool drops items at random, so pool reuse cannot be counted.
const raceEnabled = false

package cg

// This file holds the engine's one iteration-count acceleration
// (DESIGN.md §17): multi-column admission. It is not an option. The
// engine admits every improving extra a pricer returns, so a pricer's
// own leaf pool decides multi-column pricing; a pricer that pools no
// leaves reproduces the historical single-column loop. Every round runs
// the configured pricer once at the true master duals; the engine keeps
// no dual state between runs.

// maxPoolColumns bounds the pricer-side leaf pool per round.
const maxPoolColumns = 32

// MultiColumnPolicy names the per-round leaf-pool bound that pricers
// pooling near-optimal leaves (PriceResult.Extras) are built with.
type MultiColumnPolicy struct{}

// Columns returns the per-round leaf-pool bound.
func (MultiColumnPolicy) Columns() int { return maxPoolColumns }

package host

import (
	"context"
	"sync/atomic"

	"mmwave/internal/cg"
	"mmwave/internal/netmodel"
)

// hangGate wraps a cell's pricer so the host can inject a solver hang:
// when armed, the next pricing call blocks until the epoch's watchdog
// context is canceled, then reports the cancellation. The engine's
// truncation path takes over from there — the greedy fallback pricer
// supplies a valid Theorem-1 bound and the current master solution
// becomes the anytime plan — so an injected hang produces a
// deterministic truncated result regardless of the watchdog's
// wall-clock duration. Unarmed, the gate is a transparent delegate, so
// fault-free epochs are byte-identical to an unwrapped cell.
//
// The gate implements the full pricer interface ladder (ContextPricer ⊃
// Pricer) and forwards each call to the richest method
// the inner pricer supports, so wrapping never changes which search
// path the engine takes.
type hangGate struct {
	inner cg.Pricer
	armed atomic.Bool
}

var _ cg.ContextPricer = (*hangGate)(nil)

// Arm makes the next pricing call hang until its context is canceled.
func (h *hangGate) Arm() { h.armed.Store(true) }

// block consumes an armed state, reporting whether the call should
// hang.
func (h *hangGate) block(ctx context.Context) error {
	if !h.armed.CompareAndSwap(true, false) {
		return nil
	}
	<-ctx.Done()
	return context.Cause(ctx)
}

func (h *hangGate) String() string { return "hang-gate(" + h.inner.String() + ")" }

func (h *hangGate) Price(nw *netmodel.Network, lambda [][]float64) (*cg.PriceResult, error) {
	// No context to hang on: the engine only takes this path for
	// pricers without PriceContext, which the gate always provides, so
	// a plain Price is a direct delegate.
	return h.inner.Price(nw, lambda)
}

func (h *hangGate) PriceContext(ctx context.Context, nw *netmodel.Network, lambda [][]float64) (*cg.PriceResult, error) {
	if err := h.block(ctx); err != nil {
		return nil, err
	}
	if cp, ok := h.inner.(cg.ContextPricer); ok {
		return cp.PriceContext(ctx, nw, lambda)
	}
	return h.inner.Price(nw, lambda)
}

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mmwave/internal/core"
	"mmwave/internal/netmodel"
)

// span is one timed call into a layer, recorded by benchmark code at
// the layer boundary. Spans of one operation share Op; Parent links a
// span to the span that caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced paths call it unconditionally. Safe for
// concurrent use: server handlers record from their own goroutines.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id and start offset.
func (r *recorder) begin() (int64, int64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return id, int64(time.Since(r.t0))
}

// end closes a span opened by begin.
func (r *recorder) end(id, parent, op int64, name string, start int64) {
	if r == nil {
		return
	}
	s := span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: int64(time.Since(r.t0))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part
// its children cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make(map[int64]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range r.spans {
		out[s.Name] += s.dur() - child[s.ID]
	}
	return out
}

// totals sums span durations and counts spans per name.
func (r *recorder) totals() (map[string]time.Duration, map[string]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	dur := make(map[string]time.Duration)
	n := make(map[string]int)
	for _, s := range r.spans {
		dur[s.Name] += s.dur()
		n[s.Name]++
	}
	return dur, n
}

// write dumps every span as one JSON line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// scope is a recorder plus the span that new spans attach to. The
// solver and replay paths are single-threaded, so one mutable scope
// suffices there.
type scope struct {
	rec    *recorder
	parent int64
	op     int64
}

// timed runs fn inside a span named name and returns its wall time.
// With a nil recorder it only measures.
func (sc *scope) timed(name string, fn func()) time.Duration {
	id, start := sc.rec.begin()
	saved := sc.parent
	sc.parent = id
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	sc.parent = saved
	sc.rec.end(id, saved, sc.op, name, start)
	return d
}

// pricerStats accumulates what the decorator observes.
type pricerStats struct {
	Calls, ExactCalls int
	Probes, Nodes     int64
	Time              time.Duration
}

func (a *pricerStats) add(b pricerStats) {
	a.Calls += b.Calls
	a.ExactCalls += b.ExactCalls
	a.Probes += b.Probes
	a.Nodes += b.Nodes
	a.Time += b.Time
}

// tracedPricer decorates the branch-and-bound pricer from outside:
// every pricing call is timed into a "pricer" span and its result
// counted. It forwards to the inner pricer unchanged, so the solve's
// walk and Stats are identical to an undecorated one.
type tracedPricer struct {
	inner core.ContextPricer
	sc    *scope
	stats pricerStats
}

func (t *tracedPricer) String() string { return t.inner.String() }

func (t *tracedPricer) Price(nw *netmodel.Network, lambda [][]float64) (*core.PriceResult, error) {
	return t.PriceContext(context.Background(), nw, lambda)
}

func (t *tracedPricer) PriceContext(ctx context.Context, nw *netmodel.Network, lambda [][]float64) (*core.PriceResult, error) {
	var res *core.PriceResult
	var err error
	d := t.sc.timed("pricer", func() { res, err = t.inner.PriceContext(ctx, nw, lambda) })
	t.stats.Calls++
	t.stats.Time += d
	if err == nil && res != nil {
		if res.Exact {
			t.stats.ExactCalls++
		}
		t.stats.Probes += int64(res.Probes)
		t.stats.Nodes += int64(res.Nodes)
	}
	return res, err
}

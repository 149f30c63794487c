// Package obs is the repository's zero-dependency observability layer:
// structured trace events with a JSONL sink, a metrics registry with a
// deterministic text exposition, and pprof profiling hooks. Every hot
// path (column generation, pricing, the master simplex, the PNC epoch
// loop, the experiment worker pool) reports through this package.
//
// The package is built around two invariants:
//
//   - Disabled observability is free. A nil *Tracer, nil *Span, nil
//     *Registry, and every handle obtained from them are valid no-op
//     receivers; the disabled paths perform no allocation (pinned by
//     testing.AllocsPerRun) and the instrumented algorithms never
//     branch on whether a consumer is attached, so plans are
//     byte-identical with tracing on and off. An attached JSONL sink
//     does allocate per event.
//   - Output is deterministic given deterministic inputs. The metrics
//     exposition sorts metric names and formats numbers canonically,
//     so two runs that observe the same values produce the same bytes.
//     JSONL events encode through encoding/json from Event's struct
//     tags, which fix the field order, so a trace emitted from one
//     goroutine (a single solve, a figure campaign at -workers 1) is
//     the same bytes run after run, apart from the timestamps (the one
//     intentionally wall-clock-dependent field; tests pin them through
//     Tracer.Clock) and span.end's n. A trace of a parallel run is not:
//     sweep workers and concurrently stepping host cells (chaossoak
//     interleaves its cells even at -workers 1) emit in scheduling
//     order, and span ids come from one counter in emission order. Two
//     such traces match only as a multiset of events with t, n and sid
//     masked, so consumers fold events by span name, never by position
//     or by sid.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one structured trace record. The zero value plus a Name is
// valid. Its json tags are the trace format: JSONLSink writes and
// DecodeJSONL reads the fields in declaration order, omitting the
// zero-valued ones. The typed fields cover the repository's hot-path
// schemas (the column-generation iteration event carries Iter, Phi,
// Upper, Lower, Pool, Probes, and Nodes), so a disabled tracer passes
// events by value without allocating.
type Event struct {
	T      int64   `json:"t,omitempty"`    // ns since the tracer started
	Span   string  `json:"span,omitempty"` // enclosing span name
	SpanID uint64  `json:"sid,omitempty"`  // enclosing span instance
	Name   string  `json:"ev"`             // event name, e.g. "cg.iteration"
	Iter   int     `json:"iter,omitempty"` // iteration index
	Phi    float64 `json:"phi,omitempty"`  // reduced cost Φ
	Upper  float64 `json:"ub,omitempty"`   // upper bound (MP objective)
	Lower  float64 `json:"lb,omitempty"`   // Theorem-1 lower bound
	Pool   int     `json:"pool,omitempty"` // column-pool size
	Probes int     `json:"probes,omitempty"`
	Nodes  int     `json:"nodes,omitempty"`
	N      float64 `json:"n,omitempty"`   // generic numeric payload
	Msg    string  `json:"msg,omitempty"` // generic string payload
}

// Sink consumes trace events. Implementations must be safe for
// concurrent use: solver spans from parallel experiment workers share
// one sink. Events travel by value end to end — a pointer would leak
// the caller's Event into the heap even on the disabled path, because
// escape analysis cannot see past the interface call.
type Sink interface {
	Emit(e Event)
	Close() error
}

// Tracer emits structured trace events to a sink. The nil *Tracer is
// the valid, allocation-free no-op default: every method short-circuits
// immediately, so instrumented code never branches on enablement.
type Tracer struct {
	sink Sink
	ids  atomic.Uint64

	// Clock returns the event timestamp in nanoseconds. It defaults to
	// time-since-tracer-creation (monotonic); tests override it for
	// byte-stable output.
	Clock func() int64
}

// New returns a tracer writing to sink (nil sink means a no-op tracer).
func New(sink Sink) *Tracer {
	start := time.Now()
	return &Tracer{sink: sink, Clock: func() int64 { return int64(time.Since(start)) }}
}

// Enabled reports whether emitted events reach a sink.
func (t *Tracer) Enabled() bool { return t != nil && t.sink != nil }

// Emit stamps and forwards one event. A nil or sink-less tracer is a
// no-op costing two compares; the by-value event stays on the caller's
// stack.
func (t *Tracer) Emit(e Event) {
	if t == nil || t.sink == nil {
		return
	}
	if e.T == 0 && t.Clock != nil {
		e.T = t.Clock()
	}
	t.sink.Emit(e)
}

// Close closes the underlying sink (flushing buffered events).
func (t *Tracer) Close() error {
	if t == nil || t.sink == nil {
		return nil
	}
	return t.sink.Close()
}

// StartSpan opens a named span and emits its "span.start" event. The
// nil tracer returns a nil span, itself a valid no-op.
func (t *Tracer) StartSpan(name string) *Span {
	if t == nil || t.sink == nil {
		return nil
	}
	s := &Span{t: t, name: name, id: t.ids.Add(1)}
	if t.Clock != nil {
		s.start = t.Clock()
	}
	t.Emit(Event{T: s.start, Span: name, SpanID: s.id, Name: "span.start"})
	return s
}

// Span is one named, numbered region of a trace. The nil *Span is a
// valid no-op (returned by disabled tracers).
type Span struct {
	t     *Tracer
	name  string
	id    uint64
	start int64
}

// Enabled reports whether events emitted on the span reach a sink.
func (s *Span) Enabled() bool { return s != nil }

// Emit tags the event with the span's name and id and forwards it.
func (s *Span) Emit(e Event) {
	if s == nil {
		return
	}
	e.Span = s.name
	e.SpanID = s.id
	s.t.Emit(e)
}

// End emits the span's "span.end" event carrying its duration (ns) in
// the N field.
func (s *Span) End() {
	if s == nil {
		return
	}
	var dur int64
	if s.t.Clock != nil {
		dur = s.t.Clock() - s.start
	}
	s.t.Emit(Event{Span: s.name, SpanID: s.id, Name: "span.end", N: float64(dur)})
}

// JSONLSink writes one JSON object per event to an io.Writer, encoded
// by encoding/json from Event's struct tags. It is safe for concurrent
// use. Encode errors (a non-finite float has no JSON spelling) and
// write errors are latched and reported by Err/Close rather than
// interrupting the instrumented computation; once one is latched, later
// events are dropped. An enabled sink allocates per event.
type JSONLSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
	c   io.Closer
	err error
	n   int64
}

// NewJSONLSink wraps w in a buffered JSONL sink. If w is also an
// io.Closer, Close closes it after flushing.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	s := &JSONLSink{w: bw, enc: json.NewEncoder(bw)}
	s.enc.SetEscapeHTML(false)
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit implements Sink.
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if err := s.enc.Encode(e); err != nil {
		s.err = err
		return
	}
	s.n++
}

// Events returns the number of events successfully written.
func (s *JSONLSink) Events() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Err returns the first encode or write error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close flushes the buffer and closes the underlying writer when it is
// closable.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ferr := s.w.Flush(); s.err == nil {
		s.err = ferr
	}
	if s.c != nil {
		if cerr := s.c.Close(); s.err == nil {
			s.err = cerr
		}
		s.c = nil
	}
	return s.err
}

// DecodeJSONL parses a JSONL trace back into events (the inverse of
// JSONLSink for round-trip tests and offline analysis). It fails on the
// first malformed line.
func DecodeJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(text, &e); err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", line, err)
		}
		if e.Name == "" {
			return nil, fmt.Errorf("obs: line %d: event without a name", line)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

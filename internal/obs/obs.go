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
//     byte-identical with tracing on and off.
//   - Output is deterministic given deterministic inputs. JSONL events
//     encode their fields in a fixed order, and the metrics exposition
//     sorts metric names and formats numbers canonically, so two runs
//     that observe the same values produce the same bytes (event
//     timestamps are the one intentionally wall-clock-dependent field;
//     tests pin them through Tracer.Clock).
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one structured trace record. The zero value plus a Name is
// valid; zero-valued fields are omitted from the JSONL encoding. The
// typed fields cover the repository's hot-path schemas (the
// column-generation iteration event carries Iter, Phi, Upper, Lower,
// Pool, Probes, and Nodes) so emitting an event allocates nothing
// beyond what the caller puts on its stack.
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

// appendJSON encodes the event as one JSON object in fixed field order
// (no trailing newline). The encoding round-trips through the struct's
// json tags.
func (e *Event) appendJSON(buf []byte) []byte {
	buf = append(buf, '{')
	if e.T != 0 {
		buf = append(buf, `"t":`...)
		buf = strconv.AppendInt(buf, e.T, 10)
		buf = append(buf, ',')
	}
	if e.Span != "" {
		buf = append(buf, `"span":`...)
		buf = appendJSONString(buf, e.Span)
		buf = append(buf, ',')
	}
	if e.SpanID != 0 {
		buf = append(buf, `"sid":`...)
		buf = strconv.AppendUint(buf, e.SpanID, 10)
		buf = append(buf, ',')
	}
	buf = append(buf, `"ev":`...)
	buf = appendJSONString(buf, e.Name)
	if e.Iter != 0 {
		buf = append(buf, `,"iter":`...)
		buf = strconv.AppendInt(buf, int64(e.Iter), 10)
	}
	if e.Phi != 0 {
		buf = append(buf, `,"phi":`...)
		buf = appendJSONFloat(buf, e.Phi)
	}
	if e.Upper != 0 {
		buf = append(buf, `,"ub":`...)
		buf = appendJSONFloat(buf, e.Upper)
	}
	if e.Lower != 0 {
		buf = append(buf, `,"lb":`...)
		buf = appendJSONFloat(buf, e.Lower)
	}
	if e.Pool != 0 {
		buf = append(buf, `,"pool":`...)
		buf = strconv.AppendInt(buf, int64(e.Pool), 10)
	}
	if e.Probes != 0 {
		buf = append(buf, `,"probes":`...)
		buf = strconv.AppendInt(buf, int64(e.Probes), 10)
	}
	if e.Nodes != 0 {
		buf = append(buf, `,"nodes":`...)
		buf = strconv.AppendInt(buf, int64(e.Nodes), 10)
	}
	if e.N != 0 {
		buf = append(buf, `,"n":`...)
		buf = appendJSONFloat(buf, e.N)
	}
	if e.Msg != "" {
		buf = append(buf, `,"msg":`...)
		buf = appendJSONString(buf, e.Msg)
	}
	return append(buf, '}')
}

// appendJSONFloat appends v in the shortest round-tripping decimal
// form. Non-finite values (not representable in JSON) are clamped to
// null-safe strings so a sink never emits invalid JSON.
func appendJSONFloat(buf []byte, v float64) []byte {
	if v != v || v > 1.7976931348623157e308 || v < -1.7976931348623157e308 {
		return append(buf, `"non-finite"`...)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// appendJSONString appends s as a JSON string, escaping the characters
// JSON requires (the event vocabulary is ASCII identifiers, so the
// slow path through encoding/json is reserved for exotic input).
func appendJSONString(buf []byte, s string) []byte {
	simple := true
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
			simple = false
			break
		}
	}
	if simple {
		buf = append(buf, '"')
		buf = append(buf, s...)
		return append(buf, '"')
	}
	b, _ := json.Marshal(s)
	return append(buf, b...)
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

// JSONLSink writes one JSON object per event to an io.Writer. It is
// safe for concurrent use; write errors are latched and reported by
// Err/Close rather than interrupting the instrumented computation.
type JSONLSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	buf []byte
	err error
	n   int64
}

// NewJSONLSink wraps w in a buffered JSONL sink. If w is also an
// io.Closer, Close closes it after flushing.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{w: bufio.NewWriter(w)}
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
	s.buf = e.appendJSON(s.buf[:0])
	s.buf = append(s.buf, '\n')
	if _, err := s.w.Write(s.buf); err != nil {
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

// Err returns the first write error, if any.
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

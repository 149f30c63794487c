package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestNoopTracerZeroAlloc pins the cost of disabled tracing: emitting
// events, opening spans, and bumping nil instruments through a nil
// tracer/registry must allocate nothing — that is what makes leaving
// the instrumentation unconditionally in the hot paths safe.
func TestNoopTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	var reg *Registry
	counter := reg.Counter("x") // nil
	gauge := reg.Gauge("y")
	hist := reg.Histogram("z")
	span := tr.StartSpan("solve") // nil
	allocs := testing.AllocsPerRun(1000, func() {
		ev := Event{Name: "cg.iteration", Iter: 3, Phi: -0.5, Upper: 1.25, Lower: 1.0, Pool: 17, Probes: 420}
		tr.Emit(ev)
		span.Emit(ev)
		span.End()
		sp := tr.StartSpan("inner")
		sp.Emit(ev)
		sp.End()
		counter.Add(3)
		gauge.Add(0.5)
		hist.Observe(1.5)
	})
	if allocs != 0 {
		t.Fatalf("no-op observability allocated %v allocs/op, want 0", allocs)
	}
}

// TestJSONLRoundTrip writes a batch of events through the JSONL sink
// and decodes them back, checking field-for-field equality.
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := New(sink)
	tr.Clock = func() int64 { return 42 } // pin timestamps

	want := []Event{
		{Name: "cg.iteration", Iter: 1, Phi: -0.25, Upper: 3.5, Lower: 2.8, Pool: 31, Probes: 1234, Nodes: 99},
		{Name: "epoch.shed", N: 1.5e6, Msg: "lp-before-hp"},
		{Name: "weird", Msg: "quotes \" and \\ and \t unicode ✓"},
		{Name: "negative", Phi: -1e-9, N: -3},
	}
	span := tr.StartSpan("core.solve")
	for i := range want {
		span.Emit(want[i])
	}
	span.End()
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if sink.Events() != int64(len(want)+2) { // +span.start +span.end
		t.Fatalf("sink recorded %d events, want %d", sink.Events(), len(want)+2)
	}

	got, err := DecodeJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(want)+2 {
		t.Fatalf("decoded %d events, want %d", len(got), len(want)+2)
	}
	if got[0].Name != "span.start" || got[0].Span != "core.solve" || got[0].SpanID == 0 {
		t.Errorf("first event = %+v, want span.start of core.solve", got[0])
	}
	for i, w := range want {
		g := got[i+1]
		w.T, w.Span, w.SpanID = g.T, g.Span, g.SpanID // stamped by the span
		if g.Span != "core.solve" {
			t.Errorf("event %d span = %q, want core.solve", i, g.Span)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("event %d round-trip mismatch:\n got %+v\nwant %+v", i, g, w)
		}
	}
	if last := got[len(got)-1]; last.Name != "span.end" {
		t.Errorf("last event = %+v, want span.end", last)
	}
}

// TestJSONLNonFiniteIsEncodeError: a NaN has no JSON spelling, so the
// sink latches the encode error, writes no line for that event, drops
// the events after it, and Close reports the error; the events written
// before it still decode.
func TestJSONLNonFiniteIsEncodeError(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := New(sink)
	tr.Clock = func() int64 { return 7 }

	before := []Event{{Name: "cg.iteration", Iter: 1, Phi: -0.5}, {Name: "epoch.shed", N: 2}}
	for _, e := range before {
		tr.Emit(e)
	}
	tr.Emit(Event{Name: "cg.iteration", Iter: 2, Phi: math.NaN()})
	tr.Emit(Event{Name: "after"})
	err := tr.Close()
	var unsupported *json.UnsupportedValueError
	if !errors.As(err, &unsupported) {
		t.Fatalf("Close = %v, want a *json.UnsupportedValueError", err)
	}
	if sink.Events() != int64(len(before)) {
		t.Errorf("sink recorded %d events, want %d", sink.Events(), len(before))
	}
	if n := strings.Count(buf.String(), "\n"); n != len(before) {
		t.Errorf("wrote %d lines, want %d:\n%s", n, len(before), buf.String())
	}
	got, derr := DecodeJSONL(bytes.NewReader(buf.Bytes()))
	if derr != nil {
		t.Fatalf("decode: %v", derr)
	}
	for i := range before {
		before[i].T = 7
	}
	if !reflect.DeepEqual(got, before) {
		t.Errorf("decoded %+v, want %+v", got, before)
	}
}

// TestExpositionByteStable pins the metrics text exposition: two
// registries observing the same values in different orders (and one of
// them concurrently) must render identical bytes, matching the
// golden form exactly.
func TestExpositionByteStable(t *testing.T) {
	build := func(reverse bool) *Registry {
		r := NewRegistry()
		ops := []func(){
			func() { r.Counter("core_probes_total").Add(1234) },
			func() { r.Counter("core_master_solves_total").Add(17) },
			func() { r.Gauge("pnc_shed_lp_bits").Add(2.5e6) },
			func() {
				h := r.Histogram("experiment_cell_seconds")
				h.Observe(0.25)
				h.Observe(0.25)
				h.Observe(3)
			},
		}
		if reverse {
			for i := len(ops) - 1; i >= 0; i-- {
				ops[i]()
			}
		} else {
			for _, op := range ops {
				op()
			}
		}
		return r
	}

	var a, b bytes.Buffer
	if err := build(false).WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := build(true).WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("exposition depends on registration order:\n%s\nvs\n%s", a.String(), b.String())
	}

	want := strings.Join([]string{
		`core_master_solves_total 17`,
		`core_probes_total 1234`,
		`experiment_cell_seconds_bucket{le="0.25"} 2`,
		`experiment_cell_seconds_bucket{le="4"} 3`,
		`experiment_cell_seconds_count 3`,
		`experiment_cell_seconds_sum 3.5`,
		`pnc_shed_lp_bits 2.5e+06`,
	}, "\n") + "\n"
	if a.String() != want {
		t.Errorf("exposition drifted:\n got:\n%s\nwant:\n%s", a.String(), want)
	}
}

// TestNilRegistryWriteText: the nil registry exposes nothing and does
// not panic.
func TestNilRegistryWriteText(t *testing.T) {
	var r *Registry
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil registry wrote %q", buf.String())
	}
}

// TestHistogramAccounting checks count/sum bookkeeping and overflow
// bucketing.
func TestHistogramAccounting(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	for _, v := range []float64{1e-9, 0.5, 2e9} { // underflow, mid, overflow
		h.Observe(v)
	}
	if h.Count() != 3 {
		t.Errorf("count = %d, want 3", h.Count())
	}
	if got, want := h.Sum(), 1e-9+0.5+2e9; got != want {
		t.Errorf("sum = %g, want %g", got, want)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `h_bucket{le="+Inf"} 3`) {
		t.Errorf("exposition missing cumulative +Inf bucket:\n%s", buf.String())
	}
}

// TestServePprof spins the pprof server on an ephemeral port and
// fetches the index.
func TestServePprof(t *testing.T) {
	addr, shutdown, err := ServePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown() //nolint:errcheck
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET pprof index: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status = %d, want 200", resp.StatusCode)
	}
}

// TestProfileCapture writes CPU and heap profiles around a small
// workload and checks both files are non-empty.
func TestProfileCapture(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := dir+"/cpu.pb", dir+"/heap.pb"
	cap, err := StartProfiles(cpu, heap)
	if err != nil {
		t.Fatal(err)
	}
	sink := 0
	for i := 0; i < 1_000_000; i++ {
		sink += i * i
	}
	_ = sink
	if err := cap.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, heap} {
		fi, err := os.Stat(p)
		if err != nil || fi.Size() == 0 {
			t.Errorf("profile %s: info=%v err=%v", p, fi, err)
		}
	}
}

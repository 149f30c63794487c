package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"mmwave/internal/experiment"
	"mmwave/internal/faults"
	"mmwave/internal/host"
	"mmwave/internal/pnc"
	"mmwave/internal/stats"
	"mmwave/internal/video"
)

// stepRef is StepResponse with every level reflective, the reference
// its codec must match.
type stepRef struct {
	Reports []epochReportJSON `json:"reports"`
}

func listToRef(l []EpochReport) []epochReportJSON {
	if l == nil {
		return nil
	}
	r := make([]epochReportJSON, len(l))
	for i, rep := range l {
		r[i] = epochReportJSON(rep)
	}
	return r
}

func listFromRef(r []epochReportJSON) ReportList {
	if r == nil {
		return nil
	}
	l := make(ReportList, len(r))
	for i, rep := range r {
		l[i] = EpochReport(rep)
	}
	return l
}

func stepToRef(s StepResponse) stepRef { return stepRef{Reports: listToRef(s.Reports)} }

func stepFromRef(r stepRef) StepResponse { return StepResponse{Reports: listFromRef(r.Reports)} }

// wireType runs one codec type both ways: through its own methods
// (fast) and through encoding/json's reflection over its shadow (ref).
// Each decode starts from a zero value.
type wireType struct {
	name            string
	fast, ref       func(data []byte) (any, error)
	encFast, encRef func(v any) ([]byte, error)
}

func newWireType[T any, PT interface {
	*T
	json.Unmarshaler
}, R any](name string, marshal func(T) ([]byte, error), toRef func(T) R, fromRef func(R) T) wireType {
	return wireType{
		name: name,
		fast: func(data []byte) (any, error) {
			var v T
			err := PT(&v).UnmarshalJSON(data)
			return v, err
		},
		ref: func(data []byte) (any, error) {
			var r R
			err := json.Unmarshal(data, &r)
			return fromRef(r), err
		},
		encFast: func(v any) ([]byte, error) { return marshal(v.(T)) },
		encRef:  func(v any) ([]byte, error) { return json.Marshal(toRef(v.(T))) },
	}
}

var wireTypes = []wireType{
	newWireType("PlanResponse", PlanResponse.MarshalJSON,
		func(p PlanResponse) planResponseJSON { return planResponseJSON(p) },
		func(r planResponseJSON) PlanResponse { return PlanResponse(r) }),
	newWireType("EpochReport", EpochReport.MarshalJSON,
		func(r EpochReport) epochReportJSON { return epochReportJSON(r) },
		func(r epochReportJSON) EpochReport { return EpochReport(r) }),
	newWireType("StepResponse", StepResponse.MarshalJSON, stepToRef, stepFromRef),
	newWireType("ReportList", ReportList.MarshalJSON,
		func(l ReportList) []epochReportJSON { return listToRef(l) }, listFromRef),
}

// typeOf returns v's wire type.
func typeOf(v any) wireType {
	switch v.(type) {
	case PlanResponse:
		return wireTypes[0]
	case EpochReport:
		return wireTypes[1]
	case StepResponse:
		return wireTypes[2]
	case ReportList:
		return wireTypes[3]
	}
	panic(fmt.Sprintf("no wire type for %T", v))
}

// wireBodies steps a 16-cell host of 4-link, 2-channel cells for three
// epochs and returns the last step's response and every cell's plan
// response, built as pncd builds them. Every fourth cell runs under
// control-plane loss with retries, so the reports carry stale links,
// retries and lost frames as well as the clean case.
func wireBodies(tb testing.TB) (StepResponse, []PlanResponse) {
	tb.Helper()
	const cells, epochs = 16, 3
	h := host.New()
	demands := make([][][]byte, cells)
	for c := 0; c < cells; c++ {
		cfg := experiment.DefaultConfig()
		cfg.NumLinks = 4
		cfg.NumChannels = 2
		inst, err := experiment.NewInstance(cfg, stats.Fork(int64(c+1), 0))
		if err != nil {
			tb.Fatal(err)
		}
		var opts []host.SpecOption
		if c%4 == 3 {
			opts = append(opts,
				host.SpecFaults(&faults.Config{CtrlLoss: 0.4, Seed: int64(c)}),
				host.SpecPolicy(pnc.DegradePolicy{MaxRetries: 1, StalenessLimit: 2, StalenessDecay: 0.5}))
		}
		if _, err := h.Admit(host.NewSpec(inst.Network, opts...)); err != nil {
			tb.Fatal(err)
		}
		for l, d := range inst.Demands {
			f, err := DemandFromModel(l, d).Frame()
			if err != nil {
				tb.Fatal(err)
			}
			demands[c] = append(demands[c], f)
		}
	}
	feed := func(c *host.Cell, _ int64) [][]byte { return demands[c.ID()] }
	var step StepResponse
	for ep := 0; ep < epochs; ep++ {
		step = StepResponse{}
		for _, rep := range h.StepAll(context.Background(), feed) {
			step.Reports = append(step.Reports, ReportFromHost(rep))
		}
	}
	var plans []PlanResponse
	for _, c := range h.Cells() {
		plan, age, ok := c.LastPlan()
		if !ok {
			tb.Fatalf("cell %d has no plan", c.ID())
		}
		plans = append(plans, PlanResponse{Cell: c.ID(), Epoch: c.Epoch(), Plan: PlanFromModel(plan), PlanAge: age})
	}
	return step, plans
}

// edgeReports sets every omitempty field, an N-class demand vector,
// nil and empty slices, a nil grant, the float format's cut-over
// points and strings that need escaping.
func edgeReports() []EpochReport {
	full := EpochReport{
		Cell: 7, Epoch: 1 << 40, Outcome: "backoff", Error: `cell 7: solve "x" <&> ` + "\u2028 \xff\x01\t",
		Plan: Plan{
			Schedules: [][]Assignment{
				{{Link: 0, Channel: 1, Level: 2, Layer: 1, Power: 1e-7}},
				nil,
				{},
			},
			Tau:       []float64{1e21, 1e20, -0.0, 0.5, 1e-6, 9.999999e-7, 5e-324, math.MaxFloat64},
			Objective: -1.25e-9,
		},
		PlanAge: 3, NoPlan: true, Panicked: true, Restored: true, ColdRestarted: true,
		Result: &EpochResult{
			ControlSeconds: 1e-7, ControlMessages: 12,
			Grants:   [][]byte{{0, 1, 2, 0xff}, nil, {}},
			Demands:  []Demand{{Link: 0, HPBits: 1e6, LPBits: 2e6, Classes: []float64{1e6, 1.5e6, 0.5e6}}, {Link: 1, HPBits: -0.0}},
			Degraded: true, ShedLPBits: 3.5, ShedHPBits: 1e-8, ShedByClass: []float64{0, 1, 2},
			StaleLinks: []int{1, 2}, ExpiredLinks: []int{3}, DeferredLinks: []int{-4},
			DroppedGrants: 2, Retries: 5, LostFrames: 6, BackoffSeconds: 0.25,
			TruncatedSolve: true, WarmSolve: true,
			CGIterations: 9, CGHeuristicHits: 8, CGExactFallbacks: 1, CGColumnsAdded: 40,
		},
	}
	plain := full
	plain.Error = "cell 7: solve failed ~ [x]"
	return []EpochReport{
		full,
		plain,
		{},
		{Outcome: "ok", Plan: Plan{Schedules: [][]Assignment{}, Tau: []float64{}}, Result: &EpochResult{
			Grants: [][]byte{}, Demands: []Demand{}, ShedByClass: []float64{}, StaleLinks: []int{}}},
		{Outcome: "degraded", Error: "plain ascii ~ error", Result: &EpochResult{}},
	}
}

// codecCorpus is every value the codec tests encode.
func codecCorpus(tb testing.TB) []any {
	step, plans := wireBodies(tb)
	vals := []any{step, StepResponse{}, StepResponse{Reports: []EpochReport{}}, StepResponse{Reports: edgeReports()},
		ReportList(step.Reports), ReportList(nil), ReportList{}, ReportList(edgeReports())}
	for _, p := range plans {
		vals = append(vals, p)
	}
	vals = append(vals, PlanResponse{}, PlanResponse{Cell: -1, Epoch: math.MinInt64, PlanAge: math.MaxInt64,
		Plan: edgeReports()[0].Plan})
	for _, r := range append(edgeReports(), step.Reports...) {
		vals = append(vals, r)
	}
	return vals
}

// TestCodecByteIdentity pins the wire form: each codec encoding equals
// the reflective json.Marshal of the shadow type byte for byte, and
// json.Marshal of the value itself (which calls MarshalJSON and then
// compacts and HTML-escapes its output) changes nothing.
func TestCodecByteIdentity(t *testing.T) {
	for _, v := range codecCorpus(t) {
		wt := typeOf(v)
		got, err := wt.encFast(v)
		if err != nil {
			t.Fatalf("%s: %v", wt.name, err)
		}
		want, err := wt.encRef(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s encodes differently from encoding/json:\n got %s\nwant %s", wt.name, got, want)
		}
		via, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(via, want) {
			t.Fatalf("%s: json.Marshal through MarshalJSON differs:\n got %s\nwant %s", wt.name, via, want)
		}
	}
}

// TestWireBodiesShape keeps the real bodies what the codec tests rely
// on: 16 reports that each carry a plan and a result, some of them
// from a lossy cell.
func TestWireBodiesShape(t *testing.T) {
	step, plans := wireBodies(t)
	if len(step.Reports) != 16 || len(plans) != 16 {
		t.Fatalf("%d reports, %d plans", len(step.Reports), len(plans))
	}
	var stale bool
	for _, r := range step.Reports {
		if r.Result == nil || len(r.Plan.Schedules) == 0 {
			t.Fatalf("cell %d: report without a result or plan", r.Cell)
		}
		stale = stale || r.Result.Retries > 0 || len(r.Result.StaleLinks) > 0
	}
	if !stale {
		t.Fatal("no lossy cell retried or went stale")
	}
}

// TestCodecRejectsNaN: an unencodable float is an error on both
// encoders, with no bytes.
func TestCodecRejectsNaN(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		vals := []any{
			PlanResponse{Plan: Plan{Objective: f}},
			EpochReport{Result: &EpochResult{BackoffSeconds: f}},
			StepResponse{Reports: []EpochReport{{Plan: Plan{Tau: []float64{1, f}}}}},
		}
		for _, v := range vals {
			wt := typeOf(v)
			if b, err := wt.encFast(v); err == nil || b != nil {
				t.Fatalf("%s with %v: codec returned %q, %v", wt.name, f, b, err)
			}
			if _, err := wt.encRef(v); err == nil {
				t.Fatalf("%s with %v: encoding/json encoded it", wt.name, f)
			}
			if _, err := json.Marshal(v); err == nil {
				t.Fatalf("%s with %v: json.Marshal encoded it", wt.name, f)
			}
		}
	}
}

// TestCodecFastPathTakesCanonical: every encoding the codec writes is
// parsed by the fast path itself, not handed to the fallback, into the
// value encoding/json decodes (an empty omitempty slice comes back nil).
func TestCodecFastPathTakesCanonical(t *testing.T) {
	escaped := 0
	for _, v := range codecCorpus(t) {
		wt := typeOf(v)
		data, err := wt.encFast(v)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.IndexByte(data, '\\') >= 0 {
			escaped++ // an escaped string is outside the canonical form
			continue
		}
		d := decoder{data: append(data, " \n"...)}
		switch v.(type) {
		case PlanResponse:
			d.planResponse()
		case EpochReport:
			d.report()
		case StepResponse:
			d.stepResponse()
		case ReportList:
			array(&d, (*decoder).report)
		}
		if !d.end() {
			t.Fatalf("%s: fast path fell back on its own encoding at byte %d:\n%s", wt.name, d.off, data)
		}
		got, err := wt.fast(data)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := wt.ref(data)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: fast decode differs from encoding/json:\n got %+v\nwant %+v", wt.name, got, want)
		}
	}
	if escaped != 3 { // edgeReports' first report, alone, in a step and in a list
		t.Fatalf("%d encodings hold an escaped string, want 3", escaped)
	}
}

// TestCodecDecodeMatchesEncodingJSON feeds each type input outside
// the canonical form and requires the same value, or an error on
// both sides, as encoding/json.
func TestCodecDecodeMatchesEncodingJSON(t *testing.T) {
	step, plans := wireBodies(t)
	stepBody, _ := step.MarshalJSON()
	planBody, _ := plans[0].MarshalJSON()
	reportBody, _ := step.Reports[3].MarshalJSON()
	indent := func(b []byte) string {
		var out bytes.Buffer
		if err := json.Indent(&out, b, "  ", "\t"); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	report := string(reportBody)
	inputs := []string{
		string(stepBody), string(planBody), report,
		indent(stepBody), indent(planBody), indent(reportBody),
		" \r\n\t" + report + "\n\n",
		report + "x", report + "{}", report[:len(report)-1], "", " ", "{", "[]", `""`, "0",
		"null", " null ", `{"reports":null}`, `{"reports":[null]}`, `{"reports":[{},null,{"cell":2}]}`,
		`{"cell":1,"cell":2}`, `{"cell":1,"Cell":2}`, `{"CELL":5,"EpOcH":6}`, `{"plan":{"tau":[1],"tau":[2,3]}}`,
		`{"reports":[{"cell":1}],"reports":[{"epoch":2}]}`, `{"reports":[],"Reports":[{"cell":3}]}`,
		`{"outcome":"ok","result":{"cg_stab_rounds":4,"retries":1}}`, `{"pricer_workers":2}`, `{"unknown":{"a":[1,{}]}}`,
		`{"cell":null}`, `{"plan":null}`, `{"result":null}`, `{"plan":{"schedules":[null,[null]]}}`, `{"plan":{"objective":null}}`,
		`{"cell":1.0}`, `{"cell":1e2}`, `{"cell":-0}`, `{"cell":01}`, `{"cell":9223372036854775808}`, `{"epoch":-9223372036854775808}`,
		`{"plan":{"objective":1e400}}`, `{"plan":{"objective":-1e400}}`, `{"plan":{"objective":4.9e-325}}`, `{"plan":{"objective":1E+2}}`,
		`{"plan":{"objective":.5}}`, `{"plan":{"objective":1.}}`, `{"plan":{"objective":-}}`, `{"plan":{"objective":+1}}`, `{"plan":{"objective":0x10}}`,
		`{"plan":{"objective":"1"}}`, `{"cell":true}`, `{"no_plan":1}`, `{"no_plan":tru}`, `{"no_plan":nul}`,
		`{"outcome":"o\u006b"}`, `{"outcome":"\u00e9"}`, `{"error":"é"}`, `{"error":"` + "\x7f" + `"}`, `{"error":"tab` + "\t" + `"}`,
		`{"outcome":1}`, `{"result":{"grants":["AAE="]}}`, `{"result":{"grants":["AAE"]}}`, `{"result":{"grants":["!!!!"]}}`,
		`{"result":{"grants":[1]}}`, `{"result":{"demands":[{"link":1,"classes":[1,2,3]}]}}`, `{"result":[]}`,
		`{"plan":{"schedules":[[{"link":1,"level":2,"power":0.5,"layer":1,"channel":0}]]}}`,
		`{"cell":1,}`, `{,"cell":1}`, `{"cell" 1}`, `{"cell":1 "epoch":2}`, `{"plan":{"tau":[1,]}}`, `{"plan":{"tau":[,1]}}`,
		`{"plan":{"tau":[1 2]}}`, `{"reports":[{}`, "{\"cell\":1}\x00",
	}
	for _, in := range inputs {
		for _, wt := range wireTypes {
			checkDecode(t, wt, []byte(in))
		}
	}
}

// checkDecode requires the codec to decode data as encoding/json does:
// the same error-or-not and, on success, the same value, which then
// re-encodes to the same bytes both ways.
func checkDecode(t testing.TB, wt wireType, data []byte) {
	t.Helper()
	got, gotErr := wt.fast(data)
	want, wantErr := wt.ref(data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s %q: codec error %v, encoding/json error %v", wt.name, data, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %q: codec decoded\n%#v\nencoding/json decoded\n%#v", wt.name, data, got, want)
	}
	a, errA := wt.encFast(got)
	b, errB := wt.encRef(got)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("%s %q: re-encodes as\n%s (%v)\nvs encoding/json\n%s (%v)", wt.name, data, a, errA, b, errB)
	}
}

// TestCodecDecodeIntoUsed: decoding into a used value merges into it
// exactly as encoding/json does.
func TestCodecDecodeIntoUsed(t *testing.T) {
	used := func() EpochReport {
		return EpochReport{Error: "stale", Plan: Plan{Tau: []float64{1, 2}, Schedules: [][]Assignment{{{Link: 3, Power: 1}}}},
			Result: &EpochResult{Retries: 3}}
	}
	data := []byte(`{"cell":2,"outcome":"ok","plan":{"tau":[5],"schedules":[[{"level":1}]]},"result":{"lost_frames":1}}`)
	got, want := used(), epochReportJSON(used())
	if err := got.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, EpochReport(want)) || got.Error != "stale" || got.Result.Retries != 3 {
		t.Fatalf("codec merged\n%#v\nencoding/json merged\n%#v", got, want)
	}
}

// FuzzWireResponses holds the codec to encoding/json on arbitrary
// bytes: each type's UnmarshalJSON errors exactly when json.Unmarshal
// into its reflective shadow does, decodes the same value otherwise,
// and that value re-encodes to the same bytes through both encoders.
func FuzzWireResponses(f *testing.F) {
	step, plans := wireBodies(f)
	for _, v := range []any{step, plans[0], plans[3], step.Reports[0], step.Reports[3], StepResponse{Reports: edgeReports()},
		ReportList(step.Reports[:2])} {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"cell":1,"Cell":2,"result":{"cg_stab_rounds":1}}`))
	f.Add([]byte(`{"reports":[{"plan":{"tau":[1e400]}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, wt := range wireTypes {
			checkDecode(t, wt, data)
		}
	})
}

// FuzzWireRequests drives the request bodies a client sends — a cell
// spec, demands, CSI — through decoding and every conversion the
// server runs on them. Validation may refuse input; nothing may panic.
func FuzzWireRequests(f *testing.F) {
	cfg := experiment.DefaultConfig()
	cfg.NumLinks = 3
	cfg.NumChannels = 2
	inst, err := experiment.NewInstance(cfg, stats.Fork(2, 0))
	if err != nil {
		f.Fatal(err)
	}
	nw := NetworkFromModel(inst.Network)
	for _, v := range []any{
		CellSpec{Network: &nw, Solve: &Solve{PricerBudget: 50}, Policy: &Policy{StalenessDecayByClass: []float64{0.5}}},
		CellSpec{Instance: &Instance{Links: 3, Channels: 2, Seed: 4, TrafficClasses: 3}, Faults: &Faults{CtrlLoss: 0.1}},
		[]Demand{DemandFromModel(0, video.Demand{1e6, 2e6, 3e6}), {Link: 1, HPBits: 5, LPBits: 6}},
		[]CSI{{Link: 0, Gains: []float64{1e-9, 2e-9}}},
	} {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`[{"link":70000,"hp":1},{"link":-1,"classes":[1e308,1e308]}]`))
	f.Add([]byte(`{"network":{"links":[{"tx":0,"rx":1}],"num_channels":1,"direct":[[1]],"cross":[[[0]]],"noise":[1]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec CellSpec
		if json.Unmarshal(data, &spec) == nil {
			if spec.Network != nil {
				_, _ = spec.Network.ToModel()
			}
			if spec.Solve != nil {
				_ = spec.Solve.ToOptions()
			}
			if spec.Policy != nil {
				_ = spec.Policy.ToModel()
			}
			if spec.Faults != nil {
				_ = spec.Faults.ToModel()
			}
		}
		var demands []Demand
		if json.Unmarshal(data, &demands) == nil {
			for _, d := range demands {
				_ = d.ToModel()
				_, _ = d.Frame()
			}
		}
		var csi []CSI
		if json.Unmarshal(data, &csi) == nil {
			for _, c := range csi {
				_, _ = c.Frame()
			}
		}
	})
}

// BenchmarkWireCodec encodes and decodes the real 16-report step body
// and one plan body, through the codec and through encoding/json's
// reflection over the shadow types, and reports throughput.
func BenchmarkWireCodec(b *testing.B) {
	step, plans := wireBodies(b)
	for _, v := range []any{step, plans[0]} {
		wt := typeOf(v)
		data, err := wt.encFast(v)
		if err != nil {
			b.Fatal(err)
		}
		name := strings.TrimSuffix(wt.name, "Response")
		for _, c := range []struct {
			path string
			enc  func(any) ([]byte, error)
			dec  func([]byte) (any, error)
		}{{"codec", wt.encFast, wt.fast}, {"encoding_json", wt.encRef, wt.ref}} {
			b.Run(name+"/encode/"+c.path, func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := c.enc(v); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(name+"/decode/"+c.path, func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := c.dec(data); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

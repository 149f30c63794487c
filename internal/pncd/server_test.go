package pncd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mmwave/internal/api"
	"mmwave/internal/core"
	"mmwave/internal/experiment"
	"mmwave/internal/faults"
	"mmwave/internal/host"
	"mmwave/internal/netmodel"
	"mmwave/internal/stats"
)

// testNetwork draws a small deterministic instance; calling it twice
// with the same seed yields two structurally identical networks that
// share no memory.
func testNetwork(t *testing.T, seed int64) *netmodel.Network {
	t.Helper()
	cfg := experiment.DefaultConfig()
	cfg.NumLinks = 5
	cfg.NumChannels = 2
	inst, err := experiment.NewInstance(cfg, stats.Fork(seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	return inst.Network
}

func testLoad(t *testing.T, links int, seed int64) *faults.LoadGen {
	t.Helper()
	gen, err := faults.NewLoadGen(faults.LoadConfig{
		Links:      links,
		MeanHPBits: 2e6,
		MeanLPBits: 6e6,
		Jitter:     0.3,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func newTestServer(t *testing.T, cfg Config) (*Server, *api.Client) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, api.NewClient(hs.URL, hs.Client())
}

func demandsFor(gen *faults.LoadGen, cell int, epoch int64) []api.Demand {
	var out []api.Demand
	for l, d := range gen.Demands(cell, epoch) {
		out = append(out, api.DemandFromModel(l, d))
	}
	return out
}

func framesFor(t *testing.T, demands []api.Demand) [][]byte {
	t.Helper()
	frames := make([][]byte, len(demands))
	for i, d := range demands {
		f, err := d.Frame()
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f
	}
	return frames
}

func planJSON(t *testing.T, p api.Plan) []byte {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestByteIdentityVsInProcess proves the tentpole property: a
// submit→step→fetch-plan cycle over HTTP produces byte-identical
// plans to the same epochs run in-process against internal/host,
// including across a mid-run CSI update.
func TestByteIdentityVsInProcess(t *testing.T) {
	const seed, epochs = 11, 6
	ctx := context.Background()

	// Over-HTTP cell: explicit wire network.
	nwWire := testNetwork(t, seed)
	_, client := newTestServer(t, Config{})
	wire := api.NetworkFromModel(nwWire)
	st, err := client.CreateCell(ctx, api.CellSpec{Network: &wire})
	if err != nil {
		t.Fatal(err)
	}

	// In-process reference: an independent but identical draw.
	nwRef := testNetwork(t, seed)
	ref := host.New()
	refCell, err := ref.Admit(host.NewSpec(nwRef))
	if err != nil {
		t.Fatal(err)
	}

	gen := testLoad(t, nwRef.NumLinks(), 99)
	// A genuine CSI change at epoch 3: bump link 2's direct gains.
	csiEpoch := int64(3)
	newGains := append([]float64(nil), nwRef.Gains.Direct[2]...)
	for k := range newGains {
		newGains[k] *= 1.25
	}

	for ep := int64(0); ep < epochs; ep++ {
		demands := demandsFor(gen, 0, ep)
		frames := framesFor(t, demands)
		if _, err := client.SubmitDemands(ctx, st.Cell, demands); err != nil {
			t.Fatal(err)
		}
		if ep == csiEpoch {
			csi := []api.CSI{{Link: 2, Gains: newGains}}
			if _, err := client.SubmitCSI(ctx, st.Cell, csi); err != nil {
				t.Fatal(err)
			}
			f, err := csi[0].Frame()
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, f)
		}
		httpRep, err := client.StepCell(ctx, st.Cell)
		if err != nil {
			t.Fatal(err)
		}
		refRep := ref.Step(ctx, refCell, func(*host.Cell, int64) [][]byte { return frames })
		if refRep.Outcome != host.OutcomeOK {
			t.Fatalf("epoch %d: reference outcome %v (%v)", ep, refRep.Outcome, refRep.Err)
		}
		if httpRep.Outcome != "ok" {
			t.Fatalf("epoch %d: http outcome %q (%s)", ep, httpRep.Outcome, httpRep.Error)
		}
		want := planJSON(t, api.PlanFromModel(refRep.Plan))
		got := planJSON(t, httpRep.Plan)
		if !bytes.Equal(want, got) {
			t.Fatalf("epoch %d: plan diverged over HTTP\nref:  %s\nhttp: %s", ep, want, got)
		}
		// The fetch-plan path must serve the same bytes the step
		// reported, fresh (age 0).
		pr, err := client.Plan(ctx, st.Cell)
		if err != nil {
			t.Fatal(err)
		}
		if pr.PlanAge != 0 {
			t.Fatalf("epoch %d: fresh plan has age %d", ep, pr.PlanAge)
		}
		if fetched := planJSON(t, pr.Plan); !bytes.Equal(want, fetched) {
			t.Fatalf("epoch %d: fetched plan diverged\nref:     %s\nfetched: %s", ep, want, fetched)
		}
	}
}

// TestKillRestore proves the acceptance criterion: a restarted pncd
// recovers every cell from its checkpoints byte-identically — the
// post-restart epochs match an uninterrupted reference server exactly.
func TestKillRestore(t *testing.T) {
	const cells, preEpochs, postEpochs = 3, 3, 3
	ctx := context.Background()
	stateDir := t.TempDir()

	createAll := func(client *api.Client) []int {
		t.Helper()
		ids := make([]int, cells)
		for i := 0; i < cells; i++ {
			nw := api.NetworkFromModel(testNetwork(t, int64(20+i)))
			st, err := client.CreateCell(ctx, api.CellSpec{Network: &nw})
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = st.Cell
		}
		return ids
	}
	gen := testLoad(t, 5, 7)
	stepAll := func(client *api.Client, ids []int, ep int64) []api.EpochReport {
		t.Helper()
		for _, id := range ids {
			if _, err := client.SubmitDemands(ctx, id, demandsFor(gen, id, ep)); err != nil {
				t.Fatal(err)
			}
		}
		reps, err := client.StepAll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return reps
	}

	// Reference: never restarted, in-memory.
	_, refClient := newTestServer(t, Config{})
	refIDs := createAll(refClient)

	// System under test: persistent, killed after preEpochs.
	srvA, err := New(Config{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	hsA := httptest.NewServer(srvA.Handler())
	clientA := api.NewClient(hsA.URL, hsA.Client())
	idsA := createAll(clientA)

	for ep := int64(0); ep < preEpochs; ep++ {
		stepAll(refClient, refIDs, ep)
		stepAll(clientA, idsA, ep)
	}
	// Kill: no drain, no goodbye — the process is gone. Only the
	// state directory survives.
	hsA.Close()
	srvA.Close()

	// Restart against the same state directory.
	srvB, err := New(Config{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	hsB := httptest.NewServer(srvB.Handler())
	defer func() { hsB.Close(); srvB.Close() }()
	clientB := api.NewClient(hsB.URL, hsB.Client())

	status, err := clientB.Cells(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(status) != cells {
		t.Fatalf("recovered %d cells, want %d", len(status), cells)
	}
	for _, st := range status {
		if !st.Restored {
			t.Fatalf("cell %d not restored from checkpoint", st.Cell)
		}
		if st.Epoch != preEpochs {
			t.Fatalf("cell %d resumed at epoch %d, want %d", st.Cell, st.Epoch, preEpochs)
		}
	}
	// The recovered last-known-good plan must match the reference's.
	for i, id := range idsA {
		got, err := clientB.Plan(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refClient.Plan(ctx, refIDs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(planJSON(t, got.Plan), planJSON(t, want.Plan)) {
			t.Fatalf("cell %d: recovered plan differs from uninterrupted reference", id)
		}
	}
	// Post-restart epochs stay byte-identical: warm state (demands,
	// last-known-good, control accounting) survived the kill.
	for ep := int64(preEpochs); ep < preEpochs+postEpochs; ep++ {
		wantReps := stepAll(refClient, refIDs, ep)
		gotReps := stepAll(clientB, idsA, ep)
		if len(wantReps) != len(gotReps) {
			t.Fatalf("epoch %d: %d reports vs %d", ep, len(gotReps), len(wantReps))
		}
		for i := range wantReps {
			want := planJSON(t, wantReps[i].Plan)
			got := planJSON(t, gotReps[i].Plan)
			if !bytes.Equal(want, got) {
				t.Fatalf("epoch %d cell %d: post-restore plan diverged", ep, gotReps[i].Cell)
			}
		}
	}

	// The multi-cell workload must expose all three metric families.
	text, err := clientB.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"host_epochs_total", "host_restores_total", "pnc_", "cg_"} {
		if !strings.Contains(text, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
}

// TestErrorMapping checks the wire error contract: stable codes,
// statuses, and errors.Is across the HTTP boundary.
func TestErrorMapping(t *testing.T) {
	ctx := context.Background()
	_, client := newTestServer(t, Config{MaxCells: 1})

	// Unknown cell → not-found.
	_, err := client.Plan(ctx, 404)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound {
		t.Fatalf("unknown cell: got %v, want not-found", err)
	}

	// Malformed spec → bad-request.
	_, err = client.CreateCell(ctx, api.CellSpec{})
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeBadRequest {
		t.Fatalf("empty spec: got %v, want bad-request", err)
	}

	// Admission limit → admission-refused, errors.Is-able against the
	// host sentinel even though the error crossed the wire.
	nw := api.NetworkFromModel(testNetwork(t, 31))
	if _, err := client.CreateCell(ctx, api.CellSpec{Network: &nw}); err != nil {
		t.Fatal(err)
	}
	nw2 := api.NetworkFromModel(testNetwork(t, 32))
	_, err = client.CreateCell(ctx, api.CellSpec{Network: &nw2})
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeAdmission {
		t.Fatalf("over-capacity: got %v, want admission-refused", err)
	}
	if !errors.Is(err, host.ErrAdmission) {
		t.Fatalf("wire error does not unwrap to host.ErrAdmission: %v", err)
	}

	// No plan yet → not-found on the plan endpoint.
	cellsList, err := client.Cells(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Plan(ctx, cellsList[0].Cell)
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound {
		t.Fatalf("plan before first step: got %v, want not-found", err)
	}
}

// TestCodeTaxonomyRoundTrip pins the code↔sentinel↔status mapping.
func TestCodeTaxonomyRoundTrip(t *testing.T) {
	cases := []struct {
		sentinel error
		code     api.Code
		status   int
	}{
		{host.ErrAdmission, api.CodeAdmission, 429},
		{core.ErrUnservable, api.CodeUnservable, 422},
		{core.ErrInfeasible, api.CodeInfeasible, 422},
		{core.ErrBudgetExceeded, api.CodeBudgetExceeded, 504},
	}
	for _, tc := range cases {
		if got := api.CodeForError(tc.sentinel); got != tc.code {
			t.Errorf("CodeForError(%v) = %q, want %q", tc.sentinel, got, tc.code)
		}
		if got := tc.code.HTTPStatus(); got != tc.status {
			t.Errorf("%q status = %d, want %d", tc.code, got, tc.status)
		}
		wireErr := &api.Error{Code: tc.code, Message: "x"}
		if !errors.Is(wireErr, tc.sentinel) {
			t.Errorf("wire %q does not errors.Is(%v)", tc.code, tc.sentinel)
		}
	}
}

// TestDrain checks drain semantics: health flips, mutating endpoints
// refuse with the draining code, reads keep working.
func TestDrain(t *testing.T) {
	ctx := context.Background()
	srv, client := newTestServer(t, Config{})
	nw := api.NetworkFromModel(testNetwork(t, 41))
	st, err := client.CreateCell(ctx, api.CellSpec{Network: &nw})
	if err != nil {
		t.Fatal(err)
	}
	gen := testLoad(t, 5, 1)
	if _, err := client.SubmitDemands(ctx, st.Cell, demandsFor(gen, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.StepCell(ctx, st.Cell); err != nil {
		t.Fatal(err)
	}

	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatal(err)
	}

	h, err := client.Health(ctx)
	if err != nil || h.Status != "draining" {
		t.Fatalf("health during drain: %+v, %v", h, err)
	}
	var apiErr *api.Error
	_, err = client.StepCell(ctx, st.Cell)
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeDraining {
		t.Fatalf("step during drain: got %v, want draining", err)
	}
	_, err = client.CreateCell(ctx, api.CellSpec{Network: &nw})
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeDraining {
		t.Fatalf("create during drain: got %v, want draining", err)
	}
	// Reads still serve: the plan survives the drain.
	if _, err := client.Plan(ctx, st.Cell); err != nil {
		t.Fatalf("plan during drain: %v", err)
	}
}

// TestReportsAndStream covers retention queries and the JSONL follow
// stream.
func TestReportsAndStream(t *testing.T) {
	ctx := context.Background()
	_, client := newTestServer(t, Config{})
	nw := api.NetworkFromModel(testNetwork(t, 51))
	st, err := client.CreateCell(ctx, api.CellSpec{Network: &nw})
	if err != nil {
		t.Fatal(err)
	}
	gen := testLoad(t, 5, 2)
	const epochs = 4
	for ep := int64(0); ep < epochs; ep++ {
		if _, err := client.SubmitDemands(ctx, st.Cell, demandsFor(gen, 0, ep)); err != nil {
			t.Fatal(err)
		}
		if _, err := client.StepCell(ctx, st.Cell); err != nil {
			t.Fatal(err)
		}
	}
	reps, err := client.Reports(ctx, st.Cell, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != epochs {
		t.Fatalf("retained %d reports, want %d", len(reps), epochs)
	}
	// The first epoch runs a cold P1 solve, so its report must surface
	// the column-generation telemetry over the wire.
	if r := reps[0].Result; r == nil {
		t.Fatal("epoch 0 report carries no result")
	} else if r.CGIterations == 0 || r.CGColumnsAdded == 0 {
		t.Fatalf("epoch 0 report missing CG telemetry: %+v", r)
	}
	reps, err = client.Reports(ctx, st.Cell, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != epochs-2 {
		t.Fatalf("since=1 returned %d reports, want %d", len(reps), epochs-2)
	}

	// Follow: backlog arrives, then cancel ends the stream cleanly.
	sctx, cancel := context.WithCancel(ctx)
	var streamed []int64
	err = client.StreamReports(sctx, st.Cell, -1, func(rep api.EpochReport) error {
		streamed = append(streamed, rep.Epoch)
		if len(streamed) == epochs {
			cancel()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if len(streamed) != epochs {
		t.Fatalf("streamed %d reports, want %d", len(streamed), epochs)
	}
	for i, ep := range streamed {
		if ep != int64(i) {
			t.Fatalf("stream out of order: %v", streamed)
		}
	}
}

// TestUplinkQueueBound: a cell's uplink queue holds at most
// maxQueuedFramesPerLink frames per link between steps. A submission
// that would overflow it is refused whole with admission-refused and
// leaves the queue untouched; a step drains the queue and submissions
// are accepted again.
func TestUplinkQueueBound(t *testing.T) {
	ctx := context.Background()
	srv, client := newTestServer(t, Config{})
	nw := testNetwork(t, 61)
	wire := api.NetworkFromModel(nw)
	st, err := client.CreateCell(ctx, api.CellSpec{Network: &wire})
	if err != nil {
		t.Fatal(err)
	}
	queued := func() int {
		cs := srv.lookup(st.Cell)
		cs.mu.Lock()
		defer cs.mu.Unlock()
		return len(cs.queue)
	}
	gen := testLoad(t, nw.NumLinks(), 4)
	limit := maxQueuedFramesPerLink * nw.NumLinks()
	// One odd frame first, so the overflowing batch below still finds
	// room for part of itself and must be refused whole anyway.
	if _, err := client.SubmitDemands(ctx, st.Cell, demandsFor(gen, 0, 0)[:1]); err != nil {
		t.Fatal(err)
	}
	for ep := int64(0); queued()+nw.NumLinks() <= limit; ep++ {
		if _, err := client.SubmitDemands(ctx, st.Cell, demandsFor(gen, 0, ep)); err != nil {
			t.Fatalf("submission within the bound refused at %d queued: %v", queued(), err)
		}
	}
	before := queued()
	over := demandsFor(gen, 0, 99)
	_, err = client.SubmitDemands(ctx, st.Cell, over)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeAdmission || !errors.Is(err, host.ErrAdmission) {
		t.Fatalf("overflowing submission: got %v, want admission-refused", err)
	}
	if got := queued(); got != before {
		t.Fatalf("refused submission changed the queue: %d → %d frames", before, got)
	}
	if _, err := client.SubmitDemands(ctx, st.Cell, over[:limit-before]); err != nil {
		t.Fatalf("submission filling the queue to its bound refused: %v", err)
	}
	if got := queued(); got != limit {
		t.Fatalf("queue holds %d frames, want exactly the bound %d", got, limit)
	}
	if _, err := client.SubmitDemands(ctx, st.Cell, over[:1]); !errors.Is(err, host.ErrAdmission) {
		t.Fatalf("one frame past a full queue: got %v, want admission-refused", err)
	}
	if _, err := client.StepCell(ctx, st.Cell); err != nil {
		t.Fatal(err)
	}
	if got := queued(); got != 0 {
		t.Fatalf("step left %d frames queued", got)
	}
	if _, err := client.SubmitDemands(ctx, st.Cell, over); err != nil {
		t.Fatalf("submission after a draining step refused: %v", err)
	}
}

// TestInstanceDraw covers server-side instance creation: the drawn
// cell is steppable immediately (the draw's demands are queued) and
// identical seeds draw identical cells.
func TestInstanceDraw(t *testing.T) {
	ctx := context.Background()
	_, client := newTestServer(t, Config{})
	mk := func() api.EpochReport {
		t.Helper()
		st, err := client.CreateCell(ctx, api.CellSpec{
			Instance: &api.Instance{Links: 4, Channels: 2, Seed: 9},
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := client.StepCell(ctx, st.Cell)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := mk(), mk()
	if a.Outcome != "ok" || b.Outcome != "ok" {
		t.Fatalf("instance cells failed: %q %q", a.Outcome, b.Outcome)
	}
	if !bytes.Equal(planJSON(t, a.Plan), planJSON(t, b.Plan)) {
		t.Fatal("identical seeds drew different cells")
	}
	if a.Plan.Objective <= 0 {
		t.Fatal("drawn instance produced an empty plan")
	}
}

// TestEvict covers deletion: the slot tombstones, the ID is not
// reused, and state files disappear.
func TestEvict(t *testing.T) {
	ctx := context.Background()
	stateDir := t.TempDir()
	srv, client := newTestServer(t, Config{StateDir: stateDir})
	nw := api.NetworkFromModel(testNetwork(t, 61))
	st1, err := client.CreateCell(ctx, api.CellSpec{Network: &nw})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.DeleteCell(ctx, st1.Cell); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Cell(ctx, st1.Cell); err == nil {
		t.Fatal("deleted cell still resolves")
	}
	nw2 := api.NetworkFromModel(testNetwork(t, 62))
	st2, err := client.CreateCell(ctx, api.CellSpec{Network: &nw2})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cell == st1.Cell {
		t.Fatalf("cell ID %d was reused after eviction", st1.Cell)
	}
	// Restart must recover only the live cell.
	srv.Close()
	srvB, err := New(Config{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	hsB := httptest.NewServer(srvB.Handler())
	defer hsB.Close()
	cellsList, err := api.NewClient(hsB.URL, hsB.Client()).Cells(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cellsList) != 1 || cellsList[0].Cell != st2.Cell {
		t.Fatalf("recovered %+v, want only cell %d", cellsList, st2.Cell)
	}
}

// TestDeleteRemovesStateFiles: deleting a stepped cell leaves neither
// its spec (removed by the server) nor its checkpoint (removed by the
// host on eviction) in the state directory.
func TestDeleteRemovesStateFiles(t *testing.T) {
	ctx := context.Background()
	stateDir := t.TempDir()
	_, client := newTestServer(t, Config{StateDir: stateDir})
	st, err := client.CreateCell(ctx, api.CellSpec{
		Instance: &api.Instance{Links: 4, Channels: 2, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := client.StepCell(ctx, st.Cell); err != nil || rep.Outcome != "ok" {
		t.Fatalf("step: %+v, %v", rep, err)
	}
	files := []string{
		filepath.Join(stateDir, fmt.Sprintf("cell%d.spec.json", st.Cell)),
		filepath.Join(stateDir, fmt.Sprintf("cell%d.ckpt", st.Cell)),
	}
	for _, f := range files {
		if _, err := os.Stat(f); err != nil {
			t.Fatalf("stepped cell lacks %s: %v", filepath.Base(f), err)
		}
	}
	if err := client.DeleteCell(ctx, st.Cell); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if _, err := os.Stat(f); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("deleted cell left %s behind (stat: %v)", filepath.Base(f), err)
		}
	}
}

// TestSubmitBodyDecode pins how the demands and CSI endpoints read a
// body: its first JSON value is decoded as the item list and anything
// after it is ignored; null is an empty list; a malformed, over-cap or
// wrong-typed body, or an item whose frame cannot be encoded, is
// bad-request; a list that would overflow the uplink queue is
// admission-refused. Every refusal leaves the queue as it was.
func TestSubmitBodyDecode(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	client := api.NewClient(hs.URL, hs.Client())
	nw := testNetwork(t, 61)
	wire := api.NetworkFromModel(nw)
	st, err := client.CreateCell(context.Background(), api.CellSpec{Network: &wire})
	if err != nil {
		t.Fatal(err)
	}
	queued := func() int {
		cs := srv.lookup(st.Cell)
		cs.mu.Lock()
		defer cs.mu.Unlock()
		return len(cs.queue)
	}
	limit := maxQueuedFramesPerLink * nw.NumLinks()
	list := func(item string, n int) string {
		return "[" + strings.TrimSuffix(strings.Repeat(item+",", n), ",") + "]"
	}
	for _, ep := range []struct{ path, item, badType string }{
		{"/demands", `{"link":1,"hp":1000,"lp":2000}`, `[{"link":1,"hp":"lots"}]`},
		{"/csi", `{"link":1,"gains":[1e-7,2e-7]}`, `[{"link":1,"gains":"flat"}]`},
	} {
		for _, tc := range []struct {
			name, body string
			code       api.Code // "" means accepted
			accepted   int
		}{
			{"one item", list(ep.item, 1), "", 1},
			{"trailing bytes after the first value", list(ep.item, 2) + ` {"not":"read"`, "", 2},
			{"null", `null`, "", 0},
			{"empty list", `[]`, "", 0},
			{"malformed", "[" + ep.item + ",", api.CodeBadRequest, 0},
			{"empty body", ``, api.CodeBadRequest, 0},
			{"object, not a list", ep.item, api.CodeBadRequest, 0},
			{"wrong-typed field", ep.badType, api.CodeBadRequest, 0},
			{"link out of frame range", `[{"link":70000}]`, api.CodeBadRequest, 0},
			{"over the byte cap", `[{"link":1,"pad":"` + strings.Repeat("a", maxBodyBytes) + `"}]`, api.CodeBadRequest, 0},
			{"over the queue bound", list(ep.item, limit+1), api.CodeAdmission, 0},
		} {
			before := queued()
			resp, err := hs.Client().Post(hs.URL+api.PathPrefix+"/cells/"+fmt.Sprint(st.Cell)+ep.path,
				"application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.code == "" {
				var out api.SubmitResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted || err != nil || out.Accepted != tc.accepted {
					t.Errorf("%s %s: status %d accepted %d (%v), want 202 accepting %d",
						ep.path, tc.name, resp.StatusCode, out.Accepted, err, tc.accepted)
				}
			} else {
				var apiErr *api.Error
				err = api.DecodeError(resp)
				resp.Body.Close()
				if !errors.As(err, &apiErr) || apiErr.Code != tc.code {
					t.Errorf("%s %s: status %d error %v, want %s", ep.path, tc.name, resp.StatusCode, err, tc.code)
				}
			}
			if got := queued() - before; got != tc.accepted {
				t.Errorf("%s %s: queue grew by %d frames, want %d", ep.path, tc.name, got, tc.accepted)
			}
		}
		if _, err := client.StepCell(context.Background(), st.Cell); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBodyCap: a create body over maxBodyBytes is refused as
// bad-request and admits nothing, while a paper-scale network create
// (30 links, 5 channels) is well inside the cap.
func TestBodyCap(t *testing.T) {
	ctx := context.Background()
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	client := api.NewClient(hs.URL, hs.Client())

	// A valid instance spec padded past the cap with an unknown field,
	// which the decoder would otherwise skip.
	body := `{"instance":{"links":4,"channels":2,"seed":1},"pad":"` +
		strings.Repeat("a", maxBodyBytes) + `"}`
	resp, err := hs.Client().Post(hs.URL+api.PathPrefix+"/cells", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr *api.Error
	err = api.DecodeError(resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !errors.As(err, &apiErr) || apiErr.Code != api.CodeBadRequest {
		t.Fatalf("over-cap create: status %d error %v, want 400 bad-request", resp.StatusCode, err)
	}
	if cells, err := client.Cells(ctx); err != nil || len(cells) != 0 {
		t.Fatalf("over-cap create admitted cells %+v (%v)", cells, err)
	}

	cfg := experiment.DefaultConfig()
	cfg.NumLinks, cfg.NumChannels = 30, 5
	inst, err := experiment.NewInstance(cfg, stats.Fork(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	nw := api.NetworkFromModel(inst.Network)
	if _, err := client.CreateCell(ctx, api.CellSpec{Network: &nw}); err != nil {
		t.Fatalf("30-link create refused: %v", err)
	}
}

// TestOversizedInstanceRefused: an instance-drawn cell is bounded
// before its gains are drawn. 1000 links × 5 channels would need 40 MB
// of cross gains, more than an explicit network body may carry, and
// 256 channels exceed what a channel-update frame addresses; both are
// refused as bad-request and admit nothing, while 255 channels on a
// small cell are admitted.
func TestOversizedInstanceRefused(t *testing.T) {
	ctx := context.Background()
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	client := api.NewClient(hs.URL, hs.Client())

	for _, in := range []api.Instance{
		{Links: 1000, Channels: 5, Seed: 1},
		{Links: 4, Channels: 256, Seed: 1},
	} {
		_, err := client.CreateCell(ctx, api.CellSpec{Instance: &in})
		var apiErr *api.Error
		if !errors.As(err, &apiErr) || apiErr.Code != api.CodeBadRequest {
			t.Errorf("instance %d links × %d channels: error %v, want bad-request", in.Links, in.Channels, err)
		}
	}
	if cells, err := client.Cells(ctx); err != nil || len(cells) != 0 {
		t.Fatalf("oversized instances admitted cells %+v (%v)", cells, err)
	}
	if _, err := client.CreateCell(ctx, api.CellSpec{Instance: &api.Instance{Links: 4, Channels: 255, Seed: 1}}); err != nil {
		t.Fatalf("255-channel instance refused: %v", err)
	}
}

// TestHostileSpecBadRequest: a create body whose degradation policy
// or fault rates are out of range is the request's fault — bad-request,
// not the admission-refused that tells a client to retry after
// evictions — and admits no cell.
func TestHostileSpecBadRequest(t *testing.T) {
	ctx := context.Background()
	_, client := newTestServer(t, Config{})
	in := &api.Instance{Links: 4, Channels: 2, Seed: 9}
	for name, spec := range map[string]api.CellSpec{
		"negative decay":      {Instance: in, Policy: &api.Policy{StalenessLimit: 4, StalenessDecay: -1}},
		"huge retries":        {Instance: in, Policy: &api.Policy{MaxRetries: 1 << 40}, Faults: &api.Faults{CtrlLoss: 1}},
		"negative backoff":    {Instance: in, Policy: &api.Policy{RetryBackoff: -1}},
		"class decay above 1": {Instance: in, Policy: &api.Policy{StalenessDecayByClass: []float64{1, 2}}},
		"loss above 1":        {Instance: in, Faults: &api.Faults{CtrlLoss: 2}},
	} {
		_, err := client.CreateCell(ctx, spec)
		var apiErr *api.Error
		if !errors.As(err, &apiErr) || apiErr.Code != api.CodeBadRequest {
			t.Errorf("%s: error %v, want bad-request", name, err)
		}
	}
	if cells, err := client.Cells(ctx); err != nil || len(cells) != 0 {
		t.Fatalf("hostile specs admitted cells %+v (%v)", cells, err)
	}
	if _, err := client.CreateCell(ctx, api.CellSpec{Instance: in, Policy: &api.Policy{MaxRetries: 3, RetryBackoff: 2e-3,
		StalenessLimit: 4, StalenessDecay: 0.8}, Faults: &api.Faults{CtrlLoss: 0.2}}); err != nil {
		t.Fatalf("default policy refused: %v", err)
	}
}

// TestRetiredBlockageKeysIgnored: the v1 create body still accepts the
// retired blockage_rate/blockage_slots fault keys. The cell is
// admitted, carries no fault injector, and plans exactly like the same
// instance created without them.
func TestRetiredBlockageKeysIgnored(t *testing.T) {
	ctx := context.Background()
	srv, client := newTestServer(t, Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	body := `{"instance":{"links":4,"channels":2,"seed":9},"faults":{"blockage_rate":0.5,"blockage_slots":40}}`
	resp, err := http.Post(hs.URL+"/v1/cells", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var created api.CreateCellResponse
	err = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create with retired keys: HTTP %d", resp.StatusCode)
	}
	if err != nil {
		t.Fatal(err)
	}
	st := created.Cell
	if inj := srv.host.Cell(st.Cell).Injector(); inj != nil {
		t.Fatalf("retired keys attached an injector with %+v", inj.Config())
	}
	plain, err := client.CreateCell(ctx, api.CellSpec{Instance: &api.Instance{Links: 4, Channels: 2, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := client.StepCell(ctx, st.Cell)
	if err != nil {
		t.Fatal(err)
	}
	b, err := client.StepCell(ctx, plain.Cell)
	if err != nil {
		t.Fatal(err)
	}
	if a.Outcome != "ok" || !bytes.Equal(planJSON(t, a.Plan), planJSON(t, b.Plan)) {
		t.Fatalf("cell with retired keys: outcome %q, plan differs from the plain cell's", a.Outcome)
	}
}

// TestRecordTrimsInPlace: once a cell's report ring is full, recording
// a report trims the oldest in place — the only allocation is the
// followers' fresh notify channel — and the ring keeps the newest
// ReportRetention reports in order.
func TestRecordTrimsInPlace(t *testing.T) {
	const retention = 128
	s := &Server{cfg: Config{ReportRetention: retention}}
	cs := &cellState{notify: make(chan struct{})}
	epoch := int64(0)
	for ; epoch < 2*retention; epoch++ {
		s.record(cs, api.EpochReport{Epoch: epoch})
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.record(cs, api.EpochReport{Epoch: epoch})
		epoch++
	})
	if allocs != 1 {
		t.Errorf("record on a full ring allocated %v times per call, want 1 (the notify channel)", allocs)
	}
	if len(cs.reports) != retention {
		t.Fatalf("ring holds %d reports, want %d", len(cs.reports), retention)
	}
	for i, rep := range cs.reports {
		if want := epoch - retention + int64(i); rep.Epoch != want {
			t.Fatalf("ring slot %d holds epoch %d, want %d", i, rep.Epoch, want)
		}
	}
}

// TestResponseBodiesAsEncoder: the plan-bearing responses of a 16-cell
// server — the batch step, each plan, a report list and a follow-stream
// line — are exactly the bytes json.Encoder writes for the values they
// decode to.
func TestResponseBodiesAsEncoder(t *testing.T) {
	ctx := context.Background()
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	client := api.NewClient(hs.URL, hs.Client())
	const cells = 16
	gen := testLoad(t, 4, 5)
	for c := 0; c < cells; c++ {
		if _, err := client.CreateCell(ctx, api.CellSpec{Instance: &api.Instance{Links: 4, Channels: 2, Seed: int64(c)}}); err != nil {
			t.Fatal(err)
		}
	}
	get := func(method, path string) []byte {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, method, hs.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		if _, err := body.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d %s", method, path, resp.StatusCode, body.Bytes())
		}
		return body.Bytes()
	}
	check := func(body []byte, v any) {
		t.Helper()
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Fatalf("%T body differs from json.Encoder:\n got %s\nwant %s", v, body, want.Bytes())
		}
	}
	for ep := int64(0); ep < 2; ep++ {
		for c := 0; c < cells; c++ {
			if _, err := client.SubmitDemands(ctx, c, demandsFor(gen, c, ep)); err != nil {
				t.Fatal(err)
			}
		}
		var step api.StepResponse
		check(get(http.MethodPost, api.PathPrefix+"/step"), &step)
		if len(step.Reports) != cells {
			t.Fatalf("step returned %d reports", len(step.Reports))
		}
	}
	for c := 0; c < cells; c++ {
		var plan api.PlanResponse
		check(get(http.MethodGet, fmt.Sprintf("%s/cells/%d/plan", api.PathPrefix, c)), &plan)
		if len(plan.Plan.Schedules) == 0 {
			t.Fatalf("cell %d: empty plan", c)
		}
	}
	var list []api.EpochReport
	check(get(http.MethodGet, api.PathPrefix+"/cells/3/reports?since=-1"), &list)
	if len(list) != 2 {
		t.Fatalf("report list holds %d reports", len(list))
	}

	// The follow stream's first line is the first retained report.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, hs.URL+api.PathPrefix+"/cells/3/reports?since=-1&follow=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var rep api.EpochReport
	check(line, &rep)
	if rep.Epoch != 0 || rep.Cell != 3 {
		t.Fatalf("first streamed report is cell %d epoch %d", rep.Cell, rep.Epoch)
	}
}

// TestHostileClients drives the server over HTTP with hostile clients
// while 20 batch steps run on two 4-link × 2-channel cells. Eight
// goroutines flood cell 0's /demands with bodies that fit the body cap
// but together overrun its 16·L-frame uplink queue, and one raw
// connection sends cell 1 a demands request that declares more body
// bytes than it writes, then closes. Every step must still serve the
// well-behaved cell 1 a fresh plan, each flood request must be accepted
// (202) or refused as admission-refused, cell 0's queue must never
// exceed its bound, the aborted body must queue nothing, and Drain must
// return.
func TestHostileClients(t *testing.T) {
	const steps, flooders = 20, 8
	ctx := context.Background()
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewUnstartedServer(srv.Handler())
	var connMu sync.Mutex
	closed := make(map[string]chan struct{}) // client address → closed on the server side
	hs.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st != http.StateClosed {
			return
		}
		connMu.Lock()
		if ch := closed[c.RemoteAddr().String()]; ch != nil {
			close(ch)
		}
		connMu.Unlock()
	}
	hs.Start()
	t.Cleanup(func() { hs.Close(); srv.Close() })
	client := api.NewClient(hs.URL, hs.Client())

	for seed := int64(1); seed <= 2; seed++ {
		if _, err := client.CreateCell(ctx, api.CellSpec{Instance: &api.Instance{Links: 4, Channels: 2, Seed: seed}}); err != nil {
			t.Fatal(err)
		}
	}
	const links = 4
	limit := maxQueuedFramesPerLink * links
	queued := func(id int) int {
		cs := srv.lookup(id)
		cs.mu.Lock()
		defer cs.mu.Unlock()
		return len(cs.queue)
	}
	var overBound atomic.Int64 // largest queue length above the bound seen
	checkBound := func() {
		if n := queued(0); n > limit {
			overBound.Store(int64(n))
		}
	}

	// A flood body: three demand reports per link, 12 frames. Eight
	// flooders submit 96 frames before a step drains 64 at most.
	gen := testLoad(t, links, 5)
	var flood []api.Demand
	for ep := int64(0); ep < 3; ep++ {
		flood = append(flood, demandsFor(gen, 0, ep)...)
	}
	floodBody, err := json.Marshal(flood)
	if err != nil {
		t.Fatal(err)
	}
	var accepted, refused, unexpected atomic.Int64
	var firstUnexpected atomic.Value
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < flooders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			url := hs.URL + api.PathPrefix + "/cells/0/demands"
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := hs.Client().Post(url, "application/json", bytes.NewReader(floodBody))
				if err != nil {
					unexpected.Add(1)
					firstUnexpected.CompareAndSwap(nil, err.Error())
					continue
				}
				var apiErr *api.Error
				switch {
				case resp.StatusCode == http.StatusAccepted:
					accepted.Add(1)
				case errors.As(api.DecodeError(resp), &apiErr) && apiErr.Code == api.CodeAdmission:
					refused.Add(1)
				default:
					unexpected.Add(1)
					firstUnexpected.CompareAndSwap(nil, fmt.Sprintf("HTTP %d", resp.StatusCode))
				}
				_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
				resp.Body.Close()
				checkBound()
			}
		}()
	}
	stopFlood := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopFlood()
	// No step runs before the flood has overrun cell 0's queue once.
	for deadline := time.Now().Add(time.Second); refused.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the flood never overran cell 0's uplink queue")
		}
		time.Sleep(time.Millisecond)
	}

	// abort sends cell 1 a demands request that declares a longer body
	// than it writes, closes the connection, and waits until the server
	// has closed its end too (the handler has returned).
	abort := func() {
		conn, err := net.Dial("tcp", hs.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		connMu.Lock()
		closed[conn.LocalAddr().String()] = done
		connMu.Unlock()
		partial := `[{"link":0,"hp":1000000,"lp":3000000},{"link":1,"hp":`
		fmt.Fprintf(conn, "POST %s/cells/1/demands HTTP/1.1\r\nHost: pncd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
			api.PathPrefix, 4*len(partial), partial)
		conn.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("the server kept the aborted connection open")
		}
	}

	well := testLoad(t, links, 6)
	for step := int64(0); step < steps; step++ {
		if _, err := client.SubmitDemands(ctx, 1, demandsFor(well, 1, step)); err != nil {
			t.Fatalf("step %d: cell 1 submission: %v", step, err)
		}
		if step == steps/2 {
			before := queued(1)
			abort()
			if got := queued(1); got != before {
				t.Fatalf("the aborted body changed cell 1's queue: %d → %d frames", before, got)
			}
		}
		reports, err := client.StepAll(ctx)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkBound()
		var rep *api.EpochReport
		for i := range reports {
			if reports[i].Cell == 1 {
				rep = &reports[i]
			}
		}
		if rep == nil || rep.Outcome != "ok" || rep.NoPlan || rep.PlanAge != 0 || len(rep.Plan.Schedules) == 0 {
			t.Fatalf("step %d: cell 1 got no fresh plan: %+v", step, rep)
		}
		plan, err := client.Plan(ctx, 1)
		if err != nil {
			t.Fatalf("step %d: cell 1 plan: %v", step, err)
		}
		if plan.PlanAge != 0 || plan.Epoch != step+1 {
			t.Fatalf("step %d: cell 1 plan = epoch %d age %d, want epoch %d age 0", step, plan.Epoch, plan.PlanAge, step+1)
		}
	}
	stopFlood()

	if n := unexpected.Load(); n > 0 {
		t.Errorf("%d flood requests got neither 202 nor admission-refused (first: %v)", n, firstUnexpected.Load())
	}
	if n := overBound.Load(); n > 0 {
		t.Errorf("cell 0's uplink queue reached %d frames, over its bound %d", n, limit)
	}
	if accepted.Load() == 0 {
		t.Error("no flood request was accepted")
	}
	t.Logf("flood: %d accepted, %d refused", accepted.Load(), refused.Load())
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// Package pncd is the multi-tenant scheduling server: an HTTP control
// plane over internal/host. It owns the cell registry, per-cell
// ingest queues, report retention, spec persistence, and drain
// semantics; the wire contract lives in internal/api. cmd/pncd wraps
// this package in a process; tests embed it in-process with
// httptest.Server. See DESIGN.md §15.
package pncd

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mmwave/internal/api"
	"mmwave/internal/checkpoint"
	"mmwave/internal/experiment"
	"mmwave/internal/host"
	"mmwave/internal/netmodel"
	"mmwave/internal/obs"
	"mmwave/internal/pnc"
	"mmwave/internal/stats"
)

// Config parameterizes a server.
type Config struct {
	// StateDir persists per-cell specs and checkpoints; a restarted
	// server recovers every cell from it. Empty disables persistence
	// (cells live only in memory).
	StateDir string
	// Workers bounds batch-step parallelism (host.Options.Workers;
	// zero means one worker per cell).
	Workers int
	// Watchdog is the per-epoch solve deadline (zero disables).
	Watchdog time.Duration
	// MaxCells / MaxTotalLinks bound admission (zero means unlimited).
	MaxCells      int
	MaxTotalLinks int
	// ReportRetention is the per-cell report ring size (zero means 128).
	ReportRetention int
}

// Server hosts cells behind the v1 API. Construct with New, mount
// Handler, stop with Drain then Close.
type Server struct {
	cfg  Config
	reg  *obs.Registry
	host *host.Host
	mux  *http.ServeMux

	// baseCtx bounds every solve; Drain cancels it so in-flight
	// epochs truncate to their anytime plans.
	baseCtx context.Context
	cancel  context.CancelFunc

	// stepMu serializes epoch steps and registry mutations (admission,
	// eviction) against each other; reads go through cells under mu.
	stepMu sync.Mutex

	mu       sync.Mutex
	cells    map[int]*cellState
	draining atomic.Bool
	batches  atomic.Int64 // completed batch steps (Health.Epoch)
}

// cellState is the server-side state for one hosted cell: the ingest
// queue, report ring, and persistence bookkeeping.
type cellState struct {
	id   int
	cell *host.Cell
	nw   *netmodel.Network // shared with the coordinator; CSI mutates it
	rec  cellRecord        // persisted spec (Network refreshed on CSI)

	restored bool // recovered from a checkpoint at server start

	mu       sync.Mutex
	queue    [][]byte // encoded uplink frames for the next epoch (≤ maxQueuedFramesPerLink per link)
	queueCSI bool     // queue contains a CSI frame (spec re-persist needed)
	csiFed   bool     // the in-flight step consumed CSI (set by feed, under stepMu)
	reports  []api.EpochReport
	notify   chan struct{} // closed and replaced when a report lands
}

// maxQueuedFramesPerLink bounds a cell's uplink queue between steps:
// a submission that would push the queue past this many frames per
// link is refused whole with admission-refused, leaving the queue as
// it was. One epoch needs a demand report per link plus any CSI.
const maxQueuedFramesPerLink = 16

// cellRecord is the on-disk spec: everything needed to rebuild the
// cell identically on restart. The Network field carries the *drawn*
// instance (even for Instance-created cells) with post-CSI gains, so
// its checkpoint fingerprint matches the latest snapshot.
type cellRecord struct {
	Cell    int          `json:"cell"`
	Network api.Network  `json:"network"`
	Control *api.Control `json:"control,omitempty"`
	Solve   *api.Solve   `json:"solve,omitempty"`
	Policy  *api.Policy  `json:"policy,omitempty"`
	Faults  *api.Faults  `json:"faults,omitempty"`
}

// New builds a server, recovering every persisted cell from
// cfg.StateDir (specs rebuild the cells, checkpoints restore their
// exact coordinator state; a cell whose checkpoint is corrupt or
// incompatible restarts cold and is counted in host_cold_restarts_total).
func New(cfg Config) (*Server, error) {
	if cfg.ReportRetention <= 0 {
		cfg.ReportRetention = 128
	}
	reg := obs.NewRegistry()
	hostOpts := []host.Option{
		host.WithWatchdog(cfg.Watchdog),
		host.WithAdmission(cfg.MaxCells, cfg.MaxTotalLinks),
		host.WithWorkers(cfg.Workers),
		host.WithMetrics(reg),
	}
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			return nil, fmt.Errorf("pncd: state dir: %w", err)
		}
		hostOpts = append(hostOpts, host.WithCheckpointDir(cfg.StateDir))
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		host:    host.New(hostOpts...),
		baseCtx: ctx,
		cancel:  cancel,
		cells:   make(map[int]*cellState),
	}
	if err := s.recover(); err != nil {
		cancel()
		return nil, err
	}
	s.routes()
	return s, nil
}

// recover readmits every persisted cell in ID order and restores its
// coordinator from its checkpoint.
func (s *Server) recover() error {
	if s.cfg.StateDir == "" {
		return nil
	}
	paths, err := filepath.Glob(filepath.Join(s.cfg.StateDir, "cell*.spec.json"))
	if err != nil {
		return err
	}
	type entry struct {
		id  int
		rec cellRecord
	}
	var entries []entry
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return fmt.Errorf("pncd: read spec %s: %w", p, err)
		}
		var rec cellRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("pncd: parse spec %s: %w", p, err)
		}
		entries = append(entries, entry{rec.Cell, rec})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	for _, e := range entries {
		cs, err := s.admit(e.rec, e.id)
		if err != nil {
			return fmt.Errorf("pncd: recover cell %d: %w", e.id, err)
		}
		// A failed restore (missing, corrupt, or incompatible
		// checkpoint) is not fatal: the cell is already rebuilt cold
		// from its spec and the host counted the cold restart.
		restored, _ := s.host.Recover(cs.cell)
		cs.restored = restored
	}
	return nil
}

// admit builds and registers one cell. id < 0 assigns the next free
// ID. Callers hold neither lock; admission serializes on stepMu (it
// mutates host state) and registers under mu.
func (s *Server) admit(rec cellRecord, id int) (*cellState, error) {
	nw, err := rec.Network.ToModel()
	if err != nil {
		return nil, err
	}
	specOpts := []host.SpecOption{}
	if rec.Control != nil {
		specOpts = append(specOpts, host.SpecControl(&pnc.ControlChannel{
			BitrateBps:         rec.Control.BitrateBps,
			PerMsgOverheadBits: rec.Control.PerMsgOverheadBits,
		}))
	}
	if rec.Solve != nil {
		specOpts = append(specOpts, host.SpecSolve(rec.Solve.ToOptions()))
	}
	if rec.Policy != nil {
		specOpts = append(specOpts, host.SpecPolicy(rec.Policy.ToModel()))
	}
	if rec.Faults != nil {
		fcfg := rec.Faults.ToModel()
		specOpts = append(specOpts, host.SpecFaults(&fcfg))
	}
	spec := host.NewSpec(nw, specOpts...)

	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	var cell *host.Cell
	if id < 0 {
		cell, err = s.host.Admit(spec)
	} else {
		cell, err = s.host.AdmitAt(id, spec)
	}
	if err != nil {
		return nil, err
	}
	rec.Cell = cell.ID()
	cs := &cellState{
		id:     cell.ID(),
		cell:   cell,
		nw:     nw,
		rec:    rec,
		notify: make(chan struct{}),
	}
	if err := s.persist(cs); err != nil {
		// Roll a new admission back: a cell we cannot persist would
		// silently vanish on restart. Not a recovered one (id >= 0):
		// Evict deletes the cell's checkpoint, and the server fails to
		// start on this error anyway, so the next boot needs it.
		if id < 0 {
			_ = s.host.Evict(cell.ID())
		}
		return nil, err
	}
	s.mu.Lock()
	s.cells[cs.id] = cs
	s.mu.Unlock()
	return cs, nil
}

// persist atomically rewrites the cell's spec record
// (checkpoint.WriteFile; its temp names end in ".tmp…", so the
// recovery glob never picks one up).
func (s *Server) persist(cs *cellState) error {
	if s.cfg.StateDir == "" {
		return nil
	}
	cs.rec.Network = api.NetworkFromModel(cs.nw)
	data, err := json.Marshal(cs.rec)
	if err != nil {
		return err
	}
	return checkpoint.WriteFile(s.specPath(cs.id), data)
}

func (s *Server) specPath(id int) string {
	return filepath.Join(s.cfg.StateDir, "cell"+strconv.Itoa(id)+".spec.json")
}

// lookup returns the cell state for an ID, or nil.
func (s *Server) lookup(id int) *cellState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cells[id]
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain moves the server into draining: mutating requests are refused
// with the draining code, in-flight solves are canceled (truncating to
// their Theorem-1 anytime plans, which are checkpointed like any
// other), and report followers are released. Drain returns once every
// in-flight step has completed or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.cancel()
	done := make(chan struct{})
	go func() {
		// Acquiring stepMu IS the wait: a held stepMu means an epoch
		// step is still writing state.
		s.stepMu.Lock()
		close(done)
		s.stepMu.Unlock()
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close releases the server's resources. Safe after Drain.
func (s *Server) Close() { s.cancel() }

// maxBodyBytes caps every request body the server decodes; a larger
// body is refused as bad-request before any cell is admitted. Create
// bodies dominate: a 5-channel network spec measures about 92 KB at 30
// links, 1.0 MB at 100 and 4.0 MB at 200, growing with links² (the
// cross-gain cube), so the cap admits networks of about 400 links.
const maxBodyBytes = 16 << 20

// routes mounts the v1 surface on the server's mux.
func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.reg.Handler())
	p := api.PathPrefix
	mux.HandleFunc("POST "+p+"/cells", s.handleCreate)
	mux.HandleFunc("GET "+p+"/cells", s.handleList)
	mux.HandleFunc("GET "+p+"/cells/{id}", s.handleCell)
	mux.HandleFunc("DELETE "+p+"/cells/{id}", s.handleDelete)
	mux.HandleFunc("POST "+p+"/cells/{id}/demands", s.handleDemands)
	mux.HandleFunc("POST "+p+"/cells/{id}/csi", s.handleCSI)
	mux.HandleFunc("POST "+p+"/cells/{id}/step", s.handleStepCell)
	mux.HandleFunc("POST "+p+"/step", s.handleStepAll)
	mux.HandleFunc("GET "+p+"/cells/{id}/plan", s.handlePlan)
	mux.HandleFunc("GET "+p+"/cells/{id}/reports", s.handleReports)
	s.mux = mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// refuseDraining answers mutating requests during drain.
func (s *Server) refuseDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	api.WriteError(w, &api.Error{Code: api.CodeDraining, Message: "server is draining"})
	return true
}

// cellParam resolves the {id} path value, writing the error itself on
// failure.
func (s *Server) cellParam(w http.ResponseWriter, r *http.Request) (*cellState, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		api.WriteError(w, &api.Error{Code: api.CodeBadRequest, Message: "cell id must be an integer"})
		return nil, false
	}
	cs := s.lookup(id)
	if cs == nil {
		api.WriteError(w, &api.Error{Code: api.CodeNotFound, Message: fmt.Sprintf("no cell %d", id)})
		return nil, false
	}
	return cs, true
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.cells)
	s.mu.Unlock()
	h := api.Health{Status: "ok", Cells: n, Epoch: s.batches.Load()}
	status := http.StatusOK
	if s.draining.Load() {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	var spec api.CellSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&spec); err != nil {
		api.WriteError(w, &api.Error{Code: api.CodeBadRequest, Message: err.Error()})
		return
	}
	rec, initialDemands, err := s.resolveSpec(spec)
	if err != nil {
		api.WriteError(w, err)
		return
	}
	cs, aerr := s.admit(rec, -1)
	if aerr != nil {
		api.WriteError(w, aerr)
		return
	}
	// An Instance draw carries its own per-GOP demands: queue them so
	// the cell is steppable immediately, exactly as the experiment
	// harness would feed it.
	if len(initialDemands) > 0 {
		cs.mu.Lock()
		cs.queue = append(cs.queue, initialDemands...)
		cs.mu.Unlock()
	}
	writeJSON(w, http.StatusCreated, api.CreateCellResponse{Cell: s.status(cs)})
}

// resolveSpec turns a wire CellSpec into the persisted record,
// drawing the instance server-side when requested. The second return
// is pre-encoded initial demand frames for instance-drawn cells.
func (s *Server) resolveSpec(spec api.CellSpec) (cellRecord, [][]byte, error) {
	if (spec.Network == nil) == (spec.Instance == nil) {
		return cellRecord{}, nil, &api.Error{Code: api.CodeBadRequest,
			Message: "exactly one of network or instance must be set"}
	}
	// A policy or fault rate out of range is the request's fault, not a
	// capacity refusal that eviction could lift: answer it before
	// admission would.
	if spec.Policy != nil {
		if err := spec.Policy.ToModel().Validate(); err != nil {
			return cellRecord{}, nil, &api.Error{Code: api.CodeBadRequest, Message: err.Error()}
		}
	}
	if spec.Faults != nil {
		if err := spec.Faults.ToModel().Validate(); err != nil {
			return cellRecord{}, nil, &api.Error{Code: api.CodeBadRequest, Message: err.Error()}
		}
	}
	rec := cellRecord{
		Control: spec.Control,
		Solve:   spec.Solve,
		Policy:  spec.Policy,
		Faults:  spec.Faults,
	}
	if spec.Network != nil {
		rec.Network = *spec.Network
		return rec, nil, nil
	}
	in := *spec.Instance
	cfg := experiment.DefaultConfig()
	if in.Links > 0 {
		cfg.NumLinks = in.Links
	}
	if in.Channels > 0 {
		cfg.NumChannels = in.Channels
	}
	if in.DemandScale > 0 {
		cfg.DemandScale = in.DemandScale
	}
	cfg.TrafficClasses = in.TrafficClasses
	// The draw allocates links²·channels float64 cross gains before any
	// admission check runs, so bound it first: an instance may hold no
	// more gain data than an explicit network body may carry, and no
	// more channels than a channel-update frame can address.
	if cfg.NumChannels > pnc.MaxWireChannels {
		return cellRecord{}, nil, &api.Error{Code: api.CodeBadRequest,
			Message: fmt.Sprintf("instance has %d channels, the wire limit is %d", cfg.NumChannels, pnc.MaxWireChannels)}
	}
	if gainBytes := 8 * float64(cfg.NumLinks) * float64(cfg.NumLinks) * float64(cfg.NumChannels); gainBytes > maxBodyBytes {
		return cellRecord{}, nil, &api.Error{Code: api.CodeBadRequest,
			Message: fmt.Sprintf("instance of %d links × %d channels needs %.0f bytes of gains, over the %d-byte body cap",
				cfg.NumLinks, cfg.NumChannels, gainBytes, maxBodyBytes)}
	}
	inst, err := experiment.NewInstance(cfg, stats.Fork(in.Seed, 0))
	if err != nil {
		return cellRecord{}, nil, &api.Error{Code: api.CodeBadRequest, Message: err.Error()}
	}
	rec.Network = api.NetworkFromModel(inst.Network)
	var frames [][]byte
	for l, d := range inst.Demands {
		frame, err := api.DemandFromModel(l, d).Frame()
		if err != nil {
			return cellRecord{}, nil, err
		}
		frames = append(frames, frame)
	}
	return rec, frames, nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	states := make([]*cellState, 0, len(s.cells))
	for _, cs := range s.cells {
		states = append(states, cs)
	}
	s.mu.Unlock()
	sort.Slice(states, func(i, j int) bool { return states[i].id < states[j].id })
	out := make([]api.CellStatus, len(states))
	for i, cs := range states {
		out[i] = s.status(cs)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	cs, ok := s.cellParam(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.status(cs))
}

// status snapshots a cell's wire status. Reads of host cell fields are
// safe against concurrent steps only under stepMu for exact values;
// status is a monitoring read, so it takes the cheap racy snapshot the
// host accessors give (the same trade the host's own Cells() makes).
func (s *Server) status(cs *cellState) api.CellStatus {
	st := api.CellStatus{
		Cell:     cs.id,
		Epoch:    cs.cell.Epoch(),
		Links:    cs.nw.NumLinks(),
		Channels: cs.nw.NumChannels,
		Restarts: cs.cell.Restarts(),
		Restored: cs.restored,
	}
	switch {
	case cs.cell.Disabled():
		st.Outcome = "disabled"
	case cs.cell.Degraded():
		st.Outcome = "degraded"
	default:
		st.Outcome = "live"
	}
	if _, age, ok := cs.cell.LastPlan(); ok {
		st.HasPlan = true
		st.PlanAge = age
	}
	return st
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	cs, ok := s.cellParam(w, r)
	if !ok {
		return
	}
	s.stepMu.Lock()
	err := s.host.Evict(cs.id)
	s.stepMu.Unlock()
	if err != nil {
		api.WriteError(w, err)
		return
	}
	s.mu.Lock()
	delete(s.cells, cs.id)
	s.mu.Unlock()
	if s.cfg.StateDir != "" {
		os.Remove(s.specPath(cs.id)) // the host removed its checkpoint in Evict
	}
	cs.mu.Lock()
	close(cs.notify) // release followers; the cell is gone
	cs.notify = nil
	cs.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleDemands(w http.ResponseWriter, r *http.Request) {
	s.handleSubmit(w, r, false, decodeFrames[api.Demand])
}

func (s *Server) handleCSI(w http.ResponseWriter, r *http.Request) {
	s.handleSubmit(w, r, true, decodeFrames[api.CSI])
}

// decodeFrames decodes the first JSON value of a request body as a
// list of T straight from the capped reader, in one pass (anything
// after that value is not read), and encodes each item as its uplink
// frame. A malformed, over-cap or wrong-typed body is bad-request.
func decodeFrames[T interface{ Frame() ([]byte, error) }](dec *json.Decoder) ([][]byte, error) {
	var items []T
	if err := dec.Decode(&items); err != nil {
		return nil, &api.Error{Code: api.CodeBadRequest, Message: err.Error()}
	}
	frames := make([][]byte, len(items))
	for i, it := range items {
		f, err := it.Frame()
		if err != nil {
			return nil, err
		}
		frames[i] = f
	}
	return frames, nil
}

// handleSubmit is the shared demand/CSI ingest path: decode, encode to
// binary uplink frames (validating), and queue for the next step.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, isCSI bool,
	decode func(*json.Decoder) ([][]byte, error)) {
	if s.refuseDraining(w) {
		return
	}
	cs, ok := s.cellParam(w, r)
	if !ok {
		return
	}
	frames, err := decode(json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)))
	if err != nil {
		api.WriteError(w, err)
		return
	}
	cs.mu.Lock()
	if limit := maxQueuedFramesPerLink * cs.nw.NumLinks(); len(cs.queue)+len(frames) > limit {
		queued := len(cs.queue)
		cs.mu.Unlock()
		api.WriteError(w, &api.Error{Code: api.CodeAdmission, Message: fmt.Sprintf(
			"cell %d uplink queue full: %d queued + %d submitted frames exceed %d", cs.id, queued, len(frames), limit)})
		return
	}
	cs.queue = append(cs.queue, frames...)
	cs.queueCSI = cs.queueCSI || (isCSI && len(frames) > 0)
	cs.mu.Unlock()
	writeJSON(w, http.StatusAccepted, api.SubmitResponse{Accepted: len(frames)})
}

// feed drains a cell's queue into the host's ingest path. It runs
// inside the step (under stepMu); the queue lock only covers the
// hand-off so submissions never block on a solve.
func (s *Server) feed(c *host.Cell, _ int64) [][]byte {
	cs := s.lookup(c.ID())
	if cs == nil {
		return nil
	}
	cs.mu.Lock()
	frames := cs.queue
	cs.queue = nil
	if cs.queueCSI {
		cs.queueCSI = false
		cs.csiFed = true
	}
	cs.mu.Unlock()
	return frames
}

func (s *Server) handleStepCell(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	cs, ok := s.cellParam(w, r)
	if !ok {
		return
	}
	s.stepMu.Lock()
	rep := s.host.Step(s.baseCtx, cs.cell, s.feed)
	s.finishStep(cs)
	s.stepMu.Unlock()
	wire := api.ReportFromHost(rep)
	s.record(cs, wire)
	writeJSON(w, http.StatusOK, wire)
}

func (s *Server) handleStepAll(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	s.stepMu.Lock()
	reports := s.host.StepAll(s.baseCtx, s.feed)
	s.mu.Lock()
	states := make(map[int]*cellState, len(s.cells))
	for id, cs := range s.cells {
		states[id] = cs
	}
	s.mu.Unlock()
	for _, cs := range states {
		s.finishStep(cs)
	}
	s.stepMu.Unlock()
	s.batches.Add(1)
	out := api.StepResponse{}
	for id, rep := range reports {
		if rep == nil {
			continue
		}
		wire := api.ReportFromHost(rep)
		if cs := states[id]; cs != nil {
			s.record(cs, wire)
		}
		out.Reports = append(out.Reports, wire)
	}
	writeJSON(w, http.StatusOK, out)
}

// finishStep runs post-step bookkeeping under stepMu: when the step
// consumed CSI the persisted spec is rewritten so its gains (and
// therefore its checkpoint fingerprint) match the snapshot the host
// just wrote.
func (s *Server) finishStep(cs *cellState) {
	cs.mu.Lock()
	dirty := cs.csiFed
	cs.csiFed = false
	cs.mu.Unlock()
	if dirty {
		_ = s.persist(cs)
	}
}

// record appends a report to the cell's ring, trimming the oldest in
// place once the ring is full, and wakes followers.
func (s *Server) record(cs *cellState, rep api.EpochReport) {
	cs.mu.Lock()
	cs.reports = append(cs.reports, rep)
	if over := len(cs.reports) - s.cfg.ReportRetention; over > 0 {
		cs.reports = slices.Delete(cs.reports, 0, over)
	}
	if cs.notify != nil {
		close(cs.notify)
		cs.notify = make(chan struct{})
	}
	cs.mu.Unlock()
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	cs, ok := s.cellParam(w, r)
	if !ok {
		return
	}
	plan, age, has := cs.cell.LastPlan()
	if !has {
		api.WriteError(w, &api.Error{Code: api.CodeNotFound,
			Message: fmt.Sprintf("cell %d has no plan yet", cs.id)})
		return
	}
	writeJSON(w, http.StatusOK, api.PlanResponse{
		Cell:    cs.id,
		Epoch:   cs.cell.Epoch(),
		Plan:    api.PlanFromModel(plan),
		PlanAge: age,
	})
}

func (s *Server) handleReports(w http.ResponseWriter, r *http.Request) {
	cs, ok := s.cellParam(w, r)
	if !ok {
		return
	}
	since := int64(-1)
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			api.WriteError(w, &api.Error{Code: api.CodeBadRequest, Message: "since must be an integer"})
			return
		}
		since = n
	}
	follow := r.URL.Query().Get("follow") != ""
	if !follow {
		writeJSON(w, http.StatusOK, s.reportsSince(cs, since))
		return
	}

	// JSONL follow stream: retained backlog first, then each new
	// report as its step lands, until the client goes away or the
	// server drains.
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		cs.mu.Lock()
		wait := cs.notify
		cs.mu.Unlock()
		for _, rep := range s.reportsSince(cs, since) {
			if err := enc.Encode(rep); err != nil {
				return
			}
			if rep.Epoch > since {
				since = rep.Epoch
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if wait == nil { // cell deleted
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			return
		}
	}
}

// reportsSince copies the retained reports with epoch > since.
func (s *Server) reportsSince(cs *cellState, since int64) []api.EpochReport {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	out := make([]api.EpochReport, 0, len(cs.reports))
	for _, rep := range cs.reports {
		if rep.Epoch > since {
			out = append(out, rep)
		}
	}
	return out
}

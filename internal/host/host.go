// Package host supervises a fleet of independent PicoNet Coordinators
// — the multi-cell substrate for the future scheduler-as-a-service
// daemon. Each cell runs its coordinator inside a panic-isolated
// worker with a per-epoch watchdog deadline: a panic is recovered and
// recorded, a hung solve is canceled through the solver's
// anytime-truncation path (the plan returned still carries a valid
// Theorem-1 bound), and a failed cell degrades to its last-known-good
// plan while a bounded-restart policy — exponential backoff, a
// circuit breaker after K consecutive failures, and a hard restart
// budget — decides when it may try again. Cells checkpoint their
// durable state (internal/checkpoint) after every successful epoch,
// so a kill-and-restore round trip is invisible: the restored cell
// re-solves byte-identically to one that never died. All failure and
// recovery events flow through internal/obs as host_* metrics and
// span events.
package host

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mmwave/internal/checkpoint"
	"mmwave/internal/core"
	"mmwave/internal/faults"
	"mmwave/internal/netmodel"
	"mmwave/internal/obs"
	"mmwave/internal/pnc"
)

// ErrAdmission reports a cell refused by admission control.
var ErrAdmission = errors.New("host: admission refused")

// CellSpec describes one cell to admit.
type CellSpec struct {
	// Network is the cell's problem instance (required).
	Network *netmodel.Network
	// Control is the cell's control channel; nil means the WiFi-like
	// default.
	Control *pnc.ControlChannel
	// Solve configures the cell's per-epoch P1 solves. A nil
	// Solve.Pricer gets core.NewBranchBoundPricer(0), which pools
	// leaves for multi-column rounds like every default solve.
	Solve core.Options
	// Policy is the coordinator's degradation policy.
	Policy pnc.DegradePolicy
	// Faults, when non-nil, attaches a fault injector (control-plane
	// classes routed through the coordinator, process classes enacted
	// by the host).
	Faults *faults.Config
}

// Options configures a Host.
type Options struct {
	// Watchdog is the per-epoch deadline: a solve still running when it
	// expires is canceled through the anytime-truncation path. Zero
	// disables the watchdog. An injected hang runs its epoch under an
	// already-expired deadline either way.
	Watchdog time.Duration
	// MaxRestarts is the per-cell restart budget: after this many
	// failed epochs the cell is permanently disabled. Zero means 8.
	MaxRestarts int
	// MaxCells and MaxTotalLinks bound admission; zero means unlimited.
	MaxCells      int
	MaxTotalLinks int
	// CheckpointDir, when set, persists each cell's checkpoint to
	// <dir>/cell<id>.ckpt, a two-slot file each epoch's image
	// overwrites in place (checkpoint.StoreImage; Evict removes the
	// file); empty keeps checkpoints in memory.
	CheckpointDir string
	// Workers bounds StepAll's parallelism, counting the calling
	// goroutine; zero means one worker per cell.
	Workers int
	// Tracer/Metrics receive host_* span events and counters.
	Tracer  *obs.Tracer
	Metrics *obs.Registry
}

func (o *Options) maxRestarts() int {
	if o.MaxRestarts == 0 {
		return 8
	}
	return o.MaxRestarts
}

// The circuit breaker opens — the cell is marked degraded and stops
// attempting epochs — after breakerThreshold consecutive failures, and
// holds for breakerCooldown epochs before the half-open retry.
const (
	breakerThreshold = 3
	breakerCooldown  = 4
)

// Outcome classifies one cell-epoch.
type Outcome uint8

// Cell-epoch outcomes.
const (
	// OutcomeOK: the epoch produced a fresh plan (possibly truncated by
	// the watchdog — still a valid anytime result).
	OutcomeOK Outcome = iota
	// OutcomeFailed: the epoch failed (panic or solve error); the cell
	// served its last-known-good plan.
	OutcomeFailed
	// OutcomeBackoff: the cell skipped the epoch waiting out its
	// restart backoff; last-known-good served.
	OutcomeBackoff
	// OutcomeBreakerOpen: the breaker is holding the cell degraded;
	// last-known-good served.
	OutcomeBreakerOpen
	// OutcomeDisabled: the restart budget is exhausted; the cell is
	// permanently degraded.
	OutcomeDisabled
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeFailed:
		return "failed"
	case OutcomeBackoff:
		return "backoff"
	case OutcomeBreakerOpen:
		return "breaker-open"
	case OutcomeDisabled:
		return "disabled"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// EpochReport is the host's record of one cell-epoch.
type EpochReport struct {
	Cell    int
	Epoch   int64 // host-side epoch index (counts every step, including skips)
	Outcome Outcome
	// Result is the coordinator's epoch result, non-nil only on
	// OutcomeOK.
	Result *pnc.EpochResult
	// Err is the failure on OutcomeFailed (a recovered panic is
	// wrapped into an error).
	Err error
	// Plan is what the cell served the data plane this epoch: the
	// fresh plan on OK, otherwise the last-known-good plan. PlanAge is
	// how many epochs old it is (0 = fresh); NoPlan reports that no
	// last-known-good existed yet (first-epoch failure) and nothing
	// was served.
	Plan    core.Plan
	PlanAge int64
	NoPlan  bool
	// Panicked distinguishes a recovered panic from an error return.
	Panicked bool
	// Injected echoes the process faults drawn for this epoch.
	Injected faults.ProcFaults
	// Restored reports a kill-restore enacted from a good checkpoint
	// after this epoch; ColdRestarted that the checkpoint was corrupt
	// and the cell rebuilt cold instead.
	Restored      bool
	ColdRestarted bool
}

// Cell is one supervised coordinator.
type Cell struct {
	id   int
	spec CellSpec
	host *Host

	coord *pnc.Coordinator
	inj   *faults.Injector

	ckptPath string // disk path, or "" for in-memory
	lastCkpt []byte // latest encoded checkpoint image

	lastPlan      core.Plan
	lastPlanEpoch int64
	hasPlan       bool

	epoch       int64
	consecFails int
	restarts    int
	skipUntil   int64
	breakerOpen bool
	disabled    bool
}

// ID returns the cell's index within the host.
func (c *Cell) ID() int { return c.id }

// Coordinator returns the cell's live coordinator (test/driver use;
// the supervised path goes through Host.StepAll).
func (c *Cell) Coordinator() *pnc.Coordinator { return c.coord }

// Injector returns the cell's fault injector, nil when faultless.
func (c *Cell) Injector() *faults.Injector { return c.inj }

// Disabled reports whether the restart budget is exhausted.
func (c *Cell) Disabled() bool { return c.disabled }

// Degraded reports whether the breaker currently holds the cell.
func (c *Cell) Degraded() bool { return c.breakerOpen || c.disabled }

// Restarts returns the number of failed epochs recovered so far.
func (c *Cell) Restarts() int { return c.restarts }

// Epoch returns the host-side epoch counter: every step of the cell,
// including skipped and degraded ones, advances it.
func (c *Cell) Epoch() int64 { return c.epoch }

// LastPlan returns the cell's last-known-good plan, how many completed
// epochs old it is (0 = produced by the most recent step, matching
// EpochReport.PlanAge), and whether one exists (a cell that never
// completed an epoch has nothing to serve). Not safe against a
// concurrent step of the same cell — read between steps, like every
// other cell accessor.
func (c *Cell) LastPlan() (plan core.Plan, age int64, ok bool) {
	if !c.hasPlan {
		return core.Plan{}, 0, false
	}
	age = c.epoch - 1 - c.lastPlanEpoch
	if age < 0 {
		age = 0
	}
	return c.lastPlan, age, true
}

// Host supervises a set of cells. Its constructor, New, lives in
// funcopts.go and composes functional options.
type Host struct {
	opts       Options
	cells      []*Cell // indexed by cell ID; nil marks an evicted slot
	totalLinks int
	mu         sync.Mutex // guards admission/eviction; stepping is per-cell
}

// Cells returns the live cells in admission order (evicted slots are
// skipped; IDs therefore need not be contiguous).
func (h *Host) Cells() []*Cell {
	h.mu.Lock()
	defer h.mu.Unlock()
	live := make([]*Cell, 0, len(h.cells))
	for _, c := range h.cells {
		if c != nil {
			live = append(live, c)
		}
	}
	return live
}

// Cell returns the cell with the given ID, or nil if it was never
// admitted or has been evicted.
func (h *Host) Cell(id int) *Cell {
	h.mu.Lock()
	defer h.mu.Unlock()
	if id < 0 || id >= len(h.cells) {
		return nil
	}
	return h.cells[id]
}

// Admit validates a cell spec against the host's admission policy and
// the host configuration, builds the cell, and registers it under the
// next free ID.
func (h *Host) Admit(spec CellSpec) (*Cell, error) {
	return h.admit(spec, -1)
}

// AdmitAt admits a cell under an explicit ID — the recovery path for a
// supervisor re-creating cells from persisted specs, where checkpoint
// filenames embed the IDs a dead process assigned. The ID must not
// collide with a live cell; gaps left by evictions are tolerated and
// preserved.
func (h *Host) AdmitAt(id int, spec CellSpec) (*Cell, error) {
	if id < 0 {
		return nil, fmt.Errorf("%w: negative cell id %d", ErrAdmission, id)
	}
	return h.admit(spec, id)
}

func (h *Host) admit(spec CellSpec, id int) (*Cell, error) {
	if spec.Network == nil {
		return nil, fmt.Errorf("%w: no network", ErrAdmission)
	}
	if err := spec.Network.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrAdmission, err)
	}
	if spec.Faults != nil {
		if err := spec.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrAdmission, err)
		}
	}
	if err := spec.Policy.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrAdmission, err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.opts.MaxCells > 0 && h.liveCellsLocked() >= h.opts.MaxCells {
		h.metric("host_admission_rejected_total")
		return nil, fmt.Errorf("%w: cell cap %d reached", ErrAdmission, h.opts.MaxCells)
	}
	if h.opts.MaxTotalLinks > 0 && h.totalLinks+spec.Network.NumLinks() > h.opts.MaxTotalLinks {
		h.metric("host_admission_rejected_total")
		return nil, fmt.Errorf("%w: link budget %d would be exceeded", ErrAdmission, h.opts.MaxTotalLinks)
	}
	if id < 0 {
		id = len(h.cells)
	}
	if id < len(h.cells) && h.cells[id] != nil {
		return nil, fmt.Errorf("%w: cell id %d already admitted", ErrAdmission, id)
	}

	c := &Cell{id: id, spec: spec, host: h}
	// Default the pricer once, at admission: the pricer survives
	// coordinator rebuilds, so restored and uninterrupted cells price
	// through the same object.
	if c.spec.Solve.Pricer == nil {
		c.spec.Solve.Pricer = core.NewBranchBoundPricer(0)
	}
	if spec.Faults != nil && spec.Faults.Enabled() {
		inj, err := faults.New(*spec.Faults, spec.Network.NumLinks())
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrAdmission, err)
		}
		c.inj = inj
	}
	if h.opts.CheckpointDir != "" {
		c.ckptPath = filepath.Join(h.opts.CheckpointDir, fmt.Sprintf("cell%d.ckpt", c.id))
	}
	if err := c.buildCoordinator(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrAdmission, err)
	}
	for len(h.cells) <= id {
		h.cells = append(h.cells, nil)
	}
	h.cells[id] = c
	h.totalLinks += spec.Network.NumLinks()
	h.gauge("host_cells", float64(h.liveCellsLocked()))
	return c, nil
}

// liveCellsLocked counts non-evicted cells; callers hold h.mu.
func (h *Host) liveCellsLocked() int {
	n := 0
	for _, c := range h.cells {
		if c != nil {
			n++
		}
	}
	return n
}

// Evict removes a cell from supervision, releasing its admission
// budget. The slot (and the ID) is never reused; the cell's in-memory
// state is dropped and its on-disk checkpoint (<dir>/cell<id>.ckpt,
// which the host owns) is removed. Evicting concurrently with a step
// of the same cell is the caller's race to avoid, exactly like Admit
// versus StepAll.
func (h *Host) Evict(id int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if id < 0 || id >= len(h.cells) || h.cells[id] == nil {
		return fmt.Errorf("host: evict: no cell %d", id)
	}
	c := h.cells[id]
	if c.ckptPath != "" {
		os.Remove(c.ckptPath) // best effort: this host never readmits the ID
	}
	h.totalLinks -= c.spec.Network.NumLinks()
	h.cells[id] = nil
	h.metric("host_cells_evicted_total")
	h.gauge("host_cells", float64(h.liveCellsLocked()))
	return nil
}

// Recover restores a freshly admitted cell from its on-disk
// checkpoint, if one exists: the coordinator (demand fallbacks,
// control accounting, epoch counter, warm solver state) and any fault
// injector come back RNG-exactly, so the cell's next epoch is
// byte-identical to the one the dead process would have run. The
// host-side epoch counter resumes from the coordinator's completed-
// epoch count. Returns (false, nil) when the host keeps checkpoints in
// memory or none was written yet; a load, decode or restore failure
// leaves the cell cold-started (the state Admit built), is counted in
// host_cold_restarts_total, and is returned for the caller to surface.
func (h *Host) Recover(c *Cell) (bool, error) {
	if c.ckptPath == "" {
		return false, nil
	}
	data, err := checkpoint.LoadImage(c.ckptPath)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err := h.restore(c, data, err); err != nil {
		return false, err
	}
	c.lastCkpt = data
	c.epoch = c.coord.Epoch()
	return true, nil
}

// buildCoordinator (re)constructs the cell's coordinator from its
// spec — the cold path, used at admission and after a corrupt-
// checkpoint restart. The control channel is rebuilt too: a dead
// process loses its in-memory accounting unless a checkpoint restores
// it.
func (c *Cell) buildCoordinator() error {
	ctrl := c.spec.Control
	if ctrl == nil {
		ctrl = pnc.DefaultControlChannel()
	} else {
		fresh := *ctrl
		fresh.Reset()
		ctrl = &fresh
	}
	coord, err := pnc.NewCoordinator(c.spec.Network, ctrl, c.spec.Solve)
	if err != nil {
		return err
	}
	coord.Policy = c.spec.Policy
	coord.Faults = c.inj
	coord.Tracer = c.host.opts.Tracer
	coord.Metrics = c.host.opts.Metrics
	c.coord = coord
	return nil
}

// FeedFunc supplies one epoch's encoded uplink frames for a cell.
type FeedFunc func(cell *Cell, epoch int64) [][]byte

// StepAll runs one scheduling epoch on every live cell concurrently
// and returns the reports indexed by cell ID (evicted slots yield nil
// entries). Cells are independent; each is stepped by exactly one
// worker. Workers claim cell indices from one counter, and the calling
// goroutine is one of them, so a single worker starts no goroutine.
func (h *Host) StepAll(ctx context.Context, feed FeedFunc) []*EpochReport {
	reports := make([]*EpochReport, len(h.cells))
	workers := h.opts.Workers
	if workers <= 0 || workers > len(h.cells) {
		workers = len(h.cells)
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(h.cells) {
				return
			}
			if c := h.cells[i]; c != nil {
				reports[i] = h.stepCell(ctx, c, feed)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return reports
}

// Step runs one epoch on a single cell.
func (h *Host) Step(ctx context.Context, c *Cell, feed FeedFunc) *EpochReport {
	return h.stepCell(ctx, c, feed)
}

// stepCell is the supervised epoch state machine for one cell.
func (h *Host) stepCell(ctx context.Context, c *Cell, feed FeedFunc) *EpochReport {
	rep := &EpochReport{Cell: c.id, Epoch: c.epoch}
	defer func() { c.epoch++ }()

	// The fault environment advances unconditionally, every epoch, in
	// fixed order — even for skipped or disabled epochs — so two cells
	// with equal injector seeds stay timeline-aligned no matter which
	// faults the host enacts on each (the shadow-cell invariant the
	// chaos soak checks). StepEpoch evolves node up/down state;
	// DrawProcFaults decides this epoch's process-level faults.
	if c.inj != nil {
		c.inj.StepEpoch()
		rep.Injected = c.inj.DrawProcFaults()
	}

	h.metric("host_epochs_total")
	switch {
	case c.disabled:
		rep.Outcome = OutcomeDisabled
		h.serveLastGood(c, rep)
		return rep
	case c.breakerOpen && c.epoch < c.skipUntil:
		rep.Outcome = OutcomeBreakerOpen
		h.metric("host_breaker_skips_total")
		h.ingest(c, feed)
		h.serveLastGood(c, rep)
		return rep
	case c.epoch < c.skipUntil:
		rep.Outcome = OutcomeBackoff
		h.metric("host_backoff_skips_total")
		h.ingest(c, feed)
		h.serveLastGood(c, rep)
		return rep
	}

	h.ingest(c, feed)
	res, err := h.runEpoch(ctx, c, rep.Injected)
	if err != nil {
		h.recordFailure(c, rep, err)
		return rep
	}

	// Success: reset the failure machinery, refresh last-known-good,
	// checkpoint, and (chaos) enact a kill-restore.
	if c.breakerOpen {
		c.breakerOpen = false
		h.event("host.breaker_close", c.id, "")
	}
	c.consecFails = 0
	rep.Outcome = OutcomeOK
	rep.Result = res
	rep.Plan = res.Plan
	c.lastPlan = res.Plan
	c.lastPlanEpoch = c.epoch
	c.hasPlan = true
	if res.TruncatedSolve {
		h.metric("host_watchdog_truncations_total")
	}

	h.checkpointCell(c, rep)
	if rep.Injected.Kill && c.inj != nil {
		h.killRestore(c, rep)
	}
	return rep
}

// ingest feeds the epoch's uplink frames through the lossy path.
// Control loss is not an epoch failure — the coordinator degrades to
// last-known-good demand by design — but it is counted.
func (h *Host) ingest(c *Cell, feed FeedFunc) {
	if feed == nil {
		return
	}
	for _, frame := range feed(c, c.epoch) {
		if err := c.coord.IngestLossy(frame); err != nil {
			h.metric("host_ingest_errors_total")
		}
	}
}

// runEpoch executes one coordinator epoch inside the panic isolation
// boundary, under the watchdog deadline, with any injected faults
// armed.
func (h *Host) runEpoch(ctx context.Context, c *Cell, pf faults.ProcFaults) (res *pnc.EpochResult, err error) {
	ectx := ctx
	if h.opts.Watchdog > 0 {
		var cancel context.CancelFunc
		ectx, cancel = context.WithTimeout(ctx, h.opts.Watchdog)
		defer cancel()
	}
	if pf.Hang {
		// An injected hang is a solve that overran its deadline: the
		// epoch runs under an already-expired one, so the solver takes
		// its anytime-truncation path without waiting out the watchdog.
		var cancel context.CancelFunc
		ectx, cancel = context.WithTimeout(ectx, 0)
		defer cancel()
		h.metric("host_hangs_injected_total")
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%w: cell %d: %v", errPanic, c.id, r)
		}
	}()
	if pf.Panic {
		h.metric("host_panics_injected_total")
		panic("injected cell panic")
	}
	return c.coord.RunEpoch(ectx)
}

// recordFailure applies the restart policy after a failed epoch:
// exponential backoff, breaker after K consecutive failures, permanent
// disable after the restart budget.
func (h *Host) recordFailure(c *Cell, rep *EpochReport, err error) {
	rep.Outcome = OutcomeFailed
	rep.Err = err
	rep.Panicked = rep.Injected.Panic || isPanicError(err)
	c.consecFails++
	c.restarts++
	h.metric("host_epoch_failures_total")
	if rep.Panicked {
		h.metric("host_panics_recovered_total")
		h.event("host.panic", c.id, err.Error())
	} else {
		h.event("host.epoch_failed", c.id, err.Error())
	}

	switch {
	case c.restarts >= h.opts.maxRestarts():
		c.disabled = true
		h.metric("host_cells_disabled_total")
		h.event("host.cell_disabled", c.id, fmt.Sprintf("restart budget %d exhausted", h.opts.maxRestarts()))
	case c.consecFails >= breakerThreshold:
		c.breakerOpen = true
		c.skipUntil = c.epoch + 1 + breakerCooldown
		h.metric("host_breaker_opens_total")
		h.event("host.breaker_open", c.id, fmt.Sprintf("%d consecutive failures", c.consecFails))
	default:
		// Exponential backoff: skip 0, 1, 3, 7, … epochs.
		backoff := int64(1)<<(c.consecFails-1) - 1
		c.skipUntil = c.epoch + 1 + backoff
	}
	h.metric("host_degraded_epochs_total")
	h.serveLastGood(c, rep)
}

// serveLastGood fills a degraded epoch's served plan from the cell's
// last-known-good, with staleness metadata; a cell that never
// completed an epoch has nothing to serve.
func (h *Host) serveLastGood(c *Cell, rep *EpochReport) {
	if !c.hasPlan {
		rep.NoPlan = true
		h.metric("host_no_plan_epochs_total")
		return
	}
	rep.Plan = c.lastPlan
	rep.PlanAge = c.epoch - c.lastPlanEpoch
	h.metric("host_lastgood_served_total")
}

// checkpointCell captures and stores the cell's durable state after a
// successful epoch, routing the image through the injector's
// corruption fault when drawn.
func (h *Host) checkpointCell(c *Cell, rep *EpochReport) {
	snap := checkpoint.Capture(c.coord, c.inj)
	if c.hasPlan {
		snap.Plan = &c.lastPlan
		snap.PlanEpoch = c.lastPlanEpoch
	}
	data, err := snap.Encode()
	if err != nil {
		h.metric("host_checkpoint_errors_total")
		h.event("host.checkpoint_error", c.id, err.Error())
		return
	}
	if rep.Injected.Corrupt && c.inj != nil {
		data = c.inj.CorruptCheckpoint(data)
		h.metric("host_checkpoint_corruptions_total")
	}
	if c.ckptPath != "" {
		if err := checkpoint.StoreImage(c.ckptPath, data); err != nil {
			h.metric("host_checkpoint_errors_total")
			h.event("host.checkpoint_error", c.id, err.Error())
			return
		}
	}
	c.lastCkpt = data
	h.metric("host_checkpoints_written_total")
}

// killRestore enacts the kill-and-restore chaos fault: the cell's
// process dies after a completed epoch and comes back from its latest
// checkpoint. A good checkpoint restores the coordinator AND the
// injector RNG-exactly, so the restart is a timeline no-op (the
// byte-identical invariant); a corrupt one is detected and the cell
// rebuilds cold — losing its warm pool but keeping the live injector,
// since the fault environment survives a process death even when the
// state does not.
func (h *Host) killRestore(c *Cell, rep *EpochReport) {
	var err error
	data := c.lastCkpt
	if c.ckptPath != "" {
		data, err = checkpoint.LoadImage(c.ckptPath)
	}
	if err := h.restore(c, data, err); err != nil {
		rep.ColdRestarted = true
		if berr := c.buildCoordinator(); berr != nil {
			// The spec built once already; a rebuild failure means the
			// network was mutated out from under the host. Disable.
			c.disabled = true
			h.metric("host_cells_disabled_total")
			h.event("host.cell_disabled", c.id, berr.Error())
		}
		return
	}
	rep.Restored = true
}

// restore decodes a checkpoint image — or takes the error loading it
// — and rebuilds the cell's coordinator and injector from it, counting
// the outcome: a restore in host_restores_total, or — for an image
// that failed to load, a corrupt one, one of another format version,
// or one that does not fit the cell — a cold restart in
// host_cold_restarts_total, with the error returned.
func (h *Host) restore(c *Cell, data []byte, err error) error {
	var snap *checkpoint.Snapshot
	if err == nil {
		snap, err = checkpoint.Decode(data)
	}
	if err == nil {
		err = h.restoreFromSnapshot(c, snap)
	}
	if err != nil {
		h.metric("host_cold_restarts_total")
		h.event("host.cold_restart", c.id, err.Error())
		return err
	}
	h.metric("host_restores_total")
	h.event("host.restore", c.id, "")
	return nil
}

// restoreFromSnapshot rebuilds the cell's coordinator and injector
// from a decoded checkpoint.
func (h *Host) restoreFromSnapshot(c *Cell, snap *checkpoint.Snapshot) error {
	if err := c.buildCoordinator(); err != nil {
		return err
	}
	if err := snap.Restore(c.coord); err != nil {
		return err
	}
	inj, err := snap.RestoreInjector()
	if err != nil {
		return err
	}
	if inj != nil {
		c.inj = inj
		c.coord.Faults = inj
	}
	if snap.Plan != nil {
		c.lastPlan = *snap.Plan
		c.lastPlanEpoch = snap.PlanEpoch
		c.hasPlan = true
	}
	return nil
}

func isPanicError(err error) bool {
	return errors.Is(err, errPanic)
}

// errPanic tags errors synthesized from recovered panics so the
// restart policy can tell a crash from a solve error.
var errPanic = errors.New("host: cell panicked")

// metric bumps a host counter (free with no registry).
func (h *Host) metric(name string) {
	if h.opts.Metrics != nil {
		h.opts.Metrics.Counter(name).Inc()
	}
}

func (h *Host) gauge(name string, v float64) {
	if h.opts.Metrics != nil {
		h.opts.Metrics.Gauge(name).Set(v)
	}
}

// event emits a host span event (free with no tracer).
func (h *Host) event(name string, cell int, msg string) {
	span := h.opts.Tracer.StartSpan(name)
	span.Emit(obs.Event{Name: name, N: float64(cell), Msg: msg})
	span.End()
}

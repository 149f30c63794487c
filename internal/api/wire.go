// Package api defines the versioned wire contract of the pncd
// scheduling server: request/response types for cells, demands, CSI,
// plans, and epoch reports, a stable mapping from the repo's error
// taxonomy to HTTP statuses, and a small Client. Both internal/pncd
// and every caller (tests, examples, operators with curl) speak only
// these types — the server's internal structs never leak onto the
// wire.
//
// Versioning: every resource path is prefixed with the API version
// ("/v1/cells/…"). Wire types are append-only within a version — new
// optional fields may be added, existing fields never change meaning
// or type. A breaking change mints "/v2" and a parallel type set; the
// server may serve both during migration. Floats ride JSON in Go's
// shortest round-tripping decimal form, so a plan fetched over the
// wire decodes bit-identical to the solver's output — byte-identity
// of recovered state is testable across the API boundary.
//
// Codec: every response is encoded by encoding/json. The plan-bearing
// responses (PlanResponse, EpochReport, StepResponse) decode by hand,
// without reflection (codec.go): the decoder parses the canonical form
// in one pass and hands any other input to encoding/json, so it
// decodes exactly what encoding/json would. Every other wire type,
// requests included, goes through encoding/json both ways.
package api

import (
	"fmt"
	"time"

	"mmwave/internal/channel"
	"mmwave/internal/core"
	"mmwave/internal/faults"
	"mmwave/internal/host"
	"mmwave/internal/netmodel"
	"mmwave/internal/pnc"
	"mmwave/internal/schedule"
	"mmwave/internal/video"
)

// Version is the wire version this package defines.
const Version = "v1"

// PathPrefix prefixes every versioned resource path.
const PathPrefix = "/" + Version

// Link is one directional mmWave link (wire form). Geometry is not
// carried: gains are already drawn, and the scheduler consumes only
// node identities (half-duplex conflicts) and the gain cube.
type Link struct {
	TX int `json:"tx"`
	RX int `json:"rx"`
}

// Network is the full problem instance in wire form — a lossless
// mirror of netmodel.Network minus geometry.
type Network struct {
	Links        []Link        `json:"links"`
	NumChannels  int           `json:"num_channels"`
	Direct       [][]float64   `json:"direct"` // Direct[l][k] = H_l^k
	Cross        [][][]float64 `json:"cross"`  // Cross[l'][l][k] = H_{l'l}^k
	Noise        []float64     `json:"noise"`
	PMax         float64       `json:"p_max"`
	RateGammas   []float64     `json:"rate_gammas"`
	RateRates    []float64     `json:"rate_rates"`
	BandwidthHz  float64       `json:"bandwidth_hz"`
	Interference string        `json:"interference"` // "per-channel" | "global"
	MultiChannel bool          `json:"multi_channel,omitempty"`
	// TrafficClasses is the number of prioritized traffic classes the
	// cell schedules. Zero (omitted) keeps the paper's two-layer HP/LP
	// pair, so pre-existing clients are untouched.
	TrafficClasses int `json:"traffic_classes,omitempty"`
}

// NetworkFromModel converts a model network to wire form.
func NetworkFromModel(nw *netmodel.Network) Network {
	links := make([]Link, len(nw.Links))
	for i, l := range nw.Links {
		links[i] = Link{TX: l.TXNode, RX: l.RXNode}
	}
	interference := "per-channel"
	if nw.Interference == netmodel.Global {
		interference = "global"
	}
	return Network{
		Links:          links,
		NumChannels:    nw.NumChannels,
		Direct:         nw.Gains.Direct,
		Cross:          nw.Gains.Cross,
		Noise:          nw.Noise,
		PMax:           nw.PMax,
		RateGammas:     nw.Rates.Gammas,
		RateRates:      nw.Rates.Rates,
		BandwidthHz:    nw.BandwidthHz,
		Interference:   interference,
		MultiChannel:   nw.MultiChannel,
		TrafficClasses: nw.NumTrafficClasses,
	}
}

// ToModel converts the wire network back to the model form and
// validates it. The round trip NetworkFromModel→ToModel preserves the
// network fingerprint: every field netmodel.Network.Fingerprint hashes
// is carried losslessly.
func (n Network) ToModel() (*netmodel.Network, error) {
	links := make([]netmodel.Link, len(n.Links))
	for i, l := range n.Links {
		links[i] = netmodel.Link{TXNode: l.TX, RXNode: l.RX}
	}
	var interference netmodel.InterferenceModel
	switch n.Interference {
	case "", "per-channel":
		interference = netmodel.PerChannel
	case "global":
		interference = netmodel.Global
	default:
		return nil, &Error{Code: CodeBadRequest,
			Message: fmt.Sprintf("unknown interference model %q", n.Interference)}
	}
	nw := &netmodel.Network{
		Links:       links,
		NumChannels: n.NumChannels,
		Gains:       &channel.Gains{Direct: n.Direct, Cross: n.Cross},
		Noise:       n.Noise,
		PMax:        n.PMax,
		Rates: netmodel.RateTable{
			Gammas: n.RateGammas,
			Rates:  n.RateRates,
		},
		BandwidthHz:       n.BandwidthHz,
		Interference:      interference,
		MultiChannel:      n.MultiChannel,
		NumTrafficClasses: n.TrafficClasses,
	}
	if err := nw.Validate(); err != nil {
		return nil, &Error{Code: CodeBadRequest, Message: err.Error()}
	}
	return nw, nil
}

// Instance asks the server to draw a problem instance itself from the
// repo's experiment generator, deterministically from the seed — the
// cheap way to create many cells without shipping gain cubes.
type Instance struct {
	Links       int     `json:"links"`
	Channels    int     `json:"channels"`
	Seed        int64   `json:"seed"`
	DemandScale float64 `json:"demand_scale,omitempty"` // 0 means 1
	// TrafficClasses widens the drawn instance from the default two
	// classes; the generator splits each link's demand across classes.
	TrafficClasses int `json:"traffic_classes,omitempty"`
}

// Control configures the cell's control channel (nil keeps the
// WiFi-like default: 54 Mb/s, 28-byte per-message overhead).
type Control struct {
	BitrateBps         float64 `json:"bitrate_bps"`
	PerMsgOverheadBits float64 `json:"per_msg_overhead_bits"`
}

// Solve carries the per-epoch solver knobs a tenant may set. Zero
// values keep package defaults.
type Solve struct {
	MaxIterations int     `json:"max_iterations,omitempty"`
	Tolerance     float64 `json:"tolerance,omitempty"`
	GapTarget     float64 `json:"gap_target,omitempty"`
	PricerBudget  int     `json:"pricer_budget,omitempty"`
}

// ToOptions lowers the wire solve spec onto core.Options. Zero and
// negative values keep core's defaults; a positive pricer_budget
// builds the default pricer at that budget.
func (s Solve) ToOptions() core.Options {
	o := core.Options{
		MaxIterations: max(s.MaxIterations, 0),
		Tolerance:     max(s.Tolerance, 0),
		GapTarget:     max(s.GapTarget, 0),
	}
	if s.PricerBudget > 0 {
		o.Pricer = core.NewBranchBoundPricer(s.PricerBudget)
	}
	return o
}

// Policy is the wire form of pnc.DegradePolicy. SolveBudgetMs uses
// milliseconds (a float) instead of Go duration syntax so non-Go
// clients can write it.
type Policy struct {
	MaxRetries     int     `json:"max_retries,omitempty"`
	RetryBackoff   float64 `json:"retry_backoff,omitempty"` // seconds
	StalenessLimit int     `json:"staleness_limit,omitempty"`
	StalenessDecay float64 `json:"staleness_decay,omitempty"`
	// StalenessDecayByClass overrides StalenessDecay per traffic class
	// (entry c applies to class c; missing entries fall back to the
	// scalar decay).
	StalenessDecayByClass []float64 `json:"staleness_decay_by_class,omitempty"`
	EpochBudget           float64   `json:"epoch_budget,omitempty"` // seconds
	SolveBudgetMs         float64   `json:"solve_budget_ms,omitempty"`
}

// ToModel lowers the wire policy onto pnc.DegradePolicy.
func (p Policy) ToModel() pnc.DegradePolicy {
	return pnc.DegradePolicy{
		MaxRetries:            p.MaxRetries,
		RetryBackoff:          p.RetryBackoff,
		StalenessLimit:        p.StalenessLimit,
		StalenessDecay:        p.StalenessDecay,
		StalenessDecayByClass: append([]float64(nil), p.StalenessDecayByClass...),
		EpochBudget:           p.EpochBudget,
		SolveBudget:           time.Duration(p.SolveBudgetMs * float64(time.Millisecond)),
	}
}

// Faults mirrors faults.Config on the wire (chaos testing through the
// API; all probabilities per epoch). The retired blockage_rate and
// blockage_slots keys are still accepted and ignored.
type Faults struct {
	CtrlLoss    float64 `json:"ctrl_loss,omitempty"`
	CtrlCorrupt float64 `json:"ctrl_corrupt,omitempty"`
	CtrlDelay   float64 `json:"ctrl_delay,omitempty"`
	StaleCSI    float64 `json:"stale_csi,omitempty"`
	NodeDropout float64 `json:"node_dropout,omitempty"`
	NodeRecover float64 `json:"node_recover,omitempty"`
	CellPanic   float64 `json:"cell_panic,omitempty"`
	SolveHang   float64 `json:"solve_hang,omitempty"`
	KillRestore float64 `json:"kill_restore,omitempty"`
	CkptCorrupt float64 `json:"ckpt_corrupt,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
}

// ToModel lowers the wire fault spec onto faults.Config.
func (f Faults) ToModel() faults.Config {
	return faults.Config{
		CtrlLoss:    f.CtrlLoss,
		CtrlCorrupt: f.CtrlCorrupt,
		CtrlDelay:   f.CtrlDelay,
		StaleCSI:    f.StaleCSI,
		NodeDropout: f.NodeDropout,
		NodeRecover: f.NodeRecover,
		CellPanic:   f.CellPanic,
		SolveHang:   f.SolveHang,
		KillRestore: f.KillRestore,
		CkptCorrupt: f.CkptCorrupt,
		Seed:        f.Seed,
	}
}

// CellSpec is the create-cell request body. Exactly one of Network
// (explicit instance) or Instance (server-side draw) must be set.
type CellSpec struct {
	Network  *Network  `json:"network,omitempty"`
	Instance *Instance `json:"instance,omitempty"`
	Control  *Control  `json:"control,omitempty"`
	Solve    *Solve    `json:"solve,omitempty"`
	Policy   *Policy   `json:"policy,omitempty"`
	Faults   *Faults   `json:"faults,omitempty"`
}

// Demand is one link's per-epoch traffic report (wire form of
// pnc.DemandReport). The classic two-class form writes hp/lp only; an
// N-class report carries the full class vector in Classes (index 0 the
// highest-priority class) with hp/lp kept as the degenerate legacy
// view: hp mirrors class 0 and lp the bits of every lower class, so a
// two-class reader still sees the right totals. When Classes is set it
// wins; otherwise hp/lp are the two classes.
type Demand struct {
	Link    int       `json:"link"`
	HPBits  float64   `json:"hp"` // high-priority bits (class 0)
	LPBits  float64   `json:"lp"` // low-priority bits (classes ≥ 1)
	Classes []float64 `json:"classes,omitempty"`
}

// DemandFromModel converts a class-indexed demand vector to wire form.
func DemandFromModel(link int, d video.Demand) Demand {
	out := Demand{Link: link, HPBits: d.At(0), LPBits: d.Total() - d.At(0)}
	if d.NumClasses() > 2 {
		out.Classes = append([]float64(nil), d...)
	}
	return out
}

// ToModel returns the class-indexed demand vector the wire form names.
func (d Demand) ToModel() video.Demand {
	if len(d.Classes) > 0 {
		return append(video.Demand(nil), d.Classes...)
	}
	return video.TwoClass(d.HPBits, d.LPBits)
}

// Frame encodes the demand as the binary uplink frame the coordinator
// ingests — the same bytes an in-process node would send, so epochs
// driven over HTTP are byte-identical to in-process runs.
func (d Demand) Frame() ([]byte, error) {
	if d.Link < 0 || d.Link > 0xffff {
		return nil, &Error{Code: CodeBadRequest,
			Message: fmt.Sprintf("demand link %d out of range", d.Link)}
	}
	r := pnc.DemandReport{Link: uint16(d.Link), Demand: d.ToModel()}
	b, err := r.MarshalBinary()
	if err != nil {
		return nil, &Error{Code: CodeBadRequest, Message: err.Error()}
	}
	return b, nil
}

// CSI is one link's channel-state update (wire form of
// pnc.ChannelUpdate): the direct gain on every channel.
type CSI struct {
	Link  int       `json:"link"`
	Gains []float64 `json:"gains"`
}

// Frame encodes the update as the binary uplink frame.
func (c CSI) Frame() ([]byte, error) {
	if c.Link < 0 || c.Link > 0xffff {
		return nil, &Error{Code: CodeBadRequest,
			Message: fmt.Sprintf("csi link %d out of range", c.Link)}
	}
	u := pnc.ChannelUpdate{Link: uint16(c.Link), Gains: c.Gains}
	b, err := u.MarshalBinary()
	if err != nil {
		return nil, &Error{Code: CodeBadRequest, Message: err.Error()}
	}
	return b, nil
}

// Assignment is one link activation inside a schedule (wire form of
// schedule.Assignment).
type Assignment struct {
	Link    int     `json:"link"`
	Channel int     `json:"channel"`
	Level   int     `json:"level"`
	Layer   int     `json:"layer"`
	Power   float64 `json:"power"`
}

// Plan is the wire form of core.Plan: the epoch's schedules with their
// air-time shares.
type Plan struct {
	Schedules [][]Assignment `json:"schedules"`
	Tau       []float64      `json:"tau"`
	Objective float64        `json:"objective"`
}

// PlanFromModel converts a solver plan to wire form.
func PlanFromModel(p core.Plan) Plan {
	scheds := make([][]Assignment, len(p.Schedules))
	for i, s := range p.Schedules {
		as := make([]Assignment, len(s.Assignments))
		for j, a := range s.Assignments {
			as[j] = Assignment{
				Link:    a.Link,
				Channel: a.Channel,
				Level:   a.Level,
				Layer:   int(a.Layer),
				Power:   a.Power,
			}
		}
		scheds[i] = as
	}
	return Plan{Schedules: scheds, Tau: p.Tau, Objective: p.Objective}
}

// ToModel converts the wire plan back to the solver form.
func (p Plan) ToModel() core.Plan {
	scheds := make([]*schedule.Schedule, len(p.Schedules))
	for i, as := range p.Schedules {
		s := &schedule.Schedule{Assignments: make([]schedule.Assignment, len(as))}
		for j, a := range as {
			s.Assignments[j] = schedule.Assignment{
				Link:    a.Link,
				Channel: a.Channel,
				Level:   a.Level,
				Layer:   schedule.Layer(a.Layer),
				Power:   a.Power,
			}
		}
		scheds[i] = s
	}
	return core.Plan{Schedules: scheds, Tau: p.Tau, Objective: p.Objective}
}

// PlanResponse serves a cell's current plan: the last-known-good plan
// and its age in epochs (0 = produced by the most recent step). An
// aged plan is exactly what the host served the data plane during
// degradation.
type PlanResponse struct {
	Cell    int   `json:"cell"`
	Epoch   int64 `json:"epoch"`
	Plan    Plan  `json:"plan"`
	PlanAge int64 `json:"plan_age"`
}

// EpochResult is the wire form of the coordinator's per-epoch
// telemetry (pnc.EpochResult). Grants carries the encoded downlink
// grant frames (base64 in JSON) so clients can decode and verify the
// schedule exactly as a node radio would.
type EpochResult struct {
	ControlSeconds  float64  `json:"control_seconds"`
	ControlMessages int64    `json:"control_messages"`
	Grants          [][]byte `json:"grants,omitempty"`
	Demands         []Demand `json:"demands,omitempty"`
	Degraded        bool     `json:"degraded,omitempty"`
	ShedLPBits      float64  `json:"shed_lp_bits,omitempty"`
	ShedHPBits      float64  `json:"shed_hp_bits,omitempty"`
	// ShedByClass is the per-class shed accounting, emitted only for
	// cells wider than the classic two classes (where shed_hp_bits /
	// shed_lp_bits already carry everything).
	ShedByClass    []float64 `json:"shed_by_class,omitempty"`
	StaleLinks     []int     `json:"stale_links,omitempty"`
	ExpiredLinks   []int     `json:"expired_links,omitempty"`
	DeferredLinks  []int     `json:"deferred_links,omitempty"`
	DroppedGrants  int       `json:"dropped_grants,omitempty"`
	Retries        int64     `json:"retries,omitempty"`
	LostFrames     int64     `json:"lost_frames,omitempty"`
	BackoffSeconds float64   `json:"backoff_seconds,omitempty"`
	TruncatedSolve bool      `json:"truncated_solve,omitempty"`
	WarmSolve      bool      `json:"warm_solve,omitempty"`

	// Column-generation telemetry for the epoch's P1 solve — additive
	// v1 fields (omitempty keeps pre-existing decoders and goldens
	// byte-compatible), zero when the epoch served a cached plan and
	// ran no solve. The retired cg_stab_rounds, cg_heuristic_hits and
	// cg_exact_fallbacks keys are still accepted and ignored.
	CGIterations   int `json:"cg_iterations,omitempty"`
	CGColumnsAdded int `json:"cg_columns_added,omitempty"`
}

// EpochReport is the wire form of host.EpochReport: what one cell did
// in one epoch, including the plan actually served to the data plane.
type EpochReport struct {
	Cell          int          `json:"cell"`
	Epoch         int64        `json:"epoch"`
	Outcome       string       `json:"outcome"`
	Error         string       `json:"error,omitempty"`
	Plan          Plan         `json:"plan"`
	PlanAge       int64        `json:"plan_age"`
	NoPlan        bool         `json:"no_plan,omitempty"`
	Panicked      bool         `json:"panicked,omitempty"`
	Restored      bool         `json:"restored,omitempty"`
	ColdRestarted bool         `json:"cold_restarted,omitempty"`
	Result        *EpochResult `json:"result,omitempty"`
}

// ReportFromHost converts a host epoch report to wire form.
func ReportFromHost(rep *host.EpochReport) EpochReport {
	out := EpochReport{
		Cell:          rep.Cell,
		Epoch:         rep.Epoch,
		Outcome:       rep.Outcome.String(),
		Plan:          PlanFromModel(rep.Plan),
		PlanAge:       rep.PlanAge,
		NoPlan:        rep.NoPlan,
		Panicked:      rep.Panicked,
		Restored:      rep.Restored,
		ColdRestarted: rep.ColdRestarted,
	}
	if rep.Err != nil {
		out.Error = rep.Err.Error()
	}
	if r := rep.Result; r != nil {
		wire := &EpochResult{
			ControlSeconds:  r.ControlSeconds,
			ControlMessages: r.ControlMessages,
			Grants:          r.Grants,
			Degraded:        r.Degraded,
			ShedLPBits:      r.ShedLPBits,
			ShedHPBits:      r.ShedHPBits,
			StaleLinks:      r.StaleLinks,
			ExpiredLinks:    r.ExpiredLinks,
			DeferredLinks:   r.DeferredLinks,
			DroppedGrants:   r.DroppedGrants,
			Retries:         r.Retries,
			LostFrames:      r.LostFrames,
			BackoffSeconds:  r.BackoffSeconds,
			TruncatedSolve:  r.TruncatedSolve,
			WarmSolve:       r.WarmSolve,
		}
		if sr := r.Solver; sr != nil {
			wire.CGIterations = sr.Rounds
			wire.CGColumnsAdded = sr.ColumnsAdded
		}
		if len(r.ShedByClass) > 2 {
			wire.ShedByClass = append([]float64(nil), r.ShedByClass...)
		}
		for l, d := range r.Demands {
			wire.Demands = append(wire.Demands, DemandFromModel(l, d))
		}
		out.Result = wire
	}
	return out
}

// CellStatus describes one hosted cell.
type CellStatus struct {
	Cell     int    `json:"cell"`
	Epoch    int64  `json:"epoch"`
	Links    int    `json:"links"`
	Channels int    `json:"channels"`
	Outcome  string `json:"state"` // "live" | "degraded" | "disabled"
	Restarts int    `json:"restarts,omitempty"`
	HasPlan  bool   `json:"has_plan"`
	PlanAge  int64  `json:"plan_age,omitempty"`
	Restored bool   `json:"restored,omitempty"` // recovered from checkpoint at server start
}

// Health is the /healthz body.
type Health struct {
	Status string `json:"status"` // "ok" | "draining"
	Cells  int    `json:"cells"`
	Epoch  int64  `json:"epoch"` // server-wide batch-step counter
}

// StepResponse is the body of a batch step: one report per live cell.
type StepResponse struct {
	Reports []EpochReport `json:"reports"`
}

// CreateCellResponse returns the admitted cell's identity.
type CreateCellResponse struct {
	Cell CellStatus `json:"cell"`
}

// SubmitResponse acknowledges ingested demand/CSI frames.
type SubmitResponse struct {
	Accepted int `json:"accepted"`
}

// Package pnc simulates the control plane of §II of the paper: a
// PicoNet Coordinator exchanges messages with the link nodes over a
// low-frequency public control channel (e.g. WiFi). Per scheduling
// epoch (one GOP period), nodes report their traffic demands and
// channel-state updates, the coordinator solves problem P1 with the
// column-generation core, and broadcasts the channel/time-slot/power
// grants. The package accounts for the control-channel airtime these
// exchanges consume, so experiments can report control overhead
// alongside data-plane scheduling time.
package pnc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"mmwave/internal/core"
	"mmwave/internal/faults"
	"mmwave/internal/netmodel"
	"mmwave/internal/obs"
	"mmwave/internal/schedule"
	"mmwave/internal/video"
)

// MsgType tags control-channel messages.
type MsgType uint8

// Control-plane message types.
const (
	MsgDemandReport  MsgType = iota + 1 // node → PNC: next period's two-class demand
	MsgChannelUpdate                    // node → PNC: refreshed direct gains
	MsgScheduleGrant                    // PNC → nodes: one schedule + its duration
	MsgDemandReportN                    // node → PNC: N-class demand vector (count-prefixed)
)

// String implements fmt.Stringer.
func (m MsgType) String() string {
	switch m {
	case MsgDemandReport:
		return "demand-report"
	case MsgChannelUpdate:
		return "channel-update"
	case MsgScheduleGrant:
		return "schedule-grant"
	case MsgDemandReportN:
		return "demand-report-n"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(m))
	}
}

// Wire format: every message starts with a 1-byte type and a 2-byte
// little-endian payload length, followed by the payload. Numbers are
// little-endian; float64s are IEEE-754 bits.
const headerLen = 3

// DemandReport is a node's per-epoch traffic declaration.
//
// On the wire, demands of at most two classes ride the frozen
// MsgDemandReport frame (link u16 + two f64s — byte-identical to the
// historical HP/LP format); wider vectors use MsgDemandReportN with an
// explicit class count. UnmarshalBinary accepts either.
type DemandReport struct {
	Link   uint16
	Demand video.Demand
}

// maxWireClasses bounds the class count a demand report may carry.
const maxWireClasses = 255

// MarshalBinary implements encoding.BinaryMarshaler.
func (r DemandReport) MarshalBinary() ([]byte, error) {
	if !r.Demand.Valid() {
		return nil, fmt.Errorf("pnc: invalid demand in report for link %d", r.Link)
	}
	if nc := r.Demand.NumClasses(); nc > 2 {
		if nc > maxWireClasses {
			return nil, fmt.Errorf("pnc: %d demand classes exceed the wire limit", nc)
		}
		n := 2 + 1 + 8*nc
		buf := make([]byte, headerLen+n)
		buf[0] = byte(MsgDemandReportN)
		binary.LittleEndian.PutUint16(buf[1:], uint16(n))
		binary.LittleEndian.PutUint16(buf[headerLen:], r.Link)
		buf[headerLen+2] = byte(nc)
		for c := 0; c < nc; c++ {
			binary.LittleEndian.PutUint64(buf[headerLen+3+8*c:], math.Float64bits(r.Demand[c]))
		}
		return buf, nil
	}
	buf := make([]byte, headerLen+2+16)
	buf[0] = byte(MsgDemandReport)
	binary.LittleEndian.PutUint16(buf[1:], uint16(2+16))
	binary.LittleEndian.PutUint16(buf[headerLen:], r.Link)
	binary.LittleEndian.PutUint64(buf[headerLen+2:], math.Float64bits(r.Demand.At(0)))
	binary.LittleEndian.PutUint64(buf[headerLen+10:], math.Float64bits(r.Demand.At(1)))
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (r *DemandReport) UnmarshalBinary(data []byte) error {
	if len(data) >= 1 && MsgType(data[0]) == MsgDemandReportN {
		if len(data) < headerLen+3 {
			return errors.New("pnc: demand report too short")
		}
		payload, err := checkHeader(data, MsgDemandReportN, len(data)-headerLen)
		if err != nil {
			return err
		}
		r.Link = binary.LittleEndian.Uint16(payload)
		nc := int(payload[2])
		if nc <= 2 {
			// Two classes or fewer ride the frozen MsgDemandReport frame;
			// accepting them here would give one report two encodings.
			return fmt.Errorf("pnc: %d-class demand report in a multi-class frame", nc)
		}
		if len(payload) != 3+8*nc {
			return fmt.Errorf("pnc: demand report payload %d bytes, want %d", len(payload), 3+8*nc)
		}
		r.Demand = make(video.Demand, nc)
		for c := range r.Demand {
			r.Demand[c] = math.Float64frombits(binary.LittleEndian.Uint64(payload[3+8*c:]))
		}
		if !r.Demand.Valid() {
			return errors.New("pnc: demand report carries invalid demand")
		}
		return nil
	}
	payload, err := checkHeader(data, MsgDemandReport, 2+16)
	if err != nil {
		return err
	}
	r.Link = binary.LittleEndian.Uint16(payload)
	r.Demand = video.TwoClass(
		math.Float64frombits(binary.LittleEndian.Uint64(payload[2:])),
		math.Float64frombits(binary.LittleEndian.Uint64(payload[10:])),
	)
	if !r.Demand.Valid() {
		return errors.New("pnc: demand report carries invalid demand")
	}
	return nil
}

// ChannelUpdate is a node's refreshed per-channel direct gain vector.
type ChannelUpdate struct {
	Link  uint16
	Gains []float64 // H_l^k for each channel k
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (u ChannelUpdate) MarshalBinary() ([]byte, error) {
	if len(u.Gains) > 255 {
		return nil, fmt.Errorf("pnc: %d channels exceed the wire limit", len(u.Gains))
	}
	n := 2 + 1 + 8*len(u.Gains)
	buf := make([]byte, headerLen+n)
	buf[0] = byte(MsgChannelUpdate)
	binary.LittleEndian.PutUint16(buf[1:], uint16(n))
	binary.LittleEndian.PutUint16(buf[headerLen:], u.Link)
	buf[headerLen+2] = byte(len(u.Gains))
	for i, g := range u.Gains {
		binary.LittleEndian.PutUint64(buf[headerLen+3+8*i:], math.Float64bits(g))
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (u *ChannelUpdate) UnmarshalBinary(data []byte) error {
	if len(data) < headerLen+3 {
		return errors.New("pnc: channel update too short")
	}
	payload, err := checkHeader(data, MsgChannelUpdate, len(data)-headerLen)
	if err != nil {
		return err
	}
	u.Link = binary.LittleEndian.Uint16(payload)
	k := int(payload[2])
	if len(payload) != 3+8*k {
		return fmt.Errorf("pnc: channel update payload %d bytes, want %d", len(payload), 3+8*k)
	}
	u.Gains = make([]float64, k)
	for i := range u.Gains {
		u.Gains[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[3+8*i:]))
	}
	return nil
}

// ScheduleGrant carries one feasible schedule and its allotted time.
type ScheduleGrant struct {
	Seconds float64 // τ^s
	Entries []schedule.Assignment
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (g ScheduleGrant) MarshalBinary() ([]byte, error) {
	if len(g.Entries) > 1024 {
		return nil, fmt.Errorf("pnc: %d grant entries exceed the wire limit", len(g.Entries))
	}
	const entryLen = 2 + 1 + 1 + 1 + 8 // link, channel, level, layer, power
	n := 8 + 2 + entryLen*len(g.Entries)
	buf := make([]byte, headerLen+n)
	buf[0] = byte(MsgScheduleGrant)
	binary.LittleEndian.PutUint16(buf[1:], uint16(n))
	binary.LittleEndian.PutUint64(buf[headerLen:], math.Float64bits(g.Seconds))
	binary.LittleEndian.PutUint16(buf[headerLen+8:], uint16(len(g.Entries)))
	off := headerLen + 10
	for _, a := range g.Entries {
		if a.Channel > 255 || a.Level > 255 || a.Link > 65535 {
			return nil, fmt.Errorf("pnc: assignment out of wire range: %+v", a)
		}
		binary.LittleEndian.PutUint16(buf[off:], uint16(a.Link))
		buf[off+2] = byte(a.Channel)
		buf[off+3] = byte(a.Level)
		buf[off+4] = byte(a.Layer)
		binary.LittleEndian.PutUint64(buf[off+5:], math.Float64bits(a.Power))
		off += entryLen
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (g *ScheduleGrant) UnmarshalBinary(data []byte) error {
	payload, err := checkHeader(data, MsgScheduleGrant, len(data)-headerLen)
	if err != nil {
		return err
	}
	if len(payload) < 10 {
		return errors.New("pnc: schedule grant too short")
	}
	g.Seconds = math.Float64frombits(binary.LittleEndian.Uint64(payload))
	n := int(binary.LittleEndian.Uint16(payload[8:]))
	const entryLen = 13
	if len(payload) != 10+entryLen*n {
		return fmt.Errorf("pnc: grant payload %d bytes, want %d", len(payload), 10+entryLen*n)
	}
	g.Entries = make([]schedule.Assignment, n)
	for i := range g.Entries {
		off := 10 + entryLen*i
		g.Entries[i] = schedule.Assignment{
			Link:    int(binary.LittleEndian.Uint16(payload[off:])),
			Channel: int(payload[off+2]),
			Level:   int(payload[off+3]),
			Layer:   schedule.Layer(payload[off+4]),
			Power:   math.Float64frombits(binary.LittleEndian.Uint64(payload[off+5:])),
		}
	}
	return nil
}

// checkHeader validates a message's type byte and payload length and
// returns the payload slice.
func checkHeader(data []byte, want MsgType, wantLen int) ([]byte, error) {
	if len(data) < headerLen {
		return nil, errors.New("pnc: message shorter than header")
	}
	if MsgType(data[0]) != want {
		return nil, fmt.Errorf("pnc: message type %v, want %v", MsgType(data[0]), want)
	}
	n := int(binary.LittleEndian.Uint16(data[1:]))
	if n != wantLen || len(data) != headerLen+n {
		return nil, fmt.Errorf("pnc: payload length %d (frame %d), want %d", n, len(data), wantLen)
	}
	return data[headerLen:], nil
}

// ControlChannel models the shared low-frequency control medium: a
// fixed bitrate plus fixed per-message overhead (preamble, MAC). All
// control traffic is serialized on it, so airtime adds up linearly.
type ControlChannel struct {
	BitrateBps         float64 // e.g. 54e6 for WiFi OFDM
	PerMsgOverheadBits float64 // preamble + MAC header + ACK, in bit-times

	bitsSent int64
	msgsSent int64
	airtime  float64
}

// DefaultControlChannel returns a WiFi-like control channel: 54 Mb/s
// with 28 bytes of per-message MAC overhead.
func DefaultControlChannel() *ControlChannel {
	return &ControlChannel{BitrateBps: 54e6, PerMsgOverheadBits: 28 * 8}
}

// Send accounts one message of the given encoded length.
func (c *ControlChannel) Send(encoded []byte) error {
	if c.BitrateBps <= 0 {
		return errors.New("pnc: control channel bitrate must be positive")
	}
	bits := float64(len(encoded))*8 + c.PerMsgOverheadBits
	c.bitsSent += int64(len(encoded)) * 8
	c.msgsSent++
	c.airtime += bits / c.BitrateBps
	return nil
}

// Airtime returns the total control airtime consumed, in seconds.
func (c *ControlChannel) Airtime() float64 { return c.airtime }

// Messages returns the number of messages sent.
func (c *ControlChannel) Messages() int64 { return c.msgsSent }

// Reset clears the accounting.
func (c *ControlChannel) Reset() {
	c.bitsSent, c.msgsSent, c.airtime = 0, 0, 0
}

// Coordinator is the PNC: it ingests per-epoch reports, re-solves P1,
// and emits grants, accounting every byte on the control channel.
type Coordinator struct {
	Network *netmodel.Network
	Control *ControlChannel
	Solve   core.Options // solver options per epoch

	// Policy governs graceful degradation under faults: bounded retry
	// with backoff, last-known-good fallback with staleness decay, and
	// LP-before-HP load shedding against the epoch budget. The zero
	// value disables every degradation path, reproducing the original
	// fail-hard behavior.
	Policy DegradePolicy
	// Faults, when non-nil, routes control frames through the fault
	// injector (IngestLossy, grant delivery). Nil means a perfect
	// control channel.
	Faults *faults.Injector

	// Tracer, when non-nil, wraps every epoch in a "pnc.epoch" span and
	// emits events for shed decisions, staleness fallbacks, and dropped
	// grants; it is also threaded into the per-epoch solves unless
	// Solve.Tracer is set. Nil is the free no-op default.
	Tracer *obs.Tracer
	// Metrics, when non-nil, accumulates epoch counters (retries, lost
	// frames, shed bits, truncated solves, …) under the "pnc" prefix and
	// receives the solver's "core_*" stats via the per-epoch options.
	Metrics *obs.Registry

	demands []video.Demand
	seen    []bool

	// Degradation state: last-known-good demand per link, its age in
	// epochs, and frames the injector delayed past an epoch boundary.
	lastGood []video.Demand
	lastAge  []int
	delayed  [][]byte

	// Per-epoch fault/retry accounting (reset each RunEpoch).
	retries    int64
	lostFrames int64
	backoffSec float64

	// Epoch accounting window: control airtime/messages since the last
	// RunEpoch (covers the uplink reports and this epoch's grants).
	epochAirStart float64
	epochMsgStart int64

	// Cross-epoch solver reuse: one core.Solver (and its cg engine
	// state — schedule pool and warm simplex basis) persists
	// across epochs, so each re-solve starts from the previous epoch's
	// columns and basis instead of TDMA-cold. The state is dropped when
	// the CSI regime changes: a channel update carrying genuinely new
	// gains invalidates it in apply, and solverFP (a fingerprint of the
	// gain matrices at solver construction) catches out-of-band
	// mutations of Network.Gains (blockage sweeps, experiment drivers).
	solver   *core.Solver
	solverFP uint64

	// epoch counts completed scheduling epochs (RunEpochContext calls
	// that returned a plan). It survives checkpoints, so a restored
	// coordinator's epoch numbering continues where the dead one's
	// stopped.
	epoch int64
}

// Epoch returns the number of completed scheduling epochs.
func (c *Coordinator) Epoch() int64 { return c.epoch }

// NewCoordinator returns a coordinator for the network. The network's
// gain matrix is updated in place by channel updates.
func NewCoordinator(nw *netmodel.Network, ctrl *ControlChannel, opts core.Options) (*Coordinator, error) {
	if err := nw.Validate(); err != nil {
		return nil, fmt.Errorf("pnc: %w", err)
	}
	if ctrl == nil {
		ctrl = DefaultControlChannel()
	}
	return &Coordinator{
		Network:       nw,
		Control:       ctrl,
		Solve:         opts,
		demands:       make([]video.Demand, nw.NumLinks()),
		seen:          make([]bool, nw.NumLinks()),
		lastGood:      make([]video.Demand, nw.NumLinks()),
		lastAge:       make([]int, nw.NumLinks()),
		epochAirStart: ctrl.Airtime(),
		epochMsgStart: ctrl.Messages(),
	}, nil
}

// Ingest decodes one node→PNC message (demand report or channel
// update), updating coordinator state and charging control airtime.
func (c *Coordinator) Ingest(frame []byte) error {
	if len(frame) < 1 {
		return errors.New("pnc: empty frame")
	}
	if err := c.Control.Send(frame); err != nil {
		return err
	}
	return c.apply(frame)
}

// apply decodes and applies an already-delivered uplink frame without
// charging airtime (used for frames whose transmission was accounted
// when the fault injector delayed them).
func (c *Coordinator) apply(frame []byte) error {
	switch MsgType(frame[0]) {
	case MsgDemandReport, MsgDemandReportN:
		var r DemandReport
		if err := r.UnmarshalBinary(frame); err != nil {
			return err
		}
		if int(r.Link) >= c.Network.NumLinks() {
			return fmt.Errorf("pnc: demand report for unknown link %d", r.Link)
		}
		c.demands[r.Link] = r.Demand
		c.seen[r.Link] = true
		return nil
	case MsgChannelUpdate:
		var u ChannelUpdate
		if err := u.UnmarshalBinary(frame); err != nil {
			return err
		}
		if int(u.Link) >= c.Network.NumLinks() {
			return fmt.Errorf("pnc: channel update for unknown link %d", u.Link)
		}
		if len(u.Gains) != c.Network.NumChannels {
			return fmt.Errorf("pnc: channel update has %d gains, want %d", len(u.Gains), c.Network.NumChannels)
		}
		for _, g := range u.Gains {
			if g < 0 || math.IsNaN(g) || math.IsInf(g, 0) {
				return errors.New("pnc: channel update carries invalid gain")
			}
		}
		// Only a genuine CSI change invalidates the warm solver state:
		// nodes re-reporting unchanged gains (a common keepalive pattern)
		// must not force a cold start. Pooled schedules embed powers and
		// SINR-feasible levels for the old gains, so after a real change
		// they may be infeasible and the whole pool is dropped.
		changed := false
		for k, g := range u.Gains {
			if c.Network.Gains.Direct[u.Link][k] != g {
				changed = true
				break
			}
		}
		if changed {
			copy(c.Network.Gains.Direct[u.Link], u.Gains)
			c.InvalidateSolverState()
		}
		return nil
	default:
		return fmt.Errorf("pnc: unexpected uplink message type %v", MsgType(frame[0]))
	}
}

// InvalidateSolverState drops the coordinator's persistent solver
// state (schedule pool and warm basis): the next epoch
// starts TDMA-cold. Called automatically when a channel update carries
// changed gains; call it directly after mutating the network out of
// band (topology edits, blockage toggles) if you bypass the control
// channel.
func (c *Coordinator) InvalidateSolverState() {
	c.solver = nil
	c.solverFP = 0
}

// gainsFingerprint hashes the current gain matrices (FNV-1a over the
// IEEE-754 bits of every direct and cross gain). It is the cheap
// defense against out-of-band CSI mutation: solveEpoch compares it to
// the fingerprint taken at solver construction and cold-starts on
// mismatch.
func (c *Coordinator) gainsFingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v float64) {
		b := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h ^= b & 0xff
			h *= prime64
			b >>= 8
		}
	}
	for _, row := range c.Network.Gains.Direct {
		for _, g := range row {
			mix(g)
		}
	}
	for _, m := range c.Network.Gains.Cross {
		for _, row := range m {
			for _, g := range row {
				mix(g)
			}
		}
	}
	return h
}

// DecodeGrants reassembles a schedule plan from encoded grants (the
// node-side view): each grant becomes one schedule with its duration.
func DecodeGrants(frames [][]byte) ([]*schedule.Schedule, []float64, error) {
	schedules := make([]*schedule.Schedule, 0, len(frames))
	taus := make([]float64, 0, len(frames))
	for i, f := range frames {
		var g ScheduleGrant
		if err := g.UnmarshalBinary(f); err != nil {
			return nil, nil, fmt.Errorf("pnc: grant %d: %w", i, err)
		}
		schedules = append(schedules, &schedule.Schedule{Assignments: g.Entries})
		taus = append(taus, g.Seconds)
	}
	return schedules, taus, nil
}

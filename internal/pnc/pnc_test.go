package pnc

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mmwave/internal/channel"
	"mmwave/internal/core"
	"mmwave/internal/geom"
	"mmwave/internal/netmodel"
	"mmwave/internal/schedule"
	"mmwave/internal/sim"
	"mmwave/internal/video"
)

// testNetwork builds a servable Table-I instance.
func testNetwork(t *testing.T, seed int64, nLinks, nChannels int) *netmodel.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for {
		room := geom.Room{Width: 20, Height: 20}
		segs := room.PlaceLinks(rng, nLinks, 1, 5)
		gains := channel.TableI{}.Generate(rng, segs, nChannels)
		links := make([]netmodel.Link, nLinks)
		noise := make([]float64, nLinks)
		for i := range links {
			links[i] = netmodel.Link{TXNode: 2 * i, RXNode: 2*i + 1, Seg: segs[i]}
			noise[i] = 0.1
		}
		nw := &netmodel.Network{
			Links:        links,
			NumChannels:  nChannels,
			Gains:        gains,
			Noise:        noise,
			PMax:         1,
			Rates:        netmodel.NewShannonRateTable(200e6, []float64{0.1, 0.2, 0.3, 0.4, 0.5}),
			BandwidthHz:  200e6,
			Interference: netmodel.Global,
		}
		ok := true
		for l := 0; l < nLinks && ok; l++ {
			_, sinr := nw.BestSingleLinkChannel(l)
			ok = nw.Rates.BestLevel(sinr) >= 0
		}
		if ok {
			return nw
		}
	}
}

func TestDemandReportRoundTrip(t *testing.T) {
	r := DemandReport{Link: 7, Demand: video.TwoClass(1.5e7, 3e7)}
	b, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got DemandReport
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if got.Link != r.Link || got.Demand.At(0) != r.Demand.At(0) || got.Demand.At(1) != r.Demand.At(1) {
		t.Errorf("round trip: got %+v, want %+v", got, r)
	}
}

func TestDemandReportNClassRoundTrip(t *testing.T) {
	r := DemandReport{Link: 9, Demand: video.Demand{1e6, 2e6, 3e6}}
	b, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if MsgType(b[0]) != MsgDemandReportN {
		t.Fatalf("3-class report framed as %v, want %v", MsgType(b[0]), MsgDemandReportN)
	}
	var got DemandReport
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if got.Link != r.Link || got.Demand.NumClasses() != 3 ||
		got.Demand.At(0) != 1e6 || got.Demand.At(1) != 2e6 || got.Demand.At(2) != 3e6 {
		t.Errorf("round trip: got %+v, want %+v", got, r)
	}
	// The two-class frame stays on the frozen legacy layout.
	two := DemandReport{Link: 3, Demand: video.TwoClass(5, 6)}
	b2, err := two.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if MsgType(b2[0]) != MsgDemandReport {
		t.Errorf("2-class report framed as %v, want legacy %v", MsgType(b2[0]), MsgDemandReport)
	}
	if len(b2) != 3+2+16 {
		t.Errorf("legacy frame length %d, want 21", len(b2))
	}
}

func TestDemandReportRejectsInvalid(t *testing.T) {
	r := DemandReport{Link: 1, Demand: video.TwoClass(math.NaN(), 0)}
	if _, err := r.MarshalBinary(); err == nil {
		t.Error("NaN demand marshaled")
	}
	// A frame carrying NaN decodes but must be rejected.
	good := DemandReport{Link: 1, Demand: video.TwoClass(1, 0)}
	b, _ := good.MarshalBinary()
	// Corrupt the HP float to NaN bits.
	for i := headerLen + 2; i < headerLen+10; i++ {
		b[i] = 0xFF
	}
	var got DemandReport
	if err := got.UnmarshalBinary(b); err == nil {
		t.Error("NaN demand unmarshaled without error")
	}
}

func TestChannelUpdateRoundTrip(t *testing.T) {
	u := ChannelUpdate{Link: 3, Gains: []float64{0.1, 0.9, 0.5}}
	b, err := u.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got ChannelUpdate
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if got.Link != u.Link || len(got.Gains) != 3 {
		t.Fatalf("round trip shape: %+v", got)
	}
	for i := range u.Gains {
		if got.Gains[i] != u.Gains[i] {
			t.Errorf("gain %d: %v != %v", i, got.Gains[i], u.Gains[i])
		}
	}
}

func TestScheduleGrantRoundTrip(t *testing.T) {
	g := ScheduleGrant{
		Seconds: 0.125,
		Entries: []schedule.Assignment{
			{Link: 2, Channel: 1, Level: 4, Layer: schedule.LP, Power: 0.37},
			{Link: 9, Channel: 0, Level: 0, Layer: schedule.HP, Power: 1},
		},
	}
	b, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got ScheduleGrant
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if got.Seconds != g.Seconds || len(got.Entries) != 2 {
		t.Fatalf("round trip shape: %+v", got)
	}
	for i := range g.Entries {
		if got.Entries[i] != g.Entries[i] {
			t.Errorf("entry %d: %+v != %+v", i, got.Entries[i], g.Entries[i])
		}
	}
}

func TestMessagePropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(uint32) bool {
		switch rng.Intn(3) {
		case 0:
			r := DemandReport{Link: uint16(rng.Intn(1000)), Demand: video.TwoClass(rng.Float64()*1e9, rng.Float64()*1e9)}
			b, err := r.MarshalBinary()
			if err != nil {
				return false
			}
			var got DemandReport
			return got.UnmarshalBinary(b) == nil && got.Link == r.Link &&
				got.Demand.At(0) == r.Demand.At(0) && got.Demand.At(1) == r.Demand.At(1)
		case 1:
			u := ChannelUpdate{Link: uint16(rng.Intn(1000)), Gains: make([]float64, 1+rng.Intn(8))}
			for i := range u.Gains {
				u.Gains[i] = rng.Float64()
			}
			b, err := u.MarshalBinary()
			if err != nil {
				return false
			}
			var got ChannelUpdate
			if got.UnmarshalBinary(b) != nil || got.Link != u.Link {
				return false
			}
			for i := range u.Gains {
				if got.Gains[i] != u.Gains[i] {
					return false
				}
			}
			return true
		default:
			g := ScheduleGrant{Seconds: rng.Float64() * 10}
			for i := 0; i < rng.Intn(5); i++ {
				g.Entries = append(g.Entries, schedule.Assignment{
					Link:    rng.Intn(100),
					Channel: rng.Intn(5),
					Level:   rng.Intn(5),
					Layer:   schedule.Layer(rng.Intn(2)),
					Power:   rng.Float64(),
				})
			}
			b, err := g.MarshalBinary()
			if err != nil {
				return false
			}
			var got ScheduleGrant
			if got.UnmarshalBinary(b) != nil || len(got.Entries) != len(g.Entries) {
				return false
			}
			return got.Seconds == g.Seconds
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	r := DemandReport{Link: 1, Demand: video.TwoClass(1, 2)}
	good, _ := r.MarshalBinary()

	t.Run("short frame", func(t *testing.T) {
		var got DemandReport
		if got.UnmarshalBinary(good[:2]) == nil {
			t.Error("short frame accepted")
		}
	})
	t.Run("wrong type", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = byte(MsgScheduleGrant)
		var got DemandReport
		if got.UnmarshalBinary(bad) == nil {
			t.Error("wrong type accepted")
		}
	})
	t.Run("bad length", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[1] = 0xFF
		var got DemandReport
		if got.UnmarshalBinary(bad) == nil {
			t.Error("bad length accepted")
		}
	})
	t.Run("truncated grant", func(t *testing.T) {
		g := ScheduleGrant{Seconds: 1, Entries: []schedule.Assignment{{Link: 1}}}
		b, _ := g.MarshalBinary()
		var got ScheduleGrant
		if got.UnmarshalBinary(b[:len(b)-3]) == nil {
			t.Error("truncated grant accepted")
		}
	})
}

func TestControlChannelAccounting(t *testing.T) {
	c := &ControlChannel{BitrateBps: 1e6, PerMsgOverheadBits: 100}
	if err := c.Send(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	want := (100*8 + 100.0) / 1e6
	if math.Abs(c.Airtime()-want) > 1e-12 {
		t.Errorf("airtime = %v, want %v", c.Airtime(), want)
	}
	if c.Messages() != 1 {
		t.Errorf("messages = %d, want 1", c.Messages())
	}
	c.Reset()
	if c.Airtime() != 0 || c.Messages() != 0 {
		t.Error("Reset did not clear accounting")
	}
	bad := &ControlChannel{}
	if bad.Send(nil) == nil {
		t.Error("zero-bitrate channel accepted a send")
	}
}

func TestCoordinatorEndToEnd(t *testing.T) {
	nw := testNetwork(t, 5, 5, 3)
	coord, err := NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Nodes report demands (and one refreshes its gains).
	for l := 0; l < 5; l++ {
		r := DemandReport{Link: uint16(l), Demand: video.TwoClass(5e6, 1e7)}
		frame, err := r.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Ingest(frame); err != nil {
			t.Fatal(err)
		}
	}
	update := ChannelUpdate{Link: 0, Gains: []float64{0.9, 0.8, 0.7}}
	frame, _ := update.MarshalBinary()
	if err := coord.Ingest(frame); err != nil {
		t.Fatal(err)
	}
	if nw.Gains.Direct[0][0] != 0.9 {
		t.Error("channel update not applied to network state")
	}

	ep, err := coord.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ep.Plan.Objective <= 0 {
		t.Error("epoch plan empty despite demand")
	}
	if ep.ControlSeconds <= 0 || ep.ControlMessages < 6 {
		t.Errorf("control accounting: %v s over %d msgs", ep.ControlSeconds, ep.ControlMessages)
	}

	// Node side: decode the grants and replay them through the
	// simulator — the demands must be fully served.
	schedules, taus, err := DecodeGrants(ep.Grants)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := sim.NewPlanPolicy(schedules, taus, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	demands := make([]video.Demand, 5)
	for l := range demands {
		demands[l] = video.TwoClass(5e6, 1e7)
	}
	exec, err := sim.Run(nw, demands, policy, sim.Options{SlotDuration: 1e-3, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	for l := range demands {
		if exec.ServedAt(0, l) < demands[l].At(0)*(1-1e-6) || exec.ServedAt(1, l) < demands[l].At(1)*(1-1e-6) {
			t.Errorf("link %d underserved via granted plan", l)
		}
	}

	// A second epoch without fresh reports schedules nothing.
	ep2, err := coord.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ep2.Plan.Objective > 1e-9 {
		t.Errorf("stale epoch scheduled %v s without reports", ep2.Plan.Objective)
	}
}

func TestCoordinatorIngestErrors(t *testing.T) {
	nw := testNetwork(t, 7, 3, 2)
	coord, err := NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("empty frame", func(t *testing.T) {
		if coord.Ingest(nil) == nil {
			t.Error("empty frame accepted")
		}
	})
	t.Run("unknown link", func(t *testing.T) {
		r := DemandReport{Link: 99, Demand: video.TwoClass(1, 0)}
		b, _ := r.MarshalBinary()
		if coord.Ingest(b) == nil {
			t.Error("unknown link accepted")
		}
	})
	t.Run("gain count mismatch", func(t *testing.T) {
		u := ChannelUpdate{Link: 0, Gains: []float64{0.5}} // want 2
		b, _ := u.MarshalBinary()
		if coord.Ingest(b) == nil {
			t.Error("mismatched gain vector accepted")
		}
	})
	t.Run("negative gain", func(t *testing.T) {
		u := ChannelUpdate{Link: 0, Gains: []float64{0.5, -1}}
		b, _ := u.MarshalBinary()
		if coord.Ingest(b) == nil {
			t.Error("negative gain accepted")
		}
	})
	t.Run("downlink type on uplink", func(t *testing.T) {
		g := ScheduleGrant{Seconds: 1}
		b, _ := g.MarshalBinary()
		if coord.Ingest(b) == nil {
			t.Error("grant accepted as uplink message")
		}
	})
}

func TestMsgTypeString(t *testing.T) {
	for m, want := range map[MsgType]string{
		MsgDemandReport:  "demand-report",
		MsgChannelUpdate: "channel-update",
		MsgScheduleGrant: "schedule-grant",
		MsgType(99):      "MsgType(99)",
	} {
		if got := m.String(); got != want {
			t.Errorf("MsgType String = %q, want %q", got, want)
		}
	}
}

func TestDecodeGrantsError(t *testing.T) {
	if _, _, err := DecodeGrants([][]byte{{0x01}}); err == nil || !strings.Contains(err.Error(), "grant 0") {
		t.Errorf("bad grant error = %v", err)
	}
}

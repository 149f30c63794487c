package pnc

import (
	"testing"

	"mmwave/internal/schedule"
	"mmwave/internal/video"
)

// FuzzDemandReportUnmarshal drives the wire decoder with arbitrary
// bytes: it must never panic, and any frame it accepts must re-encode
// to the same bytes (round-trip consistency).
func FuzzDemandReportUnmarshal(f *testing.F) {
	seed, _ := DemandReport{Link: 3, Demand: video.TwoClass(1e6, 2e6)}.MarshalBinary()
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{byte(MsgDemandReport), 0xFF, 0xFF})
	// A zero-class multi-class frame: the canonical encoding of that
	// report is the two-class frame, so the decoder must refuse it.
	f.Add([]byte{byte(MsgDemandReportN), 3, 0, 0x30, 0x30, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var r DemandReport
		if err := r.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := r.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		if string(out) != string(data) {
			t.Fatalf("round trip mismatch: %x vs %x", out, data)
		}
	})
}

// FuzzChannelUpdateUnmarshal: same contract for channel updates,
// except NaN/Inf gains may decode (the coordinator rejects them at
// ingest) — only structural integrity is checked here.
func FuzzChannelUpdateUnmarshal(f *testing.F) {
	seed, _ := ChannelUpdate{Link: 1, Gains: []float64{0.25, 0.5}}.MarshalBinary()
	f.Add(seed)
	f.Add([]byte{byte(MsgChannelUpdate), 3, 0, 0, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		var u ChannelUpdate
		if err := u.UnmarshalBinary(data); err != nil {
			return
		}
		if len(u.Gains) > 255 {
			t.Fatalf("accepted %d gains beyond the wire limit", len(u.Gains))
		}
		out, err := u.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		if string(out) != string(data) {
			t.Fatalf("round trip mismatch: %x vs %x", out, data)
		}
	})
}

// FuzzScheduleGrantUnmarshal: grants carry repeated fixed-size
// entries; the decoder must enforce exact framing.
func FuzzScheduleGrantUnmarshal(f *testing.F) {
	seed, _ := ScheduleGrant{
		Seconds: 0.25,
		Entries: []schedule.Assignment{{Link: 1, Channel: 2, Level: 3, Layer: schedule.LP, Power: 0.5}},
	}.MarshalBinary()
	f.Add(seed)
	f.Add([]byte{byte(MsgScheduleGrant), 10, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		var g ScheduleGrant
		if err := g.UnmarshalBinary(data); err != nil {
			return
		}
		if len(g.Entries) > 1024 {
			t.Fatalf("accepted %d entries beyond the wire limit", len(g.Entries))
		}
		// Re-encoding can legitimately fail only for out-of-range
		// fields, which the fixed-width wire format cannot produce.
		out, err := g.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		if string(out) != string(data) {
			t.Fatalf("round trip mismatch: %x vs %x", out, data)
		}
	})
}

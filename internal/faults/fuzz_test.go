package faults

import (
	"reflect"
	"testing"
)

// FuzzFailureDecoders drives the CLI text-spec decoder with arbitrary
// bytes. It may not panic, and anything it accepts must survive a
// canonical re-format/re-parse round trip.
func FuzzFailureDecoders(f *testing.F) {
	f.Add([]byte("100@3+50,400@7+25"))
	f.Add([]byte("0@0+1"))
	f.Add([]byte(" 400@7+25, 100@3+50 "))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if evs, err := ParseFailures(string(data)); err == nil && len(evs) > 0 {
			for i, e := range evs {
				if !e.Valid() {
					t.Fatalf("text decoder accepted invalid event %d: %+v", i, e)
				}
			}
			// The formatted spec is canonical: parsing it again must
			// reproduce the same events.
			back, err := ParseFailures(FormatFailures(evs))
			if err != nil {
				t.Fatalf("canonical spec failed to re-parse: %v", err)
			}
			if !reflect.DeepEqual(back, evs) {
				t.Fatalf("text round trip mismatch: %v vs %v", back, evs)
			}
		}
	})
}

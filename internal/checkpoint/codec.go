package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Hand-rolled little-endian codec, the repo's wire idiom (see the pnc
// control frames and faults event frames): fixed-width fields, lengths
// up front, no reflection and no external dependencies. The writer
// appends; the reader carries a sticky error and bounds-checks every
// field, so a truncated or bit-flipped image fails loudly instead of
// panicking — the fuzz target hammers exactly this property.

type writer struct{ buf []byte }

func (w *writer) u8(v uint8)    { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16)  { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32)  { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) i64(v int64)   { w.u64(uint64(v)) }
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *writer) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// maxCount bounds every decoded slice length: far above any real
// instance (pools are GC'd to tens of thousands of columns at most),
// low enough that a forged length cannot drive a giant allocation.
const maxCount = 1 << 20

type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail("truncated at offset %d (want %d more bytes of %d)", r.off, n, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) boolean() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("invalid boolean at offset %d", r.off-1)
		return false
	}
}

// count reads a slice length and validates it against the global bound.
func (r *reader) count() int {
	n := r.u32()
	if n > maxCount {
		r.fail("count %d exceeds limit %d", n, maxCount)
		return 0
	}
	return int(n)
}

func (r *reader) bytes() []byte {
	n := r.count()
	b := r.take(n)
	if r.err != nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// done reports whether the reader consumed the buffer exactly.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%d trailing bytes after payload", len(r.buf)-r.off)
	}
	return nil
}

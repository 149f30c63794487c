package api

import (
	"encoding/base64"
	"encoding/json"
	"reflect"
	"strconv"
)

// The plan-bearing v1 responses — PlanResponse, EpochReport and
// StepResponse — are most of what Client reads each epoch, so they
// decode here by hand instead of through encoding/json's reflection
// and byte-at-a-time scanner. They encode through encoding/json like
// every other wire type; there is one encoder.
//
// Decoding parses the canonical form (what encoding/json writes for
// these types, with any whitespace between tokens) in one pass. Input
// outside it — unknown, retired, case-folded or repeated keys, null
// where encoding/json never writes one, a string escape or non-ASCII
// byte, a number out of range or non-integral where an int is wanted,
// trailing bytes — goes to json.Unmarshal into the method-less shadow
// type below, so every input decodes to what encoding/json gives. The
// fast path decodes only into a zero value, parses into a fresh one
// and assigns it only on success; FuzzWireResponses holds the two
// paths to the same values and the same errors. A []EpochReport (the
// reports list) decodes through encoding/json, which calls
// (*EpochReport).UnmarshalJSON for each element.
type (
	planResponseJSON PlanResponse
	epochReportJSON  EpochReport
	stepResponseJSON StepResponse
)

// UnmarshalJSON decodes a plan response as encoding/json would.
func (p *PlanResponse) UnmarshalJSON(data []byte) error {
	if fresh(p) {
		d := decoder{data: data}
		if v := d.planResponse(); d.end() {
			*p = v
			return nil
		}
	}
	return json.Unmarshal(data, (*planResponseJSON)(p))
}

// UnmarshalJSON decodes an epoch report as encoding/json would.
func (r *EpochReport) UnmarshalJSON(data []byte) error {
	if fresh(r) {
		d := decoder{data: data}
		if v := d.report(); d.end() {
			*r = v
			return nil
		}
	}
	return json.Unmarshal(data, (*epochReportJSON)(r))
}

// UnmarshalJSON decodes a step response as encoding/json would.
func (s *StepResponse) UnmarshalJSON(data []byte) error {
	if fresh(s) {
		d := decoder{data: data}
		if v := d.stepResponse(); d.end() {
			*s = v
			return nil
		}
	}
	return json.Unmarshal(data, (*stepResponseJSON)(s))
}

// fresh reports whether *p is the zero value, which the fast path
// decodes into. encoding/json decodes into a used value by merging —
// absent keys keep their old values, arrays refill the old elements —
// and it does so through UnmarshalJSON too (a repeated "reports" key
// redecodes each report in place), so a used value takes the fallback.
func fresh[T any](p *T) bool { return reflect.ValueOf(p).Elem().IsZero() }

// decoder parses the canonical form. bad records that the input left
// it; every read after that returns a zero value, and the caller
// discards the result and falls back to encoding/json.
type decoder struct {
	data []byte
	off  int
	bad  bool
}

func (d *decoder) fail() { d.bad = true }

// peek skips whitespace and returns the next byte, or 0 at the end of
// the input or once the input is bad.
func (d *decoder) peek() byte {
	for ; d.off < len(d.data) && !d.bad; d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// end reports whether the value parsed cleanly and only whitespace
// follows it.
func (d *decoder) end() bool {
	d.peek()
	return !d.bad && d.off == len(d.data)
}

// eat consumes c, the next non-space byte, or fails.
func (d *decoder) eat(c byte) {
	if d.peek() != c {
		d.fail()
		return
	}
	d.off++
}

// literal consumes lit if it comes next.
func (d *decoder) literal(lit string) bool {
	if d.peek() == lit[0] && len(d.data)-d.off >= len(lit) && string(d.data[d.off:d.off+len(lit)]) == lit {
		d.off += len(lit)
		return true
	}
	return false
}

// objectStart consumes '{' and reports whether a member follows.
func (d *decoder) objectStart() bool {
	d.eat('{')
	if d.peek() == '}' {
		d.off++
		return false
	}
	return !d.bad
}

// key reads a member's key and its colon.
func (d *decoder) key() []byte {
	k := d.str()
	d.eat(':')
	return k
}

// once fails on a repeated key: encoding/json keeps the last value of
// a repeat, merging arrays into the slice already decoded, so repeats
// take the fallback.
func (d *decoder) once(seen *uint32, field uint) {
	if *seen&(1<<field) != 0 {
		d.fail()
	}
	*seen |= 1 << field
}

// next consumes the separator after a member or element: true on ',',
// false on the closing byte (or on failure).
func (d *decoder) next(closing byte) bool {
	switch d.peek() {
	case ',':
		d.off++
		return true
	case closing:
		d.off++
		return false
	}
	d.fail()
	return false
}

// array decodes a JSON array whose elements elem reads. As in
// encoding/json, null is a nil slice and [] an empty non-nil one.
// Elements collect in a stack buffer first, so a short array costs
// one allocation of its exact length.
func array[T any](d *decoder, elem func(*decoder) T) []T {
	if d.literal("null") {
		return nil
	}
	d.eat('[')
	if d.peek() == ']' {
		d.off++
		return []T{}
	}
	var buf [16]T
	vs := buf[:0]
	for more := !d.bad; more; more = d.next(']') {
		vs = append(vs, elem(d))
	}
	return append(make([]T, 0, len(vs)), vs...)
}

// str reads a string holding only ASCII bytes and no escapes, and
// returns its bytes in place.
func (d *decoder) str() []byte {
	if d.peek() != '"' {
		d.fail()
		return nil
	}
	start := d.off + 1
	i := start
	for i < len(d.data) && plain[d.data[i]] {
		i++
	}
	if i == len(d.data) || d.data[i] != '"' {
		d.fail()
		return nil
	}
	d.off = i + 1
	return d.data[start:i]
}

// plain marks the bytes a canonical string holds as themselves:
// printable ASCII and DEL, except the quote and backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func (d *decoder) string() string { return string(d.str()) }

func (d *decoder) bool() bool {
	switch {
	case d.literal("true"):
		return true
	case d.literal("false"):
		return false
	}
	d.fail()
	return false
}

// number reads a token of JSON's number grammar; integral stops it
// before any fraction or exponent, which the caller's next read then
// rejects.
func (d *decoder) number(integral bool) []byte {
	d.peek()
	data, i := d.data, d.off
	digits := func() int {
		j := i
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		return i - j
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case digits() == 0:
		d.fail()
		return nil
	}
	if !integral {
		if i < len(data) && data[i] == '.' {
			i++
			if digits() == 0 {
				d.fail()
				return nil
			}
		}
		if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
			i++
			if i < len(data) && (data[i] == '+' || data[i] == '-') {
				i++
			}
			if digits() == 0 {
				d.fail()
				return nil
			}
		}
	}
	tok := data[d.off:i]
	d.off = i
	return tok
}

func (d *decoder) int64() int64 {
	tok := d.number(true)
	if d.bad {
		return 0
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		d.fail()
	}
	return v
}

func (d *decoder) int() int {
	tok := d.number(true)
	if d.bad {
		return 0
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		d.fail()
	}
	return int(v)
}

func (d *decoder) float() float64 {
	tok := d.number(false)
	if d.bad {
		return 0
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.fail()
	}
	return v
}

// grant reads one base64 grant frame exactly as encoding/json decodes
// a []byte; null is a nil grant.
func (d *decoder) grant() []byte {
	if d.literal("null") {
		return nil
	}
	s := d.str()
	if d.bad {
		return nil
	}
	b := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
	n, err := base64.StdEncoding.Decode(b, s)
	if err != nil {
		d.fail()
	}
	return b[:n]
}

func (d *decoder) stepResponse() (s StepResponse) {
	var seen uint32
	for more := d.objectStart(); more; more = d.next('}') {
		switch string(d.key()) {
		case "reports":
			d.once(&seen, 0)
			s.Reports = array(d, (*decoder).report)
		default:
			d.fail()
		}
	}
	return s
}

func (d *decoder) planResponse() (p PlanResponse) {
	var seen uint32
	for more := d.objectStart(); more; more = d.next('}') {
		switch string(d.key()) {
		case "cell":
			d.once(&seen, 0)
			p.Cell = d.int()
		case "epoch":
			d.once(&seen, 1)
			p.Epoch = d.int64()
		case "plan":
			d.once(&seen, 2)
			p.Plan = d.plan()
		case "plan_age":
			d.once(&seen, 3)
			p.PlanAge = d.int64()
		default:
			d.fail()
		}
	}
	return p
}

func (d *decoder) plan() (p Plan) {
	var seen uint32
	for more := d.objectStart(); more; more = d.next('}') {
		switch string(d.key()) {
		case "schedules":
			d.once(&seen, 0)
			p.Schedules = array(d, func(d *decoder) []Assignment {
				return array(d, (*decoder).assignment)
			})
		case "tau":
			d.once(&seen, 1)
			p.Tau = array(d, (*decoder).float)
		case "objective":
			d.once(&seen, 2)
			p.Objective = d.float()
		default:
			d.fail()
		}
	}
	return p
}

func (d *decoder) assignment() (a Assignment) {
	var seen uint32
	for more := d.objectStart(); more; more = d.next('}') {
		switch string(d.key()) {
		case "link":
			d.once(&seen, 0)
			a.Link = d.int()
		case "channel":
			d.once(&seen, 1)
			a.Channel = d.int()
		case "level":
			d.once(&seen, 2)
			a.Level = d.int()
		case "layer":
			d.once(&seen, 3)
			a.Layer = d.int()
		case "power":
			d.once(&seen, 4)
			a.Power = d.float()
		default:
			d.fail()
		}
	}
	return a
}

func (d *decoder) report() (r EpochReport) {
	var seen uint32
	for more := d.objectStart(); more; more = d.next('}') {
		switch string(d.key()) {
		case "cell":
			d.once(&seen, 0)
			r.Cell = d.int()
		case "epoch":
			d.once(&seen, 1)
			r.Epoch = d.int64()
		case "outcome":
			d.once(&seen, 2)
			r.Outcome = d.string()
		case "error":
			d.once(&seen, 3)
			r.Error = d.string()
		case "plan":
			d.once(&seen, 4)
			r.Plan = d.plan()
		case "plan_age":
			d.once(&seen, 5)
			r.PlanAge = d.int64()
		case "no_plan":
			d.once(&seen, 6)
			r.NoPlan = d.bool()
		case "panicked":
			d.once(&seen, 7)
			r.Panicked = d.bool()
		case "restored":
			d.once(&seen, 8)
			r.Restored = d.bool()
		case "cold_restarted":
			d.once(&seen, 9)
			r.ColdRestarted = d.bool()
		case "result":
			d.once(&seen, 10)
			if !d.literal("null") {
				r.Result = d.result()
			}
		default:
			d.fail()
		}
	}
	return r
}

func (d *decoder) result() *EpochResult {
	r := new(EpochResult)
	var seen uint32
	for more := d.objectStart(); more; more = d.next('}') {
		switch string(d.key()) {
		case "control_seconds":
			d.once(&seen, 0)
			r.ControlSeconds = d.float()
		case "control_messages":
			d.once(&seen, 1)
			r.ControlMessages = d.int64()
		case "grants":
			d.once(&seen, 2)
			r.Grants = array(d, (*decoder).grant)
		case "demands":
			d.once(&seen, 3)
			r.Demands = array(d, (*decoder).demand)
		case "degraded":
			d.once(&seen, 4)
			r.Degraded = d.bool()
		case "shed_lp_bits":
			d.once(&seen, 5)
			r.ShedLPBits = d.float()
		case "shed_hp_bits":
			d.once(&seen, 6)
			r.ShedHPBits = d.float()
		case "shed_by_class":
			d.once(&seen, 7)
			r.ShedByClass = array(d, (*decoder).float)
		case "stale_links":
			d.once(&seen, 8)
			r.StaleLinks = array(d, (*decoder).int)
		case "expired_links":
			d.once(&seen, 9)
			r.ExpiredLinks = array(d, (*decoder).int)
		case "deferred_links":
			d.once(&seen, 10)
			r.DeferredLinks = array(d, (*decoder).int)
		case "dropped_grants":
			d.once(&seen, 11)
			r.DroppedGrants = d.int()
		case "retries":
			d.once(&seen, 12)
			r.Retries = d.int64()
		case "lost_frames":
			d.once(&seen, 13)
			r.LostFrames = d.int64()
		case "backoff_seconds":
			d.once(&seen, 14)
			r.BackoffSeconds = d.float()
		case "truncated_solve":
			d.once(&seen, 15)
			r.TruncatedSolve = d.bool()
		case "warm_solve":
			d.once(&seen, 16)
			r.WarmSolve = d.bool()
		case "cg_iterations":
			d.once(&seen, 17)
			r.CGIterations = d.int()
		case "cg_columns_added":
			d.once(&seen, 18)
			r.CGColumnsAdded = d.int()
		default:
			d.fail()
		}
	}
	return r
}

func (d *decoder) demand() (dm Demand) {
	var seen uint32
	for more := d.objectStart(); more; more = d.next('}') {
		switch string(d.key()) {
		case "link":
			d.once(&seen, 0)
			dm.Link = d.int()
		case "hp":
			d.once(&seen, 1)
			dm.HPBits = d.float()
		case "lp":
			d.once(&seen, 2)
			dm.LPBits = d.float()
		case "classes":
			d.once(&seen, 3)
			dm.Classes = array(d, (*decoder).float)
		default:
			d.fail()
		}
	}
	return dm
}

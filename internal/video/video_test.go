package video

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestPSNRModel(t *testing.T) {
	q := Quality{Alpha: 30, Beta: 0.05}
	if got := q.PSNR(0); got != 30 {
		t.Errorf("PSNR(0) = %v, want 30", got)
	}
	if got := q.PSNR(100); math.Abs(got-35) > 1e-12 {
		t.Errorf("PSNR(100) = %v, want 35", got)
	}
	// Negative alpha regime clamps at 0.
	neg := Quality{Alpha: -10, Beta: 0.05}
	if got := neg.PSNR(0); got != 0 {
		t.Errorf("clamped PSNR = %v, want 0", got)
	}
}

func TestRateFor(t *testing.T) {
	q := Quality{Alpha: 30, Beta: 0.05}
	if got := q.RateFor(35); math.Abs(got-100) > 1e-12 {
		t.Errorf("RateFor(35) = %v, want 100", got)
	}
	if got := q.RateFor(20); got != 0 {
		t.Errorf("RateFor below alpha = %v, want 0", got)
	}
	z := Quality{Alpha: 30, Beta: 0}
	if got := z.RateFor(40); got != 0 {
		t.Errorf("zero-beta RateFor = %v, want 0", got)
	}
}

func TestPSNRRateForRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(uint32) bool {
		q := Quality{Alpha: 20 + rng.Float64()*20, Beta: 0.01 + rng.Float64()*0.1}
		target := q.Alpha + rng.Float64()*20
		r := q.RateFor(target)
		return math.Abs(q.PSNR(r)-target) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDemand(t *testing.T) {
	d := TwoClass(10, 20)
	if d.Total() != 30 {
		t.Errorf("Total = %v, want 30", d.Total())
	}
	s := d.Scale(2)
	if s.At(0) != 20 || s.At(1) != 40 {
		t.Errorf("Scale = %+v, want {20 40}", s)
	}
	if !d.Valid() {
		t.Error("valid demand rejected")
	}
	for _, bad := range []Demand{
		{-1, 0},
		{0, -1},
		{math.NaN(), 0},
		{0, math.Inf(1)},
	} {
		if bad.Valid() {
			t.Errorf("invalid demand accepted: %+v", bad)
		}
	}
}

func TestDemandString(t *testing.T) {
	d := TwoClass(20e6, 40e6)
	s := d.String()
	if !strings.Contains(s, "hp=20.00Mb") || !strings.Contains(s, "lp=40.00Mb") {
		t.Errorf("String = %q", s)
	}
}

func TestSessionSplit(t *testing.T) {
	s := Session{HPShare: 0.25}
	d := s.DemandForBits(100)
	if math.Abs(d.At(0)-25) > 1e-12 || math.Abs(d.At(1)-75) > 1e-12 {
		t.Errorf("split = %+v, want {25 75}", d)
	}
	// Clamping.
	over := Session{HPShare: 1.5}
	if d := over.DemandForBits(100); d.At(0) != 100 || d.At(1) != 0 {
		t.Errorf("over-share split = %+v", d)
	}
	under := Session{HPShare: -0.5}
	if d := under.DemandForBits(100); d.At(0) != 0 || d.At(1) != 100 {
		t.Errorf("under-share split = %+v", d)
	}
}

func TestSessionSplitPropertyConserves(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(uint32) bool {
		s := Session{HPShare: rng.Float64()}
		bits := rng.Float64() * 1e9
		d := s.DemandForBits(bits)
		return d.Valid() && math.Abs(d.Total()-bits) < 1e-6*(1+bits)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestScaleNonFinite(t *testing.T) {
	d := TwoClass(10, 20)
	// A poisoned factor (NaN or ±Inf) must zero the demand symmetrically
	// rather than leak non-finite bits into LP rows.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := d.Scale(bad)
		if !s.IsZero() {
			t.Errorf("Scale(%v) = %v, want zero demand", bad, s)
		}
		if !s.Valid() {
			t.Errorf("Scale(%v) produced invalid demand %v", bad, s)
		}
	}
	// A finite factor that overflows clamps instead of going infinite.
	big := TwoClass(math.MaxFloat64, 1)
	s := big.Scale(2)
	if s.At(0) != math.MaxFloat64 {
		t.Errorf("overflowing Scale = %v, want clamp at MaxFloat64", s.At(0))
	}
	if !s.Valid() {
		t.Errorf("overflowing Scale produced invalid demand %v", s)
	}
	// 0·Inf inside the products is NaN — it must come out as 0.
	inf := Demand{math.Inf(1), 0}
	if got := inf.Scale(0); !got.IsZero() {
		t.Errorf("Scale(0) of infinite demand = %v, want zero", got)
	}
}

func TestScaleValidityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(uint32) bool {
		d := Demand{rng.Float64() * 1e12, rng.Float64() * 1e12, rng.Float64() * 1e12}
		factors := []float64{rng.Float64() * 10, math.NaN(), math.Inf(1), math.MaxFloat64}
		c := factors[rng.Intn(len(factors))]
		return d.Scale(c).Valid()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDemandAtBeyondVector(t *testing.T) {
	d := TwoClass(1, 2)
	if d.At(2) != 0 || d.At(-1) != 0 {
		t.Error("At outside the vector must be 0")
	}
	if d.NumClasses() != 2 {
		t.Errorf("NumClasses = %d, want 2", d.NumClasses())
	}
	var nilD Demand
	if !nilD.IsZero() || nilD.Total() != 0 || nilD.Clone() != nil {
		t.Error("nil demand must be zero, total 0, and clone to nil")
	}
}

func TestSessionShares(t *testing.T) {
	s := Session{Shares: []float64{0.5, 0.3, 0.2}}
	d := s.DemandForBits(100)
	if d.NumClasses() != 3 {
		t.Fatalf("NumClasses = %d, want 3", d.NumClasses())
	}
	if math.Abs(d.At(0)-50) > 1e-9 || math.Abs(d.At(1)-30) > 1e-9 || math.Abs(d.At(2)-20) > 1e-9 {
		t.Errorf("split = %v", d)
	}
	// Negative entries clamp, the rest renormalizes.
	neg := Session{Shares: []float64{-1, 1, 1}}
	d = neg.DemandForBits(100)
	if d.At(0) != 0 || math.Abs(d.At(1)-50) > 1e-9 {
		t.Errorf("negative-share split = %v", d)
	}
	// All-zero shares put everything in class 0.
	zero := Session{Shares: []float64{0, 0}}
	if d := zero.DemandForBits(100); d.At(0) != 100 {
		t.Errorf("zero-share split = %v", d)
	}
}

func TestDemandStringWide(t *testing.T) {
	d := Demand{1e6, 2e6, 3e6}
	s := d.String()
	if !strings.Contains(s, "c0=1.00Mb") || !strings.Contains(s, "c2=3.00Mb") {
		t.Errorf("wide String = %q", s)
	}
}

func TestDefaultSession(t *testing.T) {
	s := DefaultSession()
	if s.HPShare <= 0 || s.HPShare >= 1 {
		t.Errorf("HPShare = %v, want in (0,1)", s.HPShare)
	}
	if s.Quality.Beta <= 0 {
		t.Error("non-positive quality slope")
	}
}

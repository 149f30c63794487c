package cg

import (
	"math"
	"testing"

	"mmwave/internal/lp"
	"mmwave/internal/netmodel"
	"mmwave/internal/schedule"
)

func TestTheoremBound(t *testing.T) {
	cases := []struct {
		name  string
		upper float64
		pr    PriceResult
		want  float64
	}{
		{
			// Exact pricing with Ψ = 2 → Φ = −1 → LB = UB/2.
			name:  "exact negative phi",
			upper: 10,
			pr:    PriceResult{Value: 2, Exact: true, RelaxValue: 5},
			want:  5,
		},
		{
			// Truncated pricing must use the relaxation: Ψ̄ = 3 → Φ′ = −2.
			name:  "truncated uses relaxation",
			upper: 9,
			pr:    PriceResult{Value: 2, Exact: false, RelaxValue: 3},
			want:  3,
		},
		{
			// No improving column (Ψ ≤ 1 → Φ ≥ 0): the optimum is proven
			// and the bound collapses to the upper bound.
			name:  "converged collapses to upper",
			upper: 7,
			pr:    PriceResult{Value: 0.5, Exact: true},
			want:  7,
		},
		{
			name:  "relaxed converged collapses to upper",
			upper: 4,
			pr:    PriceResult{RelaxValue: 1},
			want:  4,
		},
	}
	for _, tc := range cases {
		if got := TheoremBound(tc.upper, &tc.pr); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: TheoremBound = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// twoLinkSchedules builds n distinct single-assignment schedules.
func twoLinkSchedules(n int) []*schedule.Schedule {
	out := make([]*schedule.Schedule, n)
	for i := range out {
		out[i] = &schedule.Schedule{Assignments: []schedule.Assignment{{
			Link: i % 4, Channel: i / 4, Level: i % 3, Layer: schedule.Layer(i % 2),
		}}}
	}
	return out
}

func TestStateSeedPinsColumns(t *testing.T) {
	st := NewState()
	st.Seed(twoLinkSchedules(4))
	if st.Pool().Len() != 4 || st.seedLen != 4 {
		t.Fatalf("seed: pool %d seedLen %d, want 4/4", st.Pool().Len(), st.seedLen)
	}
	// Age the non-seed columns far past any MinAge.
	extra := twoLinkSchedules(12)[4:]
	for _, sc := range extra {
		st.pool.Add(sc)
	}
	st.syncBookkeeping()
	st.runs = 100

	model := &stubModel{}
	evicted := st.gc(GCPolicy{MaxColumns: 4, MinAge: 1}, model)
	if evicted != 8 {
		t.Fatalf("evicted %d columns, want 8", evicted)
	}
	if st.Pool().Len() != 4 {
		t.Fatalf("pool %d after GC, want the 4 pinned seeds", st.Pool().Len())
	}
	if st.prob != nil || st.cols != 0 {
		t.Error("GC did not schedule a master rebuild")
	}
}

func TestStateGCKeepsBasicColumns(t *testing.T) {
	st := NewState()
	st.Seed(twoLinkSchedules(2))
	for _, sc := range twoLinkSchedules(10)[2:] {
		st.pool.Add(sc)
	}
	st.syncBookkeeping()
	st.runs = 50
	// Column 7 sits in the warm basis (offset 3 fixed variables before
	// the schedule columns); it must survive even though it is ancient.
	st.warmBasis = []lp.BasisVar{
		{Kind: lp.BasisAux, Index: 0},
		{Kind: lp.BasisStructural, Index: 1},     // fixed var, below offset
		{Kind: lp.BasisStructural, Index: 3 + 7}, // pool column 7
	}
	model := &stubModel{offset: 3}
	if evicted := st.gc(GCPolicy{MaxColumns: 2, MinAge: 1}, model); evicted != 7 {
		t.Fatalf("evicted %d, want 7 (8 non-seed minus the basic one)", evicted)
	}
	if st.Pool().Len() != 3 {
		t.Fatalf("pool %d, want 3 (2 seeds + 1 basic)", st.Pool().Len())
	}
	if st.warmBasis == nil {
		t.Fatal("warm basis dropped although every basic column survived")
	}
	// The basic column moved from pool index 7 to 2 (after the 2 seeds).
	want := lp.BasisVar{Kind: lp.BasisStructural, Index: 3 + 2}
	if st.warmBasis[2] != want {
		t.Errorf("basis entry remapped to %+v, want %+v", st.warmBasis[2], want)
	}
	if st.warmBasis[0] != (lp.BasisVar{Kind: lp.BasisAux, Index: 0}) ||
		st.warmBasis[1] != (lp.BasisVar{Kind: lp.BasisStructural, Index: 1}) {
		t.Error("aux/fixed basis entries must pass through unchanged")
	}
}

func TestStateGCDisabled(t *testing.T) {
	st := NewState()
	st.Seed(twoLinkSchedules(8))
	st.runs = 99
	if evicted := st.gc(GCPolicy{}, &stubModel{}); evicted != 0 {
		t.Fatalf("zero policy evicted %d columns", evicted)
	}
}

// TestEngineSizesGC: a zero GC policy becomes max(256, 32·L) columns,
// and an explicit bound is kept.
func TestEngineSizesGC(t *testing.T) {
	for _, tc := range []struct{ links, set, want int }{
		{4, 0, 256}, {8, 0, 256}, {10, 0, 320}, {30, 0, 960}, {30, 15, 15},
	} {
		nw := &netmodel.Network{Links: make([]netmodel.Link, tc.links)}
		e := NewEngine(nw, &stubModel{}, NewState(), Options{GC: GCPolicy{MaxColumns: tc.set}})
		if got := e.opts.GC.MaxColumns; got != tc.want {
			t.Errorf("L=%d MaxColumns=%d: engine bound %d, want %d", tc.links, tc.set, got, tc.want)
		}
	}
}

// stubModel satisfies MasterModel for state-level tests; only
// ColumnOffset is consulted by the GC.
type stubModel struct{ offset int }

func (m *stubModel) NewMaster() *lp.Problem                             { return lp.NewProblem(nil) }
func (m *stubModel) AppendColumn(*lp.Problem, *schedule.Schedule) error { return nil }
func (m *stubModel) RefreshRHS(*lp.Problem)                             {}
func (m *stubModel) Duals(*lp.Solution) [][]float64                     { return nil }
func (m *stubModel) Upper(sol *lp.Solution) float64                     { return sol.Objective }
func (m *stubModel) Bound(float64, *PriceResult) (float64, bool)        { return 0, false }
func (m *stubModel) ColumnOffset() int                                  { return m.offset }
func (m *stubModel) SpanName() string                                   { return "stub" }

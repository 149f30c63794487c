package schedule

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mmwave/internal/channel"
	"mmwave/internal/geom"
	"mmwave/internal/netmodel"
)

// testNetwork builds an nLinks × nChannels network with unit direct
// gains and uniform cross gains.
func testNetwork(nLinks, nChannels int, cross float64) *netmodel.Network {
	g := &channel.Gains{
		Direct: make([][]float64, nLinks),
		Cross:  make([][][]float64, nLinks),
	}
	for i := 0; i < nLinks; i++ {
		g.Direct[i] = make([]float64, nChannels)
		for k := 0; k < nChannels; k++ {
			g.Direct[i][k] = 1
		}
		g.Cross[i] = make([][]float64, nLinks)
		for j := 0; j < nLinks; j++ {
			g.Cross[i][j] = make([]float64, nChannels)
			if i != j {
				for k := 0; k < nChannels; k++ {
					g.Cross[i][j][k] = cross
				}
			}
		}
	}
	links := make([]netmodel.Link, nLinks)
	noise := make([]float64, nLinks)
	for i := range links {
		links[i] = netmodel.Link{TXNode: 2 * i, RXNode: 2*i + 1}
		noise[i] = 0.1
	}
	return &netmodel.Network{
		Links:       links,
		NumChannels: nChannels,
		Gains:       g,
		Noise:       noise,
		PMax:        1,
		Rates:       netmodel.NewShannonRateTable(200e6, []float64{0.1, 0.2, 0.3, 0.4, 0.5}),
		BandwidthHz: 200e6,
	}
}

func randomNetwork(rng *rand.Rand, nLinks, nChannels int) *netmodel.Network {
	room := geom.Room{Width: 20, Height: 20}
	segs := room.PlaceLinks(rng, nLinks, 1, 5)
	gains := channel.TableI{}.Generate(rng, segs, nChannels)
	links := make([]netmodel.Link, nLinks)
	noise := make([]float64, nLinks)
	for i := range links {
		links[i] = netmodel.Link{TXNode: 2 * i, RXNode: 2*i + 1, Seg: segs[i]}
		noise[i] = 0.1
	}
	return &netmodel.Network{
		Links:       links,
		NumChannels: nChannels,
		Gains:       gains,
		Noise:       noise,
		PMax:        1,
		Rates:       netmodel.NewShannonRateTable(200e6, []float64{0.1, 0.2, 0.3, 0.4, 0.5}),
		BandwidthHz: 200e6,
	}
}

func TestLayerString(t *testing.T) {
	if HP.String() != "hp" || LP.String() != "lp" {
		t.Error("Layer String mismatch")
	}
	// Layers beyond the legacy pair render with the generic class-index
	// form.
	if Layer(7).String() != "c7" {
		t.Error("unknown layer String mismatch")
	}
	if ClassLayer(2).String() != "c2" {
		t.Error("ClassLayer String mismatch")
	}
}

func TestKeyCanonical(t *testing.T) {
	a := &Schedule{Assignments: []Assignment{
		{Link: 2, Channel: 0, Level: 1, Layer: HP, Power: 0.3},
		{Link: 0, Channel: 1, Level: 2, Layer: LP, Power: 0.5},
	}}
	b := &Schedule{Assignments: []Assignment{
		{Link: 0, Channel: 1, Level: 2, Layer: LP, Power: 0.9}, // different power
		{Link: 2, Channel: 0, Level: 1, Layer: HP, Power: 0.1},
	}}
	if a.Key() != b.Key() {
		t.Error("keys differ for identical discrete schedules")
	}
	c := a.Clone()
	c.Assignments[0].Level = 0
	if a.Key() == c.Key() {
		t.Error("keys equal for different levels")
	}
}

func TestRateVectorsAndValue(t *testing.T) {
	nw := testNetwork(3, 2, 0)
	s := &Schedule{Assignments: []Assignment{
		{Link: 0, Channel: 0, Level: 4, Layer: HP, Power: 0.05},
		{Link: 2, Channel: 1, Level: 1, Layer: LP, Power: 0.02},
	}}
	rv := s.RateVectorsByClass(nw)
	hp, lp := rv[0], rv[1]
	if hp[0] != nw.Rates.Rates[4] || lp[0] != 0 {
		t.Errorf("link0 rates = (%v, %v)", hp[0], lp[0])
	}
	if hp[2] != 0 || lp[2] != nw.Rates.Rates[1] {
		t.Errorf("link2 rates = (%v, %v)", hp[2], lp[2])
	}
	if hp[1] != 0 || lp[1] != 0 {
		t.Errorf("idle link1 has nonzero rates")
	}

	lamHP := []float64{2e-8, 0, 0}
	lamLP := []float64{0, 0, 3e-8}
	want := 2e-8*nw.Rates.Rates[4] + 3e-8*nw.Rates.Rates[1]
	if v := s.Value(nw, [][]float64{lamHP, lamLP}); math.Abs(v-want) > 1e-9 {
		t.Errorf("Value = %v, want %v", v, want)
	}
}

func TestValidateGood(t *testing.T) {
	nw := testNetwork(2, 2, 0.2)
	s := &Schedule{Assignments: []Assignment{
		{Link: 0, Channel: 0, Level: 4, Layer: HP, Power: 0.06},
		{Link: 1, Channel: 1, Level: 4, Layer: LP, Power: 0.06},
	}}
	if err := s.Validate(nw); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	nw := testNetwork(2, 2, 0.2)
	tests := []struct {
		name string
		s    *Schedule
		want string
	}{
		{"link oob", &Schedule{Assignments: []Assignment{{Link: 9, Power: 0.1}}}, "out of range"},
		{"channel oob", &Schedule{Assignments: []Assignment{{Link: 0, Channel: 5, Power: 0.1}}}, "channel"},
		{"level oob", &Schedule{Assignments: []Assignment{{Link: 0, Level: 9, Power: 0.1}}}, "level"},
		{"bad layer", &Schedule{Assignments: []Assignment{{Link: 0, Layer: Layer(5), Power: 0.1}}}, "layer"},
		{"power oob", &Schedule{Assignments: []Assignment{{Link: 0, Power: 2}}}, "power"},
		{"dup link", &Schedule{Assignments: []Assignment{
			{Link: 0, Channel: 0, Power: 0.1},
			{Link: 0, Channel: 1, Power: 0.1},
		}}, "twice"},
		{"sinr fail", &Schedule{Assignments: []Assignment{
			{Link: 0, Channel: 0, Level: 4, Layer: HP, Power: 0.0001},
		}}, "SINR"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.s.Validate(nw)
			if err == nil {
				t.Fatal("want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateNodeConflict(t *testing.T) {
	nw := testNetwork(2, 2, 0)
	nw.Links[1].TXNode = nw.Links[0].RXNode // share a node
	s := &Schedule{Assignments: []Assignment{
		{Link: 0, Channel: 0, Level: 0, Layer: HP, Power: 0.05},
		{Link: 1, Channel: 1, Level: 0, Layer: HP, Power: 0.05},
	}}
	if err := s.Validate(nw); err == nil || !strings.Contains(err.Error(), "half-duplex") {
		t.Errorf("node conflict not detected: %v", err)
	}
}

func TestValidateEmpty(t *testing.T) {
	nw := testNetwork(2, 2, 0.2)
	var s Schedule
	if err := s.Validate(nw); err != nil {
		t.Errorf("empty schedule rejected: %v", err)
	}
}

func TestTDMA(t *testing.T) {
	nw := testNetwork(3, 2, 0.5)
	nw.Gains.Direct[1] = []float64{0.3, 0.9}
	cols := TDMA(nw)
	if len(cols) != 6 {
		t.Fatalf("TDMA produced %d columns, want 6 (2 per link)", len(cols))
	}
	seenLayers := map[Layer]int{}
	for _, s := range cols {
		if len(s.Assignments) != 1 {
			t.Fatalf("TDMA schedule has %d assignments, want 1", len(s.Assignments))
		}
		a := s.Assignments[0]
		seenLayers[a.Layer]++
		if err := s.Validate(nw); err != nil {
			t.Errorf("TDMA schedule invalid: %v", err)
		}
		if a.Link == 1 && a.Channel != 1 {
			t.Errorf("link 1 placed on channel %d, want best channel 1", a.Channel)
		}
	}
	if seenLayers[HP] != 3 || seenLayers[LP] != 3 {
		t.Errorf("layer split = %v, want 3 HP + 3 LP", seenLayers)
	}
}

func TestTDMASkipsUnservableLinks(t *testing.T) {
	nw := testNetwork(2, 1, 0)
	nw.Gains.Direct[1][0] = 0.001 // SINR 0.01 below every threshold
	cols := TDMA(nw)
	if len(cols) != 2 {
		t.Fatalf("TDMA produced %d columns, want 2 (link 1 unservable)", len(cols))
	}
	for _, s := range cols {
		if s.Assignments[0].Link != 0 {
			t.Error("unservable link received a TDMA column")
		}
	}
}

func TestPool(t *testing.T) {
	p := NewPool()
	s1 := &Schedule{Assignments: []Assignment{{Link: 0, Channel: 0, Level: 1, Layer: HP, Power: 0.1}}}
	s2 := &Schedule{Assignments: []Assignment{{Link: 0, Channel: 0, Level: 1, Layer: HP, Power: 0.9}}}
	s3 := &Schedule{Assignments: []Assignment{{Link: 1, Channel: 0, Level: 1, Layer: HP, Power: 0.1}}}

	i1, added := p.Add(s1)
	if !added || i1 != 0 {
		t.Fatalf("first Add = (%d, %v)", i1, added)
	}
	i2, added := p.Add(s2) // same discrete content
	if added || i2 != 0 {
		t.Errorf("duplicate Add = (%d, %v), want (0, false)", i2, added)
	}
	i3, added := p.Add(s3)
	if !added || i3 != 1 {
		t.Errorf("distinct Add = (%d, %v), want (1, true)", i3, added)
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d, want 2", p.Len())
	}
	if !pooled(p, s1) || pooled(p, &Schedule{Assignments: []Assignment{{Link: 5}}}) {
		t.Error("dedup index mismatch")
	}
	if p.At(1).Assignments[0].Link != 1 {
		t.Error("At returned wrong schedule")
	}
}

func TestStringRendering(t *testing.T) {
	var empty Schedule
	if empty.String() != "schedule{idle}" {
		t.Errorf("empty String = %q", empty.String())
	}
	s := &Schedule{Assignments: []Assignment{{Link: 1, Channel: 2, Level: 3, Layer: LP, Power: 0.25}}}
	if !strings.Contains(s.String(), "l1→ch2 q3 lp") {
		t.Errorf("String = %q", s.String())
	}
}

func TestPropertyTDMAValid(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	check := func(uint32) bool {
		nw := randomNetwork(rng, 1+rng.Intn(8), 1+rng.Intn(4))
		for _, s := range TDMA(nw) {
			if err := s.Validate(nw); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyKeyCloneStable(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	check := func(uint32) bool {
		n := 1 + rng.Intn(6)
		s := &Schedule{}
		for i := 0; i < n; i++ {
			s.Assignments = append(s.Assignments, Assignment{
				Link:    rng.Intn(10),
				Channel: rng.Intn(3),
				Level:   rng.Intn(5),
				Layer:   Layer(rng.Intn(2)),
				Power:   rng.Float64(),
			})
		}
		clone := s.Clone()
		// Shuffling assignment order must not change the key.
		rng.Shuffle(len(clone.Assignments), func(i, j int) {
			clone.Assignments[i], clone.Assignments[j] = clone.Assignments[j], clone.Assignments[i]
		})
		return s.Key() == clone.Key()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPoolCompact(t *testing.T) {
	p := NewPool()
	scheds := make([]*Schedule, 5)
	for i := range scheds {
		scheds[i] = &Schedule{Assignments: []Assignment{{Link: i, Channel: 0, Level: 1, Layer: HP}}}
		p.Add(scheds[i])
	}

	mapping := p.Compact(func(i int, _ *Schedule) bool { return i%2 == 0 })
	want := []int{0, -1, 1, -1, 2}
	for i := range want {
		if mapping[i] != want[i] {
			t.Errorf("mapping[%d] = %d, want %d", i, mapping[i], want[i])
		}
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d after compact, want 3", p.Len())
	}
	// Survivors keep their relative order.
	for newIdx, oldIdx := range []int{0, 2, 4} {
		if p.At(newIdx).Assignments[0].Link != oldIdx {
			t.Errorf("position %d holds link %d, want %d", newIdx, p.At(newIdx).Assignments[0].Link, oldIdx)
		}
	}
	// The dedup index follows: removed schedules are re-addable, kept
	// ones still dedup to their new index.
	if pooled(p, scheds[1]) {
		t.Error("dedup index still holds an evicted schedule")
	}
	if i, added := p.Add(scheds[2]); added || i != 1 {
		t.Errorf("re-Add of survivor = (%d, %v), want (1, false)", i, added)
	}
	if i, added := p.Add(scheds[3]); !added || i != 3 {
		t.Errorf("re-Add of evictee = (%d, %v), want (3, true)", i, added)
	}
}

func TestPoolCompactKeepAll(t *testing.T) {
	p := NewPool()
	for i := 0; i < 3; i++ {
		p.Add(&Schedule{Assignments: []Assignment{{Link: i}}})
	}
	mapping := p.Compact(func(int, *Schedule) bool { return true })
	for i, m := range mapping {
		if m != i {
			t.Errorf("identity compact moved %d → %d", i, m)
		}
	}
	if p.Len() != 3 {
		t.Errorf("Len = %d, want 3", p.Len())
	}
}

// pooled reports whether the pool's dedup index holds a schedule
// identical to s.
func pooled(p *Pool, s *Schedule) bool {
	_, ok := p.index[s.Key()]
	return ok
}

package pnc

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"mmwave/internal/core"
	"mmwave/internal/netmodel"
	"mmwave/internal/obs"
	"mmwave/internal/video"
)

// reportAll sends one demand report per link.
func reportAll(t *testing.T, c *Coordinator, n int, d video.Demand) {
	t.Helper()
	for l := 0; l < n; l++ {
		frame, err := DemandReport{Link: uint16(l), Demand: d}.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Ingest(frame); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEpochWarmReuse: with an unchanged CSI regime, every epoch after
// the first reuses the previous epoch's solver state — flagged on the
// EpochResult, counted in the metrics, and (for identical demands)
// producing a byte-identical plan.
func TestEpochWarmReuse(t *testing.T) {
	nw := testNetwork(t, 5, 5, 3)
	coord, err := NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord.Metrics = reg
	d := video.TwoClass(5e6, 1e7)

	reportAll(t, coord, 5, d)
	ep1, err := coord.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ep1.WarmSolve {
		t.Error("first epoch flagged WarmSolve")
	}

	reportAll(t, coord, 5, d)
	ep2, err := coord.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !ep2.WarmSolve {
		t.Error("second epoch with unchanged CSI not flagged WarmSolve")
	}
	if ep2.Plan.Objective != ep1.Plan.Objective {
		t.Errorf("warm epoch objective %v != cold %v", ep2.Plan.Objective, ep1.Plan.Objective)
	}
	if !reflect.DeepEqual(ep2.Plan.Tau, ep1.Plan.Tau) {
		t.Errorf("warm epoch tau %v != cold %v", ep2.Plan.Tau, ep1.Plan.Tau)
	}
	for i := range ep1.Plan.Schedules {
		if !reflect.DeepEqual(ep1.Plan.Schedules[i].Assignments, ep2.Plan.Schedules[i].Assignments) {
			t.Errorf("schedule %d differs between epochs", i)
		}
	}
	// The warm solve must do strictly less work than the cold one.
	if ep1.Solver.LPPivots > 0 && ep2.Solver.LPPivots >= ep1.Solver.LPPivots {
		t.Errorf("warm epoch pivots %d not below cold %d", ep2.Solver.LPPivots, ep1.Solver.LPPivots)
	}
	if len(ep2.Solver.Iterations) > len(ep1.Solver.Iterations) {
		t.Errorf("warm epoch iterations %d above cold %d", len(ep2.Solver.Iterations), len(ep1.Solver.Iterations))
	}

	if got := reg.Counter("pnc_cold_solves_total").Value(); got != 1 {
		t.Errorf("pnc_cold_solves_total = %d, want 1", got)
	}
	if got := reg.Counter("pnc_warm_solves_total").Value(); got != 1 {
		t.Errorf("pnc_warm_solves_total = %d, want 1", got)
	}
}

// TestChannelUpdateInvalidation: a channel update carrying genuinely
// new gains drops the warm state (pooled schedules may be infeasible
// under the new CSI); re-reporting identical gains must NOT.
func TestChannelUpdateInvalidation(t *testing.T) {
	nw := testNetwork(t, 6, 4, 2)
	coord, err := NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := video.TwoClass(4e6, 8e6)

	reportAll(t, coord, 4, d)
	if _, err := coord.RunEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Keepalive: identical gains, warm state survives.
	same := ChannelUpdate{Link: 0, Gains: append([]float64(nil), nw.Gains.Direct[0]...)}
	frame, _ := same.MarshalBinary()
	if err := coord.Ingest(frame); err != nil {
		t.Fatal(err)
	}
	reportAll(t, coord, 4, d)
	ep, err := coord.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !ep.WarmSolve {
		t.Error("identical-gains keepalive invalidated the warm state")
	}

	// Real CSI change: cold start.
	changed := ChannelUpdate{Link: 0, Gains: append([]float64(nil), nw.Gains.Direct[0]...)}
	changed.Gains[0] *= 0.5
	frame, _ = changed.MarshalBinary()
	if err := coord.Ingest(frame); err != nil {
		t.Fatal(err)
	}
	reportAll(t, coord, 4, d)
	ep, err = coord.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ep.WarmSolve {
		t.Error("changed gains did not invalidate the warm state")
	}

	// And the epoch after the cold restart is warm again.
	reportAll(t, coord, 4, d)
	ep, err = coord.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !ep.WarmSolve {
		t.Error("epoch after cold restart not warm")
	}
}

// TestOutOfBandMutationInvalidates: gains mutated without a control
// message (blockage sweeps, experiment drivers poking the network) are
// caught by the fingerprint check and force a cold start.
func TestOutOfBandMutationInvalidates(t *testing.T) {
	nw := testNetwork(t, 9, 4, 2)
	coord, err := NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := video.TwoClass(4e6, 8e6)

	reportAll(t, coord, 4, d)
	if _, err := coord.RunEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}

	nw.Gains.Direct[1][0] *= 2 // behind the coordinator's back

	reportAll(t, coord, 4, d)
	ep, err := coord.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ep.WarmSolve {
		t.Error("out-of-band gain mutation not detected by the fingerprint")
	}
}

// TestOutOfBandNoiseInvalidates: the warm guard is the whole-network
// fingerprint, not only the gains. A pool built under the old noise,
// power budget or rate table may hold SINR-infeasible columns, so an
// out-of-band change to any of them forces a cold solve.
func TestOutOfBandNoiseInvalidates(t *testing.T) {
	for name, edit := range map[string]func(*netmodel.Network){
		"noise": func(nw *netmodel.Network) { nw.Noise[2] *= 4 },
		"pmax":  func(nw *netmodel.Network) { nw.PMax *= 0.5 },
		"rates": func(nw *netmodel.Network) { nw.Rates.Gammas[0] *= 0.9 },
	} {
		t.Run(name, func(t *testing.T) {
			nw := testNetwork(t, 4, 4, 2)
			coord, err := NewCoordinator(nw, nil, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			d := video.TwoClass(4e6, 8e6)
			reportAll(t, coord, 4, d)
			if _, err := coord.RunEpoch(context.Background()); err != nil {
				t.Fatal(err)
			}

			edit(nw) // behind the coordinator's back

			reportAll(t, coord, 4, d)
			ep, err := coord.RunEpoch(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if ep.WarmSolve {
				t.Errorf("out-of-band %s change did not force a cold solve", name)
			}
		})
	}
}

// TestWarmFallbackCounted: when the warm solver rejects the epoch's
// demands, the coordinator drops it, solves cold, and counts the
// fallback instead of hiding it.
func TestWarmFallbackCounted(t *testing.T) {
	nw := testNetwork(t, 5, 4, 2)
	coord, err := NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord.Metrics = reg
	d := video.TwoClass(4e6, 8e6)

	reportAll(t, coord, 4, d)
	if _, err := coord.RunEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Force a SetDemands rejection: swap in a solver built for a
	// three-link network, which refuses the four-link demand vector.
	// The network fingerprint is untouched, so the epoch takes the warm
	// path first.
	small := testNetwork(t, 6, 3, 2)
	s, err := core.NewSolver(small, []video.Demand{d, d, d}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coord.solver = s

	reportAll(t, coord, 4, d)
	ep, err := coord.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ep.WarmSolve {
		t.Error("epoch after a rejected warm solver flagged WarmSolve")
	}
	// The forced swap is refused by SetDemands, so the fallback is
	// counted under that cause and none under a failed warm solve.
	if got := reg.Counter(`pnc_warm_fallbacks_total{cause="set_demands"}`).Value(); got != 1 {
		t.Errorf(`pnc_warm_fallbacks_total{cause="set_demands"} = %d, want 1`, got)
	}
	if got := reg.Counter(`pnc_warm_fallbacks_total{cause="solve"}`).Value(); got != 0 {
		t.Errorf(`pnc_warm_fallbacks_total{cause="solve"} = %d, want 0`, got)
	}
	var exp bytes.Buffer
	if err := reg.WriteText(&exp); err != nil {
		t.Fatal(err)
	}
	if want := "pnc_warm_fallbacks_total{cause=\"set_demands\"} 1\n"; !strings.Contains(exp.String(), want) {
		t.Errorf("exposition lacks %q:\n%s", want, exp.String())
	}
	if got := reg.Counter("pnc_cold_solves_total").Value(); got != 2 {
		t.Errorf("pnc_cold_solves_total = %d, want 2", got)
	}
	if got := reg.Counter("pnc_warm_solves_total").Value(); got != 0 {
		t.Errorf("pnc_warm_solves_total = %d, want 0", got)
	}
}

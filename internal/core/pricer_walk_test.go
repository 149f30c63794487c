package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mmwave/internal/netmodel"
	"mmwave/internal/schedule"
)

// walkSig renders a schedule with its powers as exact bit patterns, so
// the golden comparison below catches any change in the returned
// column, not just in its value.
func walkSig(s *schedule.Schedule) string {
	if s == nil {
		return "nil"
	}
	parts := make([]string, len(s.Assignments))
	for i, a := range s.Assignments {
		parts[i] = fmt.Sprintf("%d/%d/%d/%d/%x", a.Link, a.Channel, a.Level, a.Layer, math.Float64bits(a.Power))
	}
	return strings.Join(parts, " ")
}

// TestPricerWalkGolden pins the branch-and-bound walk on seeded
// instances: node and probe counts, exactness, the bit patterns of the
// value and the relaxation bound, the returned schedule, and the leaf
// pool size. Any change to the search order, the pruning rule or the
// budget accounting moves at least one of these, so a refactor of the
// pricer that claims an unchanged walk must leave this test untouched.
// The constants were recorded from the serial search; the instances
// cover both interference models, multi-channel access, leaf pooling,
// fixed power and a probe-budget truncation.
func TestPricerWalkGolden(t *testing.T) {
	cases := []struct {
		name         string
		seed         int64
		links, chans int
		global       bool
		multi        bool
		fixed        bool
		pool         int
		budget       int

		nodes, probes int
		exact         bool
		value, relax  uint64
		sched         string
		extras        int
	}{
		{name: "per-channel", seed: 9, links: 10, chans: 3, budget: 500000,
			nodes: 7416, probes: 4794, exact: true, value: 0x403147e8552e8c9c, relax: 0x403147e8552e8c9c, extras: 0,
			sched: "0/0/4/1/3fd6beee138ffaa6 1/0/4/1/3fd836529def9ff0 2/1/4/0/3fd7794975aa681c 3/1/4/0/3fd09938a29f8dae 4/0/4/0/3fc9f227934ba786 5/1/4/1/3fd26c7ac28c1be3 6/1/4/0/3fb84b5d2286da4d 7/2/4/1/3fe239ae4db4390d 8/1/4/1/3fdbc6b61e63b3de 9/0/4/0/3fe7b2ae0e8f01e9"},
		{name: "global", seed: 7, links: 8, chans: 2, global: true, budget: 500000,
			nodes: 5196, probes: 10366, exact: true, value: 0x40289b6a4ce055c3, relax: 0x40289b6a4ce055c3, extras: 0,
			sched: "0/1/4/1/3febf2a7fa05e50c 1/0/4/1/3fd6c3bf99a8072b 2/1/4/1/3fe3c4f2b5fc7dc8 3/1/4/1/3fe459c149a92126 4/1/4/1/3fea4c5215b9e9db 5/1/4/0/3fd97502c8ae4dd9 7/0/3/0/3fe2d10d6811e7f4"},
		{name: "multi-channel", seed: 6, links: 6, chans: 2, multi: true, budget: 500000,
			nodes: 5444, probes: 7842, exact: true, value: 0x4025c468d44c4492, relax: 0x4025c468d44c4492, extras: 0,
			sched: "0/1/4/1/3fd4c31e1ad95593 1/1/4/1/3fdf4a1aa9066ae6 2/0/4/1/3feba8e6acd41270 2/1/4/0/3fe646d8c49faa80 3/0/0/0/3fd1a14c03c57966 3/1/4/1/3fec28b773a1b1f2 4/0/4/0/3fdf4107760704ca 5/0/4/1/3fe0727059a2cf49 5/1/4/0/3fdb0ab26415911a"},
		{name: "multi-channel-global", seed: 9, links: 6, chans: 3, global: true, multi: true, budget: 500000,
			nodes: 14841, probes: 45857, exact: true, value: 0x4028b2ef4d9d7485, relax: 0x4028b2ef4d9d7485, extras: 0,
			sched: "0/1/4/1/3fdc616efa0285d0 1/0/4/1/3fe029818993c69f 1/1/1/0/3fd12df6f244a611 2/2/4/1/3fdbc086c2eabdd7 3/1/3/1/3fd9f837c771d3c8 4/0/4/0/3fef2303e7838ae7 4/2/4/1/3fe345715c84df0c 5/1/4/0/3fe193e2e107b856 5/2/4/1/3fe432b3054b9abb"},
		{name: "pooled", seed: 5, links: 10, chans: 2, pool: 8, budget: 500000,
			nodes: 7270, probes: 11402, exact: true, value: 0x402a89375ce110a8, relax: 0x402a89375ce110a8, extras: 3,
			sched: "0/1/2/0/3feaa34d3d460262 1/0/4/1/3fc7f8946f45dcbb 2/0/4/1/3fe6ead3ef84605e 3/0/4/0/3fdfc9549f2ad04e 4/1/4/0/3fd8f10dc9aa1ddd 5/0/4/0/3fe0e919ad3249cb 6/0/4/0/3fe847d0ba4ff620 8/1/3/1/3fe40b9f9f29960b 9/1/4/0/3fda281c0904c220"},
		{name: "pooled-global", seed: 4, links: 8, chans: 2, global: true, pool: 8, budget: 500000,
			nodes: 4908, probes: 6300, exact: true, value: 0x4029c16a0c7eff17, relax: 0x4029c16a0c7eff17, extras: 4,
			sched: "0/1/3/0/3fe539f68a641cec 1/0/4/0/3febe61be6b3d4dd 2/1/1/0/3fe8950993dc8a26 3/1/2/1/3fe3a9a2cc5a0772 4/1/4/0/3fe1fba99a2c9c44 5/1/4/1/3fecd04c5603c36e 6/0/4/0/3feb1cbae4009c82 7/1/4/0/3fed9626729b4656"},
		{name: "pooled-multi-channel", seed: 8, links: 6, chans: 2, multi: true, pool: 8, budget: 500000,
			nodes: 12754, probes: 18136, exact: true, value: 0x402f47740f1195a6, relax: 0x402f47740f1195a6, extras: 4,
			sched: "0/0/4/1/3fd6405fefa6f2fc 0/1/4/0/3fee5caa35d851c4 1/0/4/1/3fc33219d714ee3e 1/1/4/0/3fca80fd6cd409b9 2/0/4/0/3fe315170288915c 2/1/4/1/3fd44e25500e4fe0 4/0/4/0/3fe079942cb3fb05 5/0/4/1/3fe4d38d9fd38412 5/1/4/0/3fda9c5a2b2fec17"},
		{name: "fixed-power", seed: 3, links: 8, chans: 2, fixed: true, budget: 500000,
			nodes: 571, probes: 1025, exact: true, value: 0x402601fe8f3b7df4, relax: 0x402601fe8f3b7df4, extras: 0,
			sched: "0/1/4/0/3ff0000000000000 1/1/4/0/3ff0000000000000 2/1/4/0/3ff0000000000000 3/0/4/0/3ff0000000000000 4/1/4/0/3ff0000000000000 5/1/4/0/3ff0000000000000 6/0/4/1/3ff0000000000000"},
		{name: "truncated", seed: 131, links: 14, chans: 3, global: true, pool: 8, budget: 300,
			nodes: 34, probes: 303, exact: false, value: 0x402d48841668ac5b, relax: 0x40327e6111205b6d, extras: 2,
			sched: "0/1/0/0/3fcb654df9cf4907 3/1/4/0/3febad5f6bef99f4 4/2/4/0/3fd86821e9fde530 5/0/4/0/3fe4cba2c005f844 6/2/4/0/3fdf9380edf914a4 8/2/4/1/3fe5fb3f52f46fd7 11/0/4/1/3fe4d8ca2c734124 12/2/4/0/3fe0c51422b61be4 13/1/4/0/3fe4eb41e221bdd3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			nw := servableNetwork(rng, tc.links, tc.chans)
			if tc.global {
				nw.Interference = netmodel.Global
			}
			nw.MultiChannel = tc.multi
			hp := make([]float64, tc.links)
			lp := make([]float64, tc.links)
			for i := range hp {
				hp[i] = rng.Float64() * 2e-8
				lp[i] = rng.Float64() * 2e-8
			}
			p := NewBranchBoundPricer(tc.budget)
			p.PoolLeaves = tc.pool
			p.FixedPower = tc.fixed
			want := fmt.Sprintf("nodes: %d, probes: %d, exact: %v, value: %#x, relax: %#x, sched: %q, extras: %d",
				tc.nodes, tc.probes, tc.exact, tc.value, tc.relax, tc.sched, tc.extras)
			// The second call reuses the pooled search state and polls a
			// live (never canceled) context; neither may move the walk.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			for call := 0; call < 2; call++ {
				var res *PriceResult
				var err error
				if call == 0 {
					res, err = p.Price(nw, [][]float64{hp, lp})
				} else {
					res, err = p.PriceContext(ctx, nw, [][]float64{hp, lp})
				}
				if err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("nodes: %d, probes: %d, exact: %v, value: %#x, relax: %#x, sched: %q, extras: %d",
					res.Nodes, res.Probes, res.Exact, math.Float64bits(res.Value), math.Float64bits(res.RelaxValue),
					walkSig(res.Schedule), len(res.Extras))
				if got != want {
					t.Errorf("call %d: walk changed:\n got %s\nwant %s", call, got, want)
				}
			}
		})
	}
}

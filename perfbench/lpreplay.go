package main

import (
	"fmt"
	"math"
	"time"

	"mmwave/internal/cg"
	"mmwave/internal/lp"
	"mmwave/internal/netmodel"
	"mmwave/internal/schedule"
	"mmwave/internal/video"
)

// p1Master rebuilds the P1 master LP over a column pool: one GE demand
// row per (class, link), class-major, and one unit-cost column per
// schedule carrying its rate vectors.
func p1Master(nw *netmodel.Network, cols []*schedule.Schedule, demands []video.Demand) (*lp.Problem, error) {
	L, nc := nw.NumLinks(), nw.TrafficClasses()
	p := lp.NewProblem(nil)
	for c := 0; c < nc; c++ {
		for l := 0; l < L; l++ {
			p.AddRow(nil, lp.GE, demands[l].At(c))
		}
	}
	for _, s := range cols {
		if err := appendColumn(p, nw, s); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func appendColumn(p *lp.Problem, nw *netmodel.Network, s *schedule.Schedule) error {
	L := nw.NumLinks()
	rates := s.RateVectorsByClass(nw)
	col := make([]float64, len(rates)*L)
	for c, rv := range rates {
		copy(col[c*L:], rv)
	}
	_, err := p.AddColumn(1, col)
	return err
}

func poolColumns(pool *schedule.Pool) []*schedule.Schedule {
	cols := make([]*schedule.Schedule, pool.Len())
	for i := range cols {
		cols[i] = pool.At(i)
	}
	return cols
}

// lpReplay is one master rebuilt from a final pool and solved two ways:
// cold over the whole pool, and warm the way column generation solves
// it — from the optimal basis of a pool prefix, after appending the
// next round's columns. Warm steps are replayed at a quarter, half,
// three quarters and all of the final pool and averaged, since the
// run's masters grew through those sizes.
type lpReplay struct {
	Cold, Warm time.Duration
}

// perRound is a solve's mean admitted columns per round, at least one.
func perRound(s cg.Stats) int {
	k := int(math.Round(ratio(float64(s.ColumnsAdded), float64(s.Rounds))))
	if k < 1 {
		k = 1
	}
	return k
}

func replayLP(nw *netmodel.Network, cols []*schedule.Schedule, demands []video.Demand, perRound int) (*lpReplay, error) {
	out := &lpReplay{}
	full, err := p1Master(nw, cols, demands)
	if err != nil {
		return nil, err
	}
	out.Cold, err = medianTime(func() (time.Duration, error) {
		var sol *lp.Solution
		d, err := timeCall(func() (err error) {
			sol, err = lp.NewSolver(full).Solve(lp.Options{})
			return err
		})
		if err != nil {
			return 0, err
		}
		if sol.Status != lp.StatusOptimal {
			return 0, fmt.Errorf("lp replay: cold master %v", sol.Status)
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	var warm []float64
	for q := 1; q <= 4; q++ {
		end := len(cols) * q / 4
		if end-perRound < 1 {
			continue
		}
		d, err := replayWarm(nw, cols[:end-perRound], cols[end-perRound:end], demands)
		if err != nil {
			return nil, err
		}
		if d > 0 {
			warm = append(warm, float64(d))
		}
	}
	out.Warm = time.Duration(mean(warm))
	return out, nil
}

// replayWarm times the warm master solve after appending next to the
// optimal basis over base. It reports 0 when base alone does not cover
// every demand row, so there is no warm step to replay.
func replayWarm(nw *netmodel.Network, base, next []*schedule.Schedule, demands []video.Demand) (time.Duration, error) {
	return medianTime(func() (time.Duration, error) {
		p, err := p1Master(nw, base, demands)
		if err != nil {
			return 0, err
		}
		s := lp.NewSolver(p)
		seed, err := s.Solve(lp.Options{})
		if err != nil {
			return 0, err
		}
		if seed.Status != lp.StatusOptimal {
			return 0, nil
		}
		for _, c := range next {
			if err := appendColumn(p, nw, c); err != nil {
				return 0, err
			}
		}
		var sol *lp.Solution
		d, err := timeCall(func() (err error) {
			sol, err = s.Solve(lp.Options{WarmBasis: seed.Basis})
			return err
		})
		if err != nil {
			return 0, err
		}
		if sol.Status != lp.StatusOptimal {
			return 0, fmt.Errorf("lp replay: warm master %v", sol.Status)
		}
		return d, nil
	})
}

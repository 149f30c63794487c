package experiment

import (
	"fmt"
	"math/rand"

	"mmwave/internal/channel"
	"mmwave/internal/netmodel"
	"mmwave/internal/video"
	"mmwave/internal/video/trace"
)

// Instance is one drawn simulation scenario: a network plus the
// per-link video demands for the scheduling period (one GOP).
type Instance struct {
	Network *netmodel.Network
	Demands []video.Demand
}

// NewInstance draws a network and demands from the config using rng.
// Instances are redrawn (bounded retries) until every link can reach
// the lowest rate level alone at PMax, matching the paper's implicit
// assumption that each link's demand is servable.
func NewInstance(cfg Config, rng *rand.Rand) (*Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	const maxTries = 200
	for try := 0; try < maxTries; try++ {
		nw, err := drawNetwork(cfg, rng)
		if err != nil {
			return nil, err
		}
		servable := true
		for l := 0; l < nw.NumLinks() && servable; l++ {
			_, sinr := nw.BestSingleLinkChannel(l)
			servable = nw.Rates.BestLevel(sinr) >= 0
		}
		if !servable {
			continue
		}
		demands, err := drawDemands(cfg, rng)
		if err != nil {
			return nil, err
		}
		return &Instance{Network: nw, Demands: demands}, nil
	}
	return nil, fmt.Errorf("experiment: no servable instance in %d draws (thresholds too high for the gain model?)", maxTries)
}

// drawNetwork samples the gain structure and topology.
func drawNetwork(cfg Config, rng *rand.Rand) (*netmodel.Network, error) {
	segs := cfg.Room.PlaceLinks(rng, cfg.NumLinks, cfg.LinkLenMin, cfg.LinkLenMax)
	gains := channel.TableI{}.Generate(rng, segs, cfg.NumChannels)

	links := make([]netmodel.Link, cfg.NumLinks)
	noise := make([]float64, cfg.NumLinks)
	for i := range links {
		links[i] = netmodel.Link{TXNode: 2 * i, RXNode: 2*i + 1, Seg: segs[i]}
		noise[i] = cfg.Noise
	}
	rates := netmodel.NewShannonRateTable(cfg.BandwidthHz, cfg.Gammas)
	interference := netmodel.Global
	if cfg.Interference == "per-channel" {
		interference = netmodel.PerChannel
	}
	nw := &netmodel.Network{
		Links:             links,
		NumChannels:       cfg.NumChannels,
		Gains:             gains,
		Noise:             noise,
		PMax:              cfg.PMax,
		Rates:             rates,
		BandwidthHz:       cfg.BandwidthHz,
		Interference:      interference,
		MultiChannel:      cfg.MultiChannel,
		NumTrafficClasses: cfg.TrafficClasses,
	}
	if err := nw.Validate(); err != nil {
		return nil, fmt.Errorf("experiment: drawn network invalid: %w", err)
	}
	return nw, nil
}

// drawDemands samples each link's next-GOP demand from the synthetic
// trace generator, splitting it across the configured traffic classes.
func drawDemands(cfg Config, rng *rand.Rand) ([]video.Demand, error) {
	gen, err := trace.NewGenerator(cfg.Trace, rng)
	if err != nil {
		return nil, err
	}
	sess := classSession(cfg)
	demands := make([]video.Demand, cfg.NumLinks)
	for l := range demands {
		demands[l] = gen.NextDemand(sess).Scale(cfg.DemandScale)
	}
	return demands, nil
}

// SliceShares is the default per-class traffic mix of the 3-class
// slice scenario: a thin URLLC class, eMBB carrying the bulk of the
// video, and a best-effort remainder shed first under overload.
func SliceShares() []float64 { return []float64{0.15, 0.55, 0.30} }

// SliceNames labels the three slice-scenario classes in class order.
func SliceNames() []string { return []string{"urllc", "embb", "besteffort"} }

// classSession resolves the session used to split GOP bits: with more
// than two traffic classes and no explicit share vector, the 3-class
// slice mix (or an even split for other widths) applies; otherwise the
// configured session is used untouched, keeping the two-class
// reproduction path byte-identical.
func classSession(cfg Config) video.Session {
	sess := cfg.Video
	if cfg.TrafficClasses > 2 && len(sess.Shares) == 0 {
		if cfg.TrafficClasses == 3 {
			sess.Shares = SliceShares()
		} else {
			sess.Shares = make([]float64, cfg.TrafficClasses)
			for i := range sess.Shares {
				sess.Shares[i] = 1
			}
		}
	}
	return sess
}

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mmwave/internal/api"
	"mmwave/internal/experiment"
	"mmwave/internal/faults"
	"mmwave/internal/netmodel"
	"mmwave/internal/pncd"
	"mmwave/internal/stats"
)

// serviceSpec is a pncd workload: an in-process server over loopback
// HTTP, driven through api.Client by one closed-loop caller. Each
// epoch submits every cell's demands (and, on CSI epochs, one channel
// update per cell), steps all cells, and reads every plan back.
type serviceSpec struct {
	cells    int
	cfg      experiment.Config // per-cell instance shape
	perSec   float64           // epochs per run second the run is sized to
	csiEvery int               // every csiEvery-th epoch carries CSI (0: never)
	load     faults.LoadConfig // demand trace (Links and Seed filled in)
	policy   *api.Policy
	solve    *api.Solve // nil: the wire default (no solve block)
	stream   int64
}

// deploySeed draws the pncd workloads' cell networks, so the deployment
// is fixed and the run's seed drives only the traffic and the CSI
// updates. Warm 8-link epochs differ by an order of magnitude between
// drawn deployments (pncd-churn epoch p50 14 ms for one pair of cells,
// 240 ms for another), far beyond any bound two cells can average out,
// and a fresh draw of pncd-tiny's sixteen networks moves plan_s_mean by
// up to 10%.
const deploySeed = 1

// gopBits is one Table-I GOP per link: the 171.44 Mb/s HD trace over a
// 12-frame GOP at 24 fps, split one third high priority.
const gopBits = 171.44e6 * 12 / 24

// pncdLoad is the per-link demand trace of both pncd workloads: one
// GOP per epoch with ±20% jitter.
func pncdLoad() faults.LoadConfig {
	return faults.LoadConfig{MeanHPBits: gopBits / 3, MeanLPBits: 2 * gopBits / 3, Jitter: 0.2}
}

func runPncdChurn(e *env) (*result, error) {
	cfg := experiment.DefaultConfig()
	cfg.NumLinks = 8
	// Over every five epochs: two in which one cell bursts, two plain,
	// one carrying CSI for both cells. The gated percentiles then fall
	// inside one kind of epoch (p50 among the burst epochs, p90 among
	// the CSI epochs) instead of on the step between two kinds.
	load := pncdLoad()
	load.Burstiness, load.BurstPeriod = 0.6, 5
	return runService(e, serviceSpec{
		cells:    2,
		cfg:      cfg,
		perSec:   25,
		csiEvery: 5,
		load:     load,
		policy:   &api.Policy{EpochBudget: 1.0},
		stream:   3 << 32,
	})
}

func runPncdTiny(e *env) (*result, error) {
	cfg := experiment.DefaultConfig()
	cfg.NumLinks = 4
	cfg.NumChannels = 2
	return runService(e, serviceSpec{
		cells:  16,
		cfg:    cfg,
		perSec: 60,
		load:   pncdLoad(),
		stream: 4 << 32,
	})
}

// epochInput is one epoch's traffic: per cell, its demand reports and
// (on CSI epochs) its channel updates.
type epochInput struct {
	demands [][]api.Demand
	csi     [][]api.CSI
}

// serviceInputs draws the cells' networks (from deploySeed) and every
// epoch's traffic, a pure function of the seed.
func serviceInputs(sp serviceSpec, seed int64, epochs int) ([]api.Network, []epochInput, error) {
	nets := make([]api.Network, sp.cells)
	for c := range nets {
		inst, err := experiment.NewInstance(sp.cfg, stats.Fork(deploySeed, sp.stream+int64(c)))
		if err != nil {
			return nil, nil, err
		}
		nets[c] = api.NetworkFromModel(inst.Network)
	}
	load := sp.load
	load.Links = sp.cfg.NumLinks
	load.Seed = seed
	gen, err := faults.NewLoadGen(load)
	if err != nil {
		return nil, nil, err
	}
	ins := make([]epochInput, epochs)
	for ep := range ins {
		for c := range nets {
			ds := gen.Demands(c, int64(ep))
			wire := make([]api.Demand, len(ds))
			for l, d := range ds {
				wire[l] = api.DemandFromModel(l, d)
			}
			ins[ep].demands = append(ins[ep].demands, wire)
		}
		if sp.csiEvery > 0 && ep%sp.csiEvery == sp.csiEvery-1 {
			rng := stats.Fork(seed, sp.stream+1<<20+int64(ep))
			for c := range nets {
				// Links take CSI turns round-robin; the seed draws the gains.
				link := (ep/sp.csiEvery + c) % len(nets[c].Links)
				ins[ep].csi = append(ins[ep].csi, []api.CSI{csiUpdate(nets[c], link, rng)})
			}
		}
	}
	return nets, ins, nil
}

// csiUpdate redraws a link's direct gains as its drawn gains scaled by
// U[0.8, 1.25) per channel, keeping the link servable alone at PMax so
// no demand is deferred.
func csiUpdate(nw api.Network, link int, rng *rand.Rand) api.CSI {
	base := nw.Direct[link]
	for try := 0; try < 16; try++ {
		gains := make([]float64, len(base))
		servable := false
		for k, g := range base {
			gains[k] = g * (0.8 + 0.45*rng.Float64())
			servable = servable || nw.PMax*gains[k]/nw.Noise[link] >= nw.RateGammas[0]
		}
		if servable {
			return api.CSI{Link: link, Gains: gains}
		}
	}
	return api.CSI{Link: link, Gains: append([]float64(nil), base...)}
}

// cloneNetwork deep-copies a wire network, so CSI applied to one copy
// never reaches another.
func cloneNetwork(n api.Network) (api.Network, error) {
	b, err := json.Marshal(n)
	if err != nil {
		return api.Network{}, err
	}
	var out api.Network
	err = json.Unmarshal(b, &out)
	return out, err
}

func modelNetwork(n api.Network) (*netmodel.Network, error) {
	c, err := cloneNetwork(n)
	if err != nil {
		return nil, err
	}
	return c.ToModel()
}

// spanRef carries the client span of a request into the transport.
type spanRef struct{ id, op int64 }

type spanKey struct{}

const spanHeader = "X-Perfbench-Span"

// linkTransport stamps the client span onto each outgoing request so
// the server middleware can parent its span to it.
type linkTransport struct{ base http.RoundTripper }

func (t linkTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref, ok := req.Context().Value(spanKey{}).(spanRef); ok {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(ref.id, 10)+"/"+strconv.FormatInt(ref.op, 10))
	}
	return t.base.RoundTrip(req)
}

// spanMiddleware times every request the server handles.
func spanMiddleware(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var parent, op int64
		if v := r.Header.Get(spanHeader); v != "" {
			if a, b, ok := strings.Cut(v, "/"); ok {
				parent, _ = strconv.ParseInt(a, 10, 64)
				op, _ = strconv.ParseInt(b, 10, 64)
			}
		}
		id, start := rec.begin()
		next.ServeHTTP(w, r)
		rec.end(id, parent, op, "pncd."+routeName(r), start)
	})
}

func routeName(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasSuffix(p, "/demands"), strings.HasSuffix(p, "/csi"):
		return "submit"
	case strings.HasSuffix(p, "/step"):
		return "step"
	case strings.HasSuffix(p, "/plan"):
		return "plan"
	case p == api.PathPrefix+"/cells":
		return "create"
	default:
		return "other"
	}
}

// pass is one server lifetime: start, admit the cells, run epochs,
// close.
type pass struct {
	rec    *recorder
	srv    *pncd.Server
	hs     *httptest.Server
	tr     *http.Transport
	client *api.Client
	ids    []int
	nets   []*netmodel.Network // local mirrors with CSI applied, for checks
	dir    string
}

// stateDir makes a fresh state directory under the run's output tree.
func stateDir(prefix string) (string, error) {
	tmp := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(tmp, prefix)
}

// openPass starts a server persisting to a fresh state directory and
// admits the cells.
func openPass(sp serviceSpec, nets []api.Network, rec *recorder) (*pass, error) {
	dir, err := stateDir("pncd-")
	if err != nil {
		return nil, err
	}
	p := &pass{rec: rec, dir: dir}
	srv, err := pncd.New(pncd.Config{StateDir: dir, Workers: 1})
	if err != nil {
		p.close()
		return nil, err
	}
	p.srv = srv
	var h http.Handler = srv.Handler()
	if rec != nil {
		h = spanMiddleware(rec, h)
	}
	p.hs = httptest.NewServer(h)
	p.tr = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	p.client = api.NewClient(p.hs.URL, &http.Client{Transport: linkTransport{p.tr}})
	for c := range nets {
		st, err := p.client.CreateCell(context.Background(), api.CellSpec{Network: &nets[c], Policy: sp.policy, Solve: sp.solve})
		if err != nil {
			p.close()
			return nil, fmt.Errorf("create cell %d: %w", c, err)
		}
		m, err := modelNetwork(nets[c])
		if err != nil {
			p.close()
			return nil, err
		}
		p.ids = append(p.ids, st.Cell)
		p.nets = append(p.nets, m)
	}
	return p, nil
}

// close stops the server and waits for it, and removes its state.
func (p *pass) close() {
	if p.tr != nil {
		p.tr.CloseIdleConnections()
	}
	if p.hs != nil {
		p.hs.Close()
	}
	if p.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = p.srv.Drain(ctx) // nothing is in flight: the caller is closed-loop
		cancel()
		p.srv.Close()
	}
	os.RemoveAll(p.dir)
}

// call times one client call into an "api.<name>" span.
func (p *pass) call(parent, op int64, name string, fn func(ctx context.Context) error) error {
	id, start := p.rec.begin()
	ctx := context.Background()
	if p.rec != nil {
		ctx = context.WithValue(ctx, spanKey{}, spanRef{id, op})
	}
	err := fn(ctx)
	p.rec.end(id, parent, op, "api."+name, start)
	return err
}

// epochOut is what one epoch returned over the wire.
type epochOut struct {
	ms      float64                 // wall time
	cpuMS   float64                 // process CPU time
	reports map[int]api.EpochReport // by cell ID
	plans   []api.PlanResponse      // indexed like pass.ids
	err     error
}

// epoch runs one closed-loop epoch: submit, step, read back.
func (p *pass) epoch(ep int, in epochInput) epochOut {
	op := int64(ep + 1)
	out := epochOut{plans: make([]api.PlanResponse, len(p.ids))}
	id, start := p.rec.begin()
	t0, c0 := time.Now(), processCPU()
	out.err = func() error {
		for c, cell := range p.ids {
			if err := p.call(id, op, "submit", func(ctx context.Context) error {
				_, err := p.client.SubmitDemands(ctx, cell, in.demands[c])
				return err
			}); err != nil {
				return fmt.Errorf("submit demands cell %d: %w", cell, err)
			}
		}
		for c, cell := range p.ids {
			if in.csi == nil {
				break
			}
			if err := p.call(id, op, "submit", func(ctx context.Context) error {
				_, err := p.client.SubmitCSI(ctx, cell, in.csi[c])
				return err
			}); err != nil {
				return fmt.Errorf("submit csi cell %d: %w", cell, err)
			}
		}
		var reps []api.EpochReport
		if err := p.call(id, op, "step", func(ctx context.Context) (err error) {
			reps, err = p.client.StepAll(ctx)
			return err
		}); err != nil {
			return fmt.Errorf("step: %w", err)
		}
		for c, cell := range p.ids {
			if err := p.call(id, op, "plan", func(ctx context.Context) (err error) {
				out.plans[c], err = p.client.Plan(ctx, cell)
				return err
			}); err != nil {
				return fmt.Errorf("plan cell %d: %w", cell, err)
			}
		}
		out.reports = make(map[int]api.EpochReport, len(reps))
		for _, r := range reps {
			out.reports[r.Cell] = r
		}
		return nil
	}()
	out.ms = ms(time.Since(t0))
	out.cpuMS = ms(processCPU() - c0)
	p.rec.end(id, 0, op, "epoch", start)
	return out
}

// serverCounters scrapes the server's deterministic counters from
// /metrics, outside any timed region.
func (p *pass) serverCounters() (map[string]float64, error) {
	text, err := p.client.Metrics(context.Background())
	if err != nil {
		return nil, err
	}
	return parseExposition(text), nil
}

// parseExposition reads "name value" lines of the text exposition.
func parseExposition(text string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

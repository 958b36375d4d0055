package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"krcore"
	"krcore/client"
	"krcore/internal/dataset"
	"krcore/server"
)

// loadPreset generates a preset dataset. The dataset is the preset's
// own (its fixed generator seed); the workload seed drives only the
// request streams. See README.md for why.
func loadPreset(name string) (*dataset.Dataset, error) {
	cfg, err := dataset.Preset(name)
	if err != nil {
		return nil, err
	}
	return dataset.Generate(cfg)
}

// communityMembers flattens the planted communities: the users whose
// containing queries have non-trivial answers.
func communityMembers(d *dataset.Dataset) []int32 {
	var out []int32
	seen := map[int32]bool{}
	for _, c := range d.Communities {
		for _, v := range c {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// hotPermilles and hotKs span the nine warmed dblp settings, listed in
// rank order by one rule for both parameters: the default first (k=5,
// the CLI's; r at the top 3‰, the dblp preset's), then the stricter
// neighbour, then the looser. No recorded query trace exists to rank
// by; the rule is an assumption, and README.md gives how far the gated
// metrics move under the opposite order.
var (
	hotPermilles = []float64{3, 2, 5}
	hotKs        = []int{5, 8, 3}
)

// rankSettings lists the k × r grid in popularity order.
func rankSettings(rs []float64) []setting {
	var out []setting
	for _, r := range rs {
		for _, k := range hotKs {
			out = append(out, setting{K: k, R: r})
		}
	}
	return out
}

// staticStack is one engine behind one server on a loopback port.
type staticStack struct {
	d     *dataset.Dataset
	hot   []setting // read-hot: warmed settings in rank order
	cold  *coldBackend
	stats func() krcore.EngineStats
	node  *node
	t     *tracer
	hc    *http.Client
	tr    *http.Transport
}

func (s *staticStack) close() {
	s.node.close()
	s.tr.CloseIdleConnections()
}

// setupHot builds read-hot's stack: the dblp preset, thresholds
// calibrated at the top 2, 3 and 5‰ of pairwise similarity, a static
// engine with all nine settings warmed, and the server.
func setupHot(t *tracer) (*staticStack, error) {
	d, err := loadPreset("dblp")
	if err != nil {
		return nil, err
	}
	rs := make([]float64, len(hotPermilles))
	for i, p := range hotPermilles {
		rs[i] = d.TopPermille(p)
	}
	eng := krcore.NewEngine(d.Graph, d.Metric())
	hot := rankSettings(rs)
	for _, st := range hot {
		if err := eng.Warm(st.K, st.R); err != nil {
			return nil, fmt.Errorf("warm k=%d r=%g: %w", st.K, st.R, err)
		}
	}
	s := &staticStack{d: d, hot: hot, stats: eng.Stats}
	return s, s.mount(t, eng)
}

// setupCold builds read-cold's stack: the dblp preset, the threshold
// range between the top 5‰ and top 2‰, and an empty engine.
func setupCold(t *tracer) (*staticStack, error) {
	d, err := loadPreset("dblp")
	if err != nil {
		return nil, err
	}
	cb := newColdBackend(d.Graph, d.Metric(), d.TopPermille(5), d.TopPermille(2))
	s := &staticStack{d: d, cold: cb, stats: cb.Stats}
	return s, s.mount(t, cb)
}

// mount puts b (traced when t is set) behind a server on a loopback node.
func (s *staticStack) mount(t *tracer, b server.Backend) error {
	s.t = t
	if t != nil {
		tb, err := traceBackend(t, b)
		if err != nil {
			return err
		}
		b = tb
	}
	srv, err := server.New(b, server.Config{Dataset: s.d.Name})
	if err != nil {
		return err
	}
	h := srv.Handler()
	if t != nil {
		h = traceHandler(t, layerServer, h)
	}
	if s.node, err = startNode(h); err != nil {
		return err
	}
	s.hc, s.tr = newHTTPClient(t, "")
	return nil
}

// loadFor returns the closed-loop read load of the workload.
func (s *staticStack) loadFor(cfg config) *readLoad {
	members := communityMembers(s.d)
	l := &readLoad{cl: client.New(s.node.url, client.WithHTTPClient(s.hc)), t: s.t, clients: readClients}
	if s.cold == nil {
		l.stream = newHotMix(cfg.seed, s.hot, members).at
		return l
	}
	mix := &coldMix{seed: cfg.seed, rLo: s.cold.rLo, rHi: s.cold.rHi, members: members}
	l.stream = mix.at
	l.gate = &sync.RWMutex{}
	l.before = func(i int64) {
		if i > 0 && i%coldEpoch == 0 {
			l.gate.Lock()
			s.cold.swap()
			l.gate.Unlock()
		}
	}
	return l
}

// readClients is the closed-loop client count of read-hot and
// read-cold: one per CPU of the 2-CPU reference host, so the clients
// neither idle a CPU nor queue behind each other.
const readClients = 2

// coldEpoch is how many cold requests one engine serves before the
// benchmark swaps in a fresh one. The engine cache never evicts and
// keeps about 0.6 MB per cold dblp setting, so an epoch bounds the
// retained cache near 60 MB; every setting stays fresh either way.
const coldEpoch = 96

// coldBackend fronts read-cold's engine of the current epoch. Swaps
// happen only while no request is in flight (the load's gate), so the
// retired engine's counters are final when they are folded in.
type coldBackend struct {
	g        *krcore.Graph
	m        krcore.Metric
	rLo, rHi float64
	cur      atomic.Pointer[krcore.Engine]

	mu      sync.Mutex
	retired krcore.EngineStats
}

func newColdBackend(g *krcore.Graph, m krcore.Metric, rLo, rHi float64) *coldBackend {
	b := &coldBackend{g: g, m: m, rLo: rLo, rHi: rHi}
	b.cur.Store(krcore.NewEngine(g, m))
	return b
}

func (b *coldBackend) swap() {
	old := b.cur.Swap(krcore.NewEngine(b.g, b.m))
	st := old.Stats()
	b.mu.Lock()
	b.retired.Hits += st.Hits
	b.retired.Misses += st.Misses
	b.mu.Unlock()
}

func (b *coldBackend) EnumerateContext(ctx context.Context, k int, r float64, opt krcore.EnumOptions) (*krcore.Result, error) {
	return b.cur.Load().EnumerateContext(ctx, k, r, opt)
}

func (b *coldBackend) EnumerateContainingContext(ctx context.Context, k int, r float64, v int32, opt krcore.EnumOptions) (*krcore.Result, error) {
	return b.cur.Load().EnumerateContainingContext(ctx, k, r, v, opt)
}

func (b *coldBackend) FindMaximumContext(ctx context.Context, k int, r float64, opt krcore.MaxOptions) (*krcore.Result, error) {
	return b.cur.Load().FindMaximumContext(ctx, k, r, opt)
}

func (b *coldBackend) Warm(k int, r float64) error { return b.cur.Load().Warm(k, r) }
func (b *coldBackend) Graph() *krcore.Graph        { return b.g }

func (b *coldBackend) SettingsStats() []krcore.SettingStats { return b.cur.Load().SettingsStats() }

// Stats sums the traffic counters over every epoch; the cache sizes are
// the current engine's.
func (b *coldBackend) Stats() krcore.EngineStats {
	st := b.cur.Load().Stats()
	b.mu.Lock()
	st.Hits += b.retired.Hits
	st.Misses += b.retired.Misses
	b.mu.Unlock()
	return st
}

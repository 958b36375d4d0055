package main

import (
	"context"
	"hash/fnv"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"krcore/api"
	"krcore/client"
)

// Query kinds, as they appear in metric names.
const (
	kindEnum       = "enum"
	kindMaximum    = "maximum"
	kindContaining = "containing"
)

var queryKinds = []string{kindEnum, kindMaximum, kindContaining}

type setting struct {
	K int
	R float64
}

type readReq struct {
	Kind string
	Set  setting
	V    int32 // query vertex of a containing request
}

// readRec is one completed read as the client saw it.
type readRec struct {
	idx    int64
	req    readReq
	lat    time.Duration
	ok     bool // 2xx and not timed out
	digest uint64
	nodes  int64
}

// digestCores hashes a query answer: the canonical cores and the
// search-tree node count. Equal digests mean bit-identical answers.
func digestCores(cores [][]int32, nodes int64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		for i := range buf {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(nodes))
	put(uint64(len(cores)))
	for _, c := range cores {
		put(uint64(len(c)))
		for _, v := range c {
			put(uint64(uint32(v)))
		}
	}
	return h.Sum64()
}

// hotMix is the warmed-settings request stream: a Zipf popularity
// over a fixed rank order of settings and a 40/30/30 enumerate /
// maximum / containing mix, with containing vertices drawn from
// community members. Requests are dealt in blocks of hotBlock: every
// block holds each (kind, setting) cell in its exact proportion,
// shuffled by the seed. Independent draws would let the handful of
// requests to the most expensive cell vary by a third between seeds,
// and throughput with them.
type hotMix struct {
	seed    int64
	members []int32
	cells   []readReq // one block's requests, before shuffling

	mu     sync.Mutex
	blocks map[int64][]int // block -> permutation of cells
}

// zipfExponent shapes the hot-setting popularity: with nine settings
// the most popular takes 38% of requests and the least 3.4%. It is an
// assumption, not fitted to a recorded trace; README.md gives how far
// the gated metrics move under another exponent.
const zipfExponent = 1.1

// hotBlock is the stratification block; it is large enough that the
// rarest cell (3.4% x 30% of requests) appears twice per block.
const hotBlock = 200

var hotKindShare = []struct {
	kind  string
	share float64
}{{kindEnum, 0.4}, {kindMaximum, 0.3}, {kindContaining, 0.3}}

func newHotMix(seed int64, settings []setting, members []int32) *hotMix {
	w := make([]float64, len(settings))
	total := 0.0
	for i := range settings {
		w[i] = math.Pow(float64(i+1), -zipfExponent)
		total += w[i]
	}
	// Largest-remainder apportionment of hotBlock slots to the cells.
	type cell struct {
		q    readReq
		n    int
		frac float64
	}
	var cells []cell
	used := 0
	for _, ks := range hotKindShare {
		for i, st := range settings {
			exact := hotBlock * ks.share * w[i] / total
			n := int(exact)
			used += n
			cells = append(cells, cell{q: readReq{Kind: ks.kind, Set: st}, n: n, frac: exact - float64(n)})
		}
	}
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cells[order[a]].frac > cells[order[b]].frac })
	for j := 0; used < hotBlock; j++ {
		cells[order[j]].n++
		used++
	}
	m := &hotMix{seed: seed, members: members, blocks: map[int64][]int{}}
	for _, c := range cells {
		for j := 0; j < c.n; j++ {
			m.cells = append(m.cells, c.q)
		}
	}
	return m
}

// block returns the seeded shuffle of block b.
func (m *hotMix) block(b int64) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.blocks[b]; ok {
		return p
	}
	p := make([]int, len(m.cells))
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := int(draw(m.seed, 2, uint64(b)*hotBlock+uint64(i)) * float64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	m.blocks[b] = p
	return p
}

func (m *hotMix) at(i int64) readReq {
	q := m.cells[m.block(i / hotBlock)[i%hotBlock]]
	if q.Kind == kindContaining {
		q.V = m.members[int(draw(m.seed, 3, uint64(i))*float64(len(m.members)))]
	}
	return q
}

// coldKs are the engagement thresholds each fresh r is queried at.
var coldKs = []int{3, 5, 8}

// coldMix is the never-repeating request stream: request i asks
// containing(v) at k = coldKs[i%3] and a fresh threshold r drawn
// uniformly from [rLo, rHi] for every block of three requests.
type coldMix struct {
	seed     int64
	rLo, rHi float64
	members  []int32
}

func (m *coldMix) at(i int64) readReq {
	ri := uint64(i) / uint64(len(coldKs))
	return readReq{
		Kind: kindContaining,
		Set: setting{
			K: coldKs[int(i)%len(coldKs)],
			R: m.rLo + (m.rHi-m.rLo)*draw(m.seed, 4, ri),
		},
		V: m.members[int(draw(m.seed, 5, uint64(i))*float64(len(m.members)))],
	}
}

// sendRead issues one query and returns its answer.
func sendRead(ctx context.Context, cl *client.Client, q readReq) (*api.QueryResponse, error) {
	switch q.Kind {
	case kindEnum:
		return cl.Enumerate(ctx, q.Set.K, q.Set.R, client.Options{})
	case kindMaximum:
		return cl.FindMaximum(ctx, q.Set.K, q.Set.R, client.Options{})
	default:
		return cl.EnumerateContaining(ctx, q.Set.K, q.Set.R, q.V, client.Options{})
	}
}

// readLoad is a closed loop: each of clients sends its next request
// when the previous one answered, until the window ends. Requests are
// taken in index order from one shared stream.
type readLoad struct {
	cl      *client.Client
	t       *tracer // nil: untraced
	clients int
	stream  func(i int64) readReq
	// before, when set, runs before request i is sent, outside gate.
	before func(i int64)
	// gate, when set, is read-held while a request is in flight, so
	// before can take it to wait for every in-flight request.
	gate *sync.RWMutex
}

// run drives the load for d and returns every completed request in
// index order plus the measured span from start to the last answer.
func (l *readLoad) run(ctx context.Context, d time.Duration) ([]readRec, time.Duration) {
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]readRec, l.clients)
	var wg sync.WaitGroup
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := next.Add(1) - 1
				if l.before != nil {
					l.before(i)
				}
				per[c] = append(per[c], l.one(ctx, i))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []readRec
	for _, recs := range per {
		out = append(out, recs...)
	}
	sortRecs(out)
	return out, elapsed
}

// one sends request i and times it.
func (l *readLoad) one(ctx context.Context, i int64) readRec {
	q := l.stream(i)
	if l.gate != nil {
		l.gate.RLock()
		defer l.gate.RUnlock()
	}
	var id uint64
	var start time.Duration
	if l.t != nil {
		id = l.t.newID()
		ctx = withSpan(ctx, id)
		start = l.t.now()
	}
	t0 := time.Now()
	resp, err := sendRead(ctx, l.cl, q)
	rec := readRec{idx: i, req: q, lat: time.Since(t0)}
	if l.t != nil {
		l.t.record(span{Layer: layerClient, Kind: q.Kind, ID: id, Start: start, End: l.t.now()})
	}
	if err == nil && !resp.TimedOut {
		rec.ok = true
		rec.nodes = resp.Nodes
		rec.digest = digestCores(resp.Cores, resp.Nodes)
	}
	return rec
}

func sortRecs(recs []readRec) {
	sort.Slice(recs, func(a, b int) bool { return recs[a].idx < recs[b].idx })
}

// node is one in-process HTTP server on a loopback port.
type node struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func startNode(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		n.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return n, nil
}

// close stops the server, cutting open connections, and waits for its
// accept loop to exit.
func (n *node) close() {
	n.hs.Close()
	<-n.done
}

// newHTTPClient returns a keep-alive client with its own transport.
// With a tracer, requests carry the caller's span id to the next hop;
// with a layer name they also record a span per round trip.
func newHTTPClient(t *tracer, layer string) (*http.Client, *http.Transport) {
	tr := &http.Transport{
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	var rt http.RoundTripper = tr
	if t != nil {
		rt = &traceTransport{inner: tr, t: t, layer: layer}
	}
	return &http.Client{Transport: rt}, tr
}

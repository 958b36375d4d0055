package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"krcore"
	"krcore/server"
)

// The traced run records spans only here, in the benchmark: around
// calls into each layer's public surface. A span is one call at a layer
// boundary; Parent links it to the span that caused it, so the spans of
// one request share a chain of identifiers across the loopback hops
// (the id travels in spanHeader).

// Span layer names.
const (
	layerClient  = "client"         // one request as the load generator saw it
	layerRouter  = "replica.router" // router handler
	layerForward = "replica.forward"
	layerServer  = "server"         // node handler (query or update endpoint)
	layerEngine  = "engine.query"   // server.Backend query call
	layerApply   = "engine.apply"   // server.Updater.ApplyBatch
	layerJournal = "updates.append" // krcore.JournalAppender.AppendBatch
)

// spanHeader carries the calling span's id across an HTTP hop.
const spanHeader = "X-Krbench-Span"

type span struct {
	Layer  string        `json:"layer"`
	Kind   string        `json:"kind,omitempty"`
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// N is a layer-specific count: response bytes for handlers,
	// search-tree nodes for engine queries, operations for appends.
	N int64 `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer is the
// untraced run: nothing is wrapped, so nothing records.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// dump writes every span as one JSON line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// tracedPaths are the request paths whose handler spans are recorded:
// queries and updates. Replication long-polls, snapshots, probes and
// scrapes pass through unrecorded.
var tracedPaths = map[string]string{
	"/v1/enumerate": "enumerate",
	"/v1/maximum":   "maximum",
	"/v1/update":    "update",
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// traceHandler records one span per query or update request handled by
// h, parented to the span id the caller sent in spanHeader, and hands
// its own id to everything below through the request context.
func traceHandler(t *tracer, layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind, ok := tracedPaths[r.URL.Path]
		if !ok || r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		id := t.newID()
		start := t.now()
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r.WithContext(withSpan(r.Context(), id)))
		t.record(span{Layer: layer, Kind: kind, ID: id, Parent: parent, Start: start, End: t.now(), N: cw.n})
	})
}

// traceTransport forwards the span id in a request's context to the
// next hop in spanHeader. With a layer name it also records a span of
// its own around the round trip and forwards that id instead. Requests
// without a span (health probes, replication polls) pass through.
type traceTransport struct {
	inner http.RoundTripper
	t     *tracer
	layer string
}

func (tt *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := spanOf(req.Context())
	if parent == 0 {
		return tt.inner.RoundTrip(req)
	}
	id := parent
	if tt.layer != "" {
		id = tt.t.newID()
	}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	if tt.layer == "" {
		return tt.inner.RoundTrip(req)
	}
	start := tt.t.now()
	resp, err := tt.inner.RoundTrip(req)
	tt.t.record(span{Layer: tt.layer, ID: id, Parent: parent, Start: start, End: tt.t.now()})
	return resp, err
}

// Optional backend surfaces the server type-asserts. The wrappers below
// must expose exactly the ones their inner backend has, or the traced
// run would serve a different program (no update endpoint, no
// per-setting series, no replication offset).
type (
	settingsStatser interface {
		SettingsStats() []krcore.SettingStats
	}
	offsetter       interface{ JournalOffset() int64 }
	attributeKinder interface{ AttributeKind() string }
)

// tracedQueries wraps the server.Backend query calls in engine spans.
type tracedQueries struct {
	inner server.Backend
	t     *tracer
}

func (b *tracedQueries) query(ctx context.Context, kind string, fn func() (*krcore.Result, error)) (*krcore.Result, error) {
	id := b.t.newID()
	start := b.t.now()
	res, err := fn()
	s := span{Layer: layerEngine, Kind: kind, ID: id, Parent: spanOf(ctx), Start: start, End: b.t.now()}
	if res != nil {
		s.N = res.Nodes
	}
	b.t.record(s)
	return res, err
}

func (b *tracedQueries) EnumerateContext(ctx context.Context, k int, r float64, opt krcore.EnumOptions) (*krcore.Result, error) {
	return b.query(ctx, "enum", func() (*krcore.Result, error) { return b.inner.EnumerateContext(ctx, k, r, opt) })
}

func (b *tracedQueries) EnumerateContainingContext(ctx context.Context, k int, r float64, v int32, opt krcore.EnumOptions) (*krcore.Result, error) {
	return b.query(ctx, "containing", func() (*krcore.Result, error) {
		return b.inner.EnumerateContainingContext(ctx, k, r, v, opt)
	})
}

func (b *tracedQueries) FindMaximumContext(ctx context.Context, k int, r float64, opt krcore.MaxOptions) (*krcore.Result, error) {
	return b.query(ctx, "maximum", func() (*krcore.Result, error) { return b.inner.FindMaximumContext(ctx, k, r, opt) })
}

func (b *tracedQueries) Warm(k int, r float64) error { return b.inner.Warm(k, r) }
func (b *tracedQueries) Stats() krcore.EngineStats   { return b.inner.Stats() }
func (b *tracedQueries) Graph() *krcore.Graph        { return b.inner.Graph() }

// tracedStatic adds the per-setting statistics surface.
type tracedStatic struct {
	tracedQueries
	settings settingsStatser
}

func (b *tracedStatic) SettingsStats() []krcore.SettingStats { return b.settings.SettingsStats() }

// dynamicBackend is every surface the server asserts on a dynamic
// engine or a follower.
type dynamicBackend interface {
	server.Backend
	server.Updater
	settingsStatser
	offsetter
	attributeKinder
}

// tracedDynamic adds the update, offset and attribute-kind surfaces;
// ApplyBatch calls record engine.apply spans.
type tracedDynamic struct {
	tracedStatic
	dyn dynamicBackend
}

func (b *tracedDynamic) ApplyBatch(batch []krcore.Update) error {
	id := b.t.newID()
	start := b.t.now()
	err := b.dyn.ApplyBatch(batch)
	b.t.record(span{Layer: layerApply, ID: id, Start: start, End: b.t.now(), N: int64(len(batch))})
	return err
}

func (b *tracedDynamic) DynamicStats() krcore.DynamicStats { return b.dyn.DynamicStats() }
func (b *tracedDynamic) JournalOffset() int64              { return b.dyn.JournalOffset() }
func (b *tracedDynamic) AttributeKind() string             { return b.dyn.AttributeKind() }

// traceBackend wraps b so that it exposes the same optional surfaces.
// It refuses a backend whose surfaces it cannot reproduce exactly.
func traceBackend(t *tracer, b server.Backend) (server.Backend, error) {
	q := tracedQueries{inner: b, t: t}
	if d, ok := b.(dynamicBackend); ok {
		return &tracedDynamic{tracedStatic: tracedStatic{tracedQueries: q, settings: d}, dyn: d}, nil
	}
	_, upd := b.(server.Updater)
	_, off := b.(offsetter)
	_, ak := b.(attributeKinder)
	st, ss := b.(settingsStatser)
	if upd || off || ak || !ss {
		return nil, fmt.Errorf("trace: cannot wrap %T without changing its surfaces", b)
	}
	return &tracedStatic{tracedQueries: q, settings: st}, nil
}

// tracedJournal wraps the engine's write-ahead journal hook.
type tracedJournal struct {
	inner krcore.JournalAppender
	t     *tracer
}

func (j *tracedJournal) AppendBatch(batch []krcore.Update) error {
	id := j.t.newID()
	start := j.t.now()
	err := j.inner.AppendBatch(batch)
	j.t.record(span{Layer: layerJournal, ID: id, Start: start, End: j.t.now(), N: int64(len(batch))})
	return err
}

// selfTimes returns, for every span of the parent layer, its duration
// minus the durations of its children of the child layer (matched by
// Parent id), in milliseconds.
func selfTimes(spans []span, parentLayer, childLayer string) []float64 {
	child := map[uint64]time.Duration{}
	for _, s := range spans {
		if s.Layer == childLayer && s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Layer == parentLayer {
			out = append(out, ms(s.dur()-child[s.ID]))
		}
	}
	return out
}

// containedSelfTimes is selfTimes for layers whose calls carry no
// context (ApplyBatch, AppendBatch): children are the child-layer spans
// lying inside the parent's interval.
func containedSelfTimes(spans []span, parentLayer, childLayer string) []float64 {
	var parents, children []span
	for _, s := range spans {
		switch s.Layer {
		case parentLayer:
			parents = append(parents, s)
		case childLayer:
			children = append(children, s)
		}
	}
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	out := make([]float64, 0, len(parents))
	for _, p := range parents {
		d := p.dur()
		i := sort.Search(len(children), func(i int) bool { return children[i].Start >= p.Start })
		for ; i < len(children) && children[i].Start < p.End; i++ {
			if children[i].End <= p.End {
				d -= children[i].dur()
			}
		}
		out = append(out, ms(d))
	}
	return out
}

// durations returns the durations (ms) of the layer's spans.
func durations(spans []span, layer string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Layer == layer {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

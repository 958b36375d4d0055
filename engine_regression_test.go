package krcore

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedMetric is a distance metric over 1-D positions whose Score
// blocks until released: it holds the engine's (k,r) preparation open
// in mid-build so tests can observe the cache counters while N queries
// are stampeding one cold key.
type gatedMetric struct {
	pos     []float64
	started chan struct{} // closed on the first Score call
	release chan struct{} // Score blocks until this closes
	once    sync.Once
}

func (m *gatedMetric) Score(u, v int32) float64 {
	m.once.Do(func() { close(m.started) })
	<-m.release
	return math.Abs(m.pos[u] - m.pos[v])
}
func (m *gatedMetric) Distance() bool { return true }
func (m *gatedMetric) Name() string   { return "gated-abs" }

// TestEngineColdKeyStampedeCountsMisses is the regression test for the
// cache-hit miscount: concurrent cold queries for the same (k,r) all
// block on the entry's once while one of them builds it, so every one
// of them pays the preparation latency — none is a hit. The pre-fix
// code counted every caller except the map-inserter as a hit.
func TestEngineColdKeyStampedeCountsMisses(t *testing.T) {
	const n = 10
	b := NewGraphBuilder(n)
	for i := int32(0); i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	g := b.Build()
	pos := make([]float64, n)
	for i := range pos {
		pos[i] = float64(i)
	}
	m := &gatedMetric{pos: pos, started: make(chan struct{}), release: make(chan struct{})}
	eng := NewEngine(g, m)

	const racers = 8
	var wg sync.WaitGroup
	errc := make(chan error, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := eng.Enumerate(2, 100, EnumOptions{})
			if err == nil && len(res.Cores) != 1 {
				err = fmt.Errorf("got %d cores, want 1", len(res.Cores))
			}
			errc <- err
		}()
	}

	// The build is now in progress (first Score call observed) and
	// blocked on release. Wait until every racer has recorded its
	// counter — they do so before blocking on the entry's once — then
	// assert the invariant of this bugfix: no query is a hit while the
	// build it depends on is still running.
	<-m.started
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := eng.Stats()
		if st.Hits+st.Misses == racers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("racers never registered: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	st := eng.Stats()
	if st.Hits != 0 {
		t.Fatalf("queries counted as hits while the cold build was still running: %+v", st)
	}
	if st.Misses < 1 {
		t.Fatalf("no miss recorded for a cold build: %+v", st)
	}

	close(m.release)
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}

	// With the entry fully built, the next query is a pure hit.
	before := eng.Stats()
	if _, err := eng.Enumerate(2, 100, EnumOptions{}); err != nil {
		t.Fatal(err)
	}
	after := eng.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("warm query was not a hit: before %+v, after %+v", before, after)
	}
}

// countingMetric counts pairwise evaluations, so tests can tell whether
// an engine operation touched the graph-wide edge filter.
type countingMetric struct {
	pos   []float64
	calls atomic.Int64
}

func (m *countingMetric) Score(u, v int32) float64 {
	m.calls.Add(1)
	return math.Abs(m.pos[u] - m.pos[v])
}
func (m *countingMetric) Distance() bool { return true }
func (m *countingMetric) Name() string   { return "counting-abs" }

// TestEngineOracleFastPath is the regression test for the Oracle fast
// path: asking the engine for a similarity oracle must build the oracle
// and its index only — not run the dissimilar-edge filter over every
// edge of the graph — and must be visible in the hit/miss counters.
// The pre-fix code forced the full per-r build and bypassed the
// counters entirely.
func TestEngineOracleFastPath(t *testing.T) {
	const n = 60
	b := NewGraphBuilder(n)
	for i := int32(0); i+1 < n; i++ {
		b.AddEdge(i, i+1) // a path: n-1 edges the filter would evaluate
	}
	g := b.Build()
	pos := make([]float64, n)
	for i := range pos {
		pos[i] = float64(i % 7)
	}
	m := &countingMetric{pos: pos}
	eng := NewEngine(g, m)

	o1, err := eng.Oracle(3)
	if err != nil {
		t.Fatal(err)
	}
	if o1 == nil {
		t.Fatal("nil oracle")
	}
	if calls := m.calls.Load(); calls != 0 {
		t.Fatalf("Oracle(r) evaluated %d vertex pairs; the edge filter must stay lazy", calls)
	}
	st := eng.Stats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("Oracle call bypassed the cache counters: %+v", st)
	}
	if st.Thresholds != 1 {
		t.Fatalf("Oracle call did not cache its threshold slot: %+v", st)
	}

	// A repeated call is a hit and returns the same cached oracle.
	o2, err := eng.Oracle(3)
	if err != nil {
		t.Fatal(err)
	}
	if o2 != o1 {
		t.Fatal("repeated Oracle call rebuilt the oracle")
	}
	st = eng.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("repeated Oracle call not counted as a hit: %+v", st)
	}
	if calls := m.calls.Load(); calls != 0 {
		t.Fatalf("repeated Oracle call evaluated %d pairs", calls)
	}

	// The first (k,r) query at the same threshold pays the filter once
	// and reuses the already-built oracle.
	if _, err := eng.Enumerate(2, 3, EnumOptions{}); err != nil {
		t.Fatal(err)
	}
	if calls := m.calls.Load(); calls == 0 {
		t.Fatal("query did not run the edge filter at all")
	}
	o3, err := eng.Oracle(3)
	if err != nil {
		t.Fatal(err)
	}
	if o3 != o1 {
		t.Fatal("query rebuilt the oracle instead of reusing the cached slot")
	}
}

// TestEngineContextVariants exercises the context-aware query surface
// the serving daemon maps request deadlines onto.
func TestEngineContextVariants(t *testing.T) {
	g, geo := buildServingInstance()
	eng := NewEngine(g, geo.Metric())

	done, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := eng.EnumerateContext(done, 3, 8, EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatal("cancelled context did not abort the search")
	}
	if res, err = eng.FindMaximumContext(done, 3, 8, MaxOptions{}); err != nil || !res.TimedOut {
		t.Fatalf("cancelled max search: res=%+v err=%v", res, err)
	}
	if res, err = eng.EnumerateContainingContext(done, 3, 8, 0, EnumOptions{}); err != nil || !res.TimedOut {
		t.Fatalf("cancelled containing search: res=%+v err=%v", res, err)
	}

	// A live context leaves the result identical to the plain call.
	want, err := eng.Enumerate(3, 8, EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.EnumerateContext(context.Background(), 3, 8, EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Cores) != fmt.Sprint(want.Cores) {
		t.Fatalf("context variant diverged: %v != %v", got.Cores, want.Cores)
	}

	// When both the argument context and Limits.Context are set, either
	// one cancels the search.
	res, err = eng.EnumerateContext(context.Background(), 3, 8, EnumOptions{Limits: Limits{Context: done}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatal("cancelled Limits.Context was dropped by the merge")
	}
	res, err = eng.EnumerateContext(done, 3, 8, EnumOptions{Limits: Limits{Context: context.Background()}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatal("cancelled argument context was dropped by the merge")
	}

	// The dynamic engine exposes the same surface.
	geo2 := NewGeoAttributes(g.N())
	for u := 0; u < g.N(); u++ {
		p := geo.store.Read().Vertex(int32(u))
		geo2.Set(int32(u), p.X, p.Y)
	}
	deng, err := NewDynamicEngine(g, geo2)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := deng.EnumerateContext(context.Background(), 3, 8, EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(dres.Cores) != fmt.Sprint(want.Cores) {
		t.Fatalf("dynamic context variant diverged: %v != %v", dres.Cores, want.Cores)
	}
	if dres, err = deng.FindMaximumContext(done, 3, 8, MaxOptions{}); err != nil || !dres.TimedOut {
		t.Fatalf("dynamic cancelled max search: res=%+v err=%v", dres, err)
	}
	if dres, err = deng.EnumerateContainingContext(done, 3, 8, 0, EnumOptions{}); err != nil || !dres.TimedOut {
		t.Fatalf("dynamic cancelled containing search: res=%+v err=%v", dres, err)
	}
}

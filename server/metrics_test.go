package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"krcore"
	"krcore/client"
	"krcore/internal/metrics"
)

// testDynamic builds a dynamic engine over the same two-cluster geo
// instance as testEngine.
func testDynamic(t *testing.T) *krcore.DynamicEngine {
	t.Helper()
	const n = 40
	b := krcore.NewGraphBuilder(n)
	for c := 0; c < 2; c++ {
		base := int32(c * 20)
		for i := int32(0); i < 20; i++ {
			for j := i + 1; j < 20; j++ {
				if (i+j)%3 != 0 {
					b.AddEdge(base+i, base+j)
				}
			}
		}
	}
	geo := krcore.NewGeoAttributes(n)
	for u := int32(0); u < n; u++ {
		geo.Set(u, float64(u/20)*100, float64(u%20))
	}
	d, err := krcore.NewDynamicEngine(b.Build(), geo)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// faultyUpdater wraps a dynamic engine but fails every ApplyBatch with
// a non-BatchError — the shape of a write-ahead journal append failure.
type faultyUpdater struct {
	*krcore.DynamicEngine
}

func (f *faultyUpdater) ApplyBatch([]krcore.Update) error {
	return errors.New("journal append: disk full")
}

// TestErrorCounterSplit is the regression test for splitting the
// lumped errs counter: client faults land in client_errors, engine
// faults in server_errors, admission rejections in neither, and the
// legacy Errors field stays their sum.
func TestErrorCounterSplit(t *testing.T) {
	s, c := newTestServer(t, &faultyUpdater{testDynamic(t)}, Config{})
	ctx := context.Background()

	// Client fault 1: malformed JSON body.
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	resp, err := http.Post(hs.URL+"/v1/enumerate", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
	// Client fault 2: invalid parameters.
	if _, err := c.Enumerate(ctx, 0, 25, client.Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	// Server fault: the engine fails the batch with a non-validation
	// error; pre-split this was lumped with the client's typos.
	_, err = c.ApplyBatch(ctx, []krcore.Update{krcore.AddEdgeUpdate(0, 1)})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusInternalServerError {
		t.Fatalf("journal-style fault returned %v, want APIError 500", err)
	}

	st := s.ServerStats()
	if st.ClientErrors != 2 {
		t.Fatalf("ClientErrors = %d, want 2", st.ClientErrors)
	}
	if st.ServerErrors != 1 {
		t.Fatalf("ServerErrors = %d, want 1", st.ServerErrors)
	}
	if st.Errors != st.ClientErrors+st.ServerErrors {
		t.Fatalf("Errors = %d, not the sum %d+%d", st.Errors, st.ClientErrors, st.ServerErrors)
	}
	if st.Rejected != 0 {
		t.Fatalf("Rejected = %d, want 0", st.Rejected)
	}

	// The split must survive the wire format too.
	wire, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if wire.Server.ClientErrors != 2 || wire.Server.ServerErrors != 1 || wire.Server.Errors != 3 {
		t.Fatalf("wire stats = %+v, want 2/1/3", wire.Server)
	}
}

// TestRejectionNotAnError pins that a 429 increments Rejected only —
// neither error counter moves.
func TestRejectionNotAnError(t *testing.T) {
	eng, _ := testEngine(t)
	s, _ := newTestServer(t, eng, Config{MaxConcurrent: 1, MaxQueue: 1, QueueWait: 10 * time.Millisecond})
	// Occupy the only slot and fill the queue slot so the next request
	// is turned away immediately.
	s.slots <- struct{}{}
	defer func() { <-s.slots }()
	s.waiters.Add(1)
	defer s.waiters.Add(-1)

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/enumerate", strings.NewReader(`{"k":3,"r":25}`))
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	st := s.ServerStats()
	if st.Rejected != 1 || st.Errors != 0 || st.ClientErrors != 0 || st.ServerErrors != 0 {
		t.Fatalf("stats after 429 = %+v, want rejected=1 and zero errors", st)
	}
}

// brokenWriter is a ResponseWriter whose connection has gone away:
// every body write fails with a transport error.
type brokenWriter struct {
	h http.Header
}

func (b *brokenWriter) Header() http.Header {
	if b.h == nil {
		b.h = make(http.Header)
	}
	return b.h
}
func (b *brokenWriter) WriteHeader(int) {}
func (b *brokenWriter) Write([]byte) (int, error) {
	return 0, errors.New("write tcp: broken pipe")
}

// TestWriteJSONFailureMetrics checks response-write failures are no
// longer discarded: transport failures count as disconnects, encoder
// rejections as encode bugs, and successes count as neither.
func TestWriteJSONFailureMetrics(t *testing.T) {
	eng, _ := testEngine(t)
	s, err := New(eng, Config{})
	if err != nil {
		t.Fatal(err)
	}

	s.writeJSON(&brokenWriter{}, http.StatusOK, map[string]string{"ok": "yes"})
	if got := s.writeFails.With("disconnect").Value(); got != 1 {
		t.Fatalf("disconnect failures = %d, want 1", got)
	}
	if got := s.writeFails.With("encode").Value(); got != 0 {
		t.Fatalf("encode failures = %d, want 0", got)
	}

	// A channel is unserialisable: the encoder itself fails even though
	// the writer is fine — that is a server-side bug, not a disconnect.
	s.writeJSON(httptest.NewRecorder(), http.StatusOK, map[string]any{"ch": make(chan int)})
	if got := s.writeFails.With("encode").Value(); got != 1 {
		t.Fatalf("encode failures = %d, want 1", got)
	}

	s.writeJSON(httptest.NewRecorder(), http.StatusOK, map[string]string{"ok": "yes"})
	if d, e := s.writeFails.With("disconnect").Value(), s.writeFails.With("encode").Value(); d != 1 || e != 1 {
		t.Fatalf("counters moved on a successful write: disconnect=%d encode=%d", d, e)
	}
}

// TestAdmissionAccountingStress hammers the admission path from many
// goroutines — immediate grabs, queued waits, cancelled contexts and
// timed-out waits all interleaved — then checks the books balance: the
// waiters gauge returns to zero, no slot leaks, in-flight drains, and
// the recorded peak is monotonic and at least the maximum concurrency
// actually observed. Run with -race to check the accounting is also
// data-race-free.
func TestAdmissionAccountingStress(t *testing.T) {
	eng, _ := testEngine(t)
	s, err := New(eng, Config{MaxConcurrent: 3, MaxQueue: 8, QueueWait: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 32
	const iters = 150
	var maxSeen atomic.Int64
	var admitted, rejected atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < iters; n++ {
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				switch rng.Intn(4) {
				case 0: // cancelled while queued
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(200))*time.Microsecond)
				case 1: // already dead on arrival
					ctx, cancel = context.WithCancel(ctx)
					cancel()
				}
				err := s.acquire(ctx)
				cancel()
				if err != nil {
					rejected.Add(1)
					continue
				}
				admitted.Add(1)
				done := s.trackInFlight()
				cur := s.inFlight.Load()
				for {
					m := maxSeen.Load()
					if cur <= m || maxSeen.CompareAndSwap(m, cur) {
						break
					}
				}
				if rng.Intn(2) == 0 {
					time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
				}
				done()
				s.release()
			}
		}(int64(i))
	}
	wg.Wait()

	if got := s.waiters.Load(); got != 0 {
		t.Errorf("waiters gauge = %d after drain, want 0", got)
	}
	if got := s.inFlight.Load(); got != 0 {
		t.Errorf("in-flight gauge = %d after drain, want 0", got)
	}
	if got := len(s.slots); got != 0 {
		t.Errorf("%d search slots leaked", got)
	}
	peak := s.peak.Load()
	if peak < maxSeen.Load() {
		t.Errorf("peak %d below observed concurrency %d", peak, maxSeen.Load())
	}
	if peak > int64(s.cfg.MaxConcurrent) {
		t.Errorf("peak %d exceeds the admission limit %d", peak, s.cfg.MaxConcurrent)
	}
	if admitted.Load() == 0 || rejected.Load() == 0 {
		t.Fatalf("stress exercised only one path: admitted=%d rejected=%d", admitted.Load(), rejected.Load())
	}
	// One more acquire must still work: no slot was lost.
	if err := s.acquire(context.Background()); err != nil {
		t.Fatalf("post-stress acquire failed: %v", err)
	}
	s.release()
}

// TestMetricsEndpoint drives real traffic through the server and
// checks the Prometheus export end to end: content type, well-formed
// families, live query counters, per-endpoint histograms and
// per-setting cache series.
func TestMetricsEndpoint(t *testing.T) {
	eng, _ := testEngine(t)
	s, c := newTestServer(t, eng, Config{Dataset: "toy"})
	ctx := context.Background()

	if err := c.Warm(ctx, 3, 25); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Enumerate(ctx, 3, 25, client.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.FindMaximum(ctx, 3, 25, client.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Enumerate(ctx, 0, 25, client.Options{}); err == nil {
		t.Fatal("invalid query accepted")
	}

	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != metrics.TextContentType {
		t.Fatalf("content type %q, want %q", ct, metrics.TextContentType)
	}

	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "# TYPE krcored_queries_total counter") ||
		!strings.Contains(text, "# TYPE krcored_http_request_seconds histogram") {
		t.Fatalf("export missing TYPE headers:\n%s", text)
	}
	samples := client.ParseMetrics(text)
	checks := []struct {
		series string
		want   float64
	}{
		{"krcored_queries_total", 4},
		{"krcored_client_errors_total", 1},
		{"krcored_server_errors_total", 0},
		{`krcored_http_request_seconds_count{endpoint="enumerate"}`, 4},
		{`krcored_search_seconds_count{endpoint="maximum"}`, 1},
		{"krcored_admission_wait_seconds_count", 5},
		{`krcored_engine_setting_hits_total{k="3",r="25"}`, 4},
		{`krcored_engine_setting_misses_total{k="3",r="25"}`, 1},
		{"krcored_search_slots", 4},
		{"krcored_queue_depth", 0},
	}
	for _, ck := range checks {
		got, ok := samples[ck.series]
		if !ok {
			t.Errorf("series %s missing from export", ck.series)
			continue
		}
		if got != ck.want {
			t.Errorf("%s = %v, want %v", ck.series, got, ck.want)
		}
	}
	// Histogram plumbing: the +Inf bucket of the request histogram must
	// agree with its _count.
	inf := samples[`krcored_http_request_seconds_bucket{endpoint="enumerate",le="+Inf"}`]
	if inf != samples[`krcored_http_request_seconds_count{endpoint="enumerate"}`] {
		t.Errorf("+Inf bucket %v disagrees with count", inf)
	}
	if _, ok := samples["krcored_go_goroutines"]; !ok {
		t.Error("runtime gauges missing from export")
	}
}

// TestDynamicMetricsWiring checks the dynamic-only series: update
// counters, group-commit observers routed from the engine, and the
// journal gauge fed by Config.JournalLen.
func TestDynamicMetricsWiring(t *testing.T) {
	d := testDynamic(t)
	var tail atomic.Int64
	s, c := newTestServer(t, d, Config{JournalLen: tail.Load})
	d.SetCommitObserver(s.ObserveGroupCommit)
	ctx := context.Background()

	if _, err := c.ApplyBatch(ctx, []krcore.Update{krcore.AddVertexUpdate()}); err != nil {
		t.Fatal(err)
	}
	s.ObserveJournalAppend(1, 250*time.Microsecond)
	tail.Store(7)

	samples := client.ParseMetrics(mustMetrics(t, c))
	for series, want := range map[string]float64{
		"krcored_updates_applied_total":        1,
		"krcored_dynamic_batches_total":        1,
		"krcored_dynamic_group_commits_total":  1,
		"krcored_group_commit_batches_count":   1,
		"krcored_group_commit_ops_sum":         1,
		"krcored_journal_appended_ops_total":   1,
		"krcored_journal_append_seconds_count": 1,
		"krcored_journal_tail_ops":             7,
	} {
		if got := samples[series]; got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
}

func mustMetrics(t *testing.T, c *client.Client) string {
	t.Helper()
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// TestParseMetrics pins the client-side scraper on a hand-written
// export, including labeled series, comments and malformed lines.
func TestParseMetrics(t *testing.T) {
	text := "# HELP x help\n# TYPE x counter\nx 41\n" +
		"h_bucket{le=\"+Inf\"} 3\nh_sum 0.5\n" +
		"bad line with no number trailing\n\n"
	got := client.ParseMetrics(text)
	want := map[string]float64{
		"x":                   41,
		`h_bucket{le="+Inf"}`: 3,
		"h_sum":               0.5,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if fmt.Sprint(got["missing"]) != "0" {
		t.Error("missing series should read zero")
	}
}

// TestMetricsTotalsMonotoneAcrossCommits scrapes /metrics while
// structure-only commits race with hot queries. No _total series may
// ever decrease, and once the traffic stops the engine's hit and miss
// totals, overall and per setting, must account for every lookup: an
// advance has to carry each lookup served by the outgoing generation
// into the counters of the next one, or the lookup is lost and a
// scraper reads a counter reset.
func TestMetricsTotalsMonotoneAcrossCommits(t *testing.T) {
	d := testDynamic(t)
	s, c := newTestServer(t, d, Config{})
	d.SetCommitObserver(s.ObserveGroupCommit)
	ctx := context.Background()
	settings := []int{3, 4}
	for _, k := range settings {
		if err := c.Warm(ctx, k, 25); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 5)
	lookups := make([]atomic.Int64, len(settings))
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := settings[w%len(settings)]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				if i%2 == 0 {
					_, err = c.Enumerate(ctx, k, 25, client.Options{})
				} else {
					_, err = c.FindMaximum(ctx, k, 25, client.Options{})
				}
				if err != nil {
					errc <- err
					return
				}
				lookups[w%len(settings)].Add(1)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Toggle edges inside the first cluster: every round is
		// structure-only and publishes a new engine generation.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			u, v := int32(i%7), int32(i%7+1)
			up := krcore.RemoveEdgeUpdate(u, v)
			if (i/7)%2 == 1 {
				up = krcore.AddEdgeUpdate(u, v)
			}
			if _, err := c.ApplyBatch(ctx, []krcore.Update{up}); err != nil {
				errc <- err
				return
			}
		}
	}()

	prev := map[string]float64{}
	scrape := func(i int) {
		for series, v := range client.ParseMetrics(mustMetrics(t, c)) {
			name, _, _ := strings.Cut(series, "{")
			if !strings.HasSuffix(name, "_total") {
				continue
			}
			if old, ok := prev[series]; ok && v < old {
				t.Errorf("scrape %d: %s went backwards: %v -> %v", i, series, old, v)
			}
			prev[series] = v
		}
	}
	for i := 0; i < 150; i++ {
		scrape(i)
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	scrape(-1)

	// Every lookup is one Warm or one query; the structure-only rounds
	// carry both settings, so their per-setting series never reset.
	var total float64
	for i, k := range settings {
		want := float64(1 + lookups[i].Load())
		total += want
		hits := prev[fmt.Sprintf(`krcored_engine_setting_hits_total{k="%d",r="25"}`, k)]
		misses := prev[fmt.Sprintf(`krcored_engine_setting_misses_total{k="%d",r="25"}`, k)]
		if hits+misses != want {
			t.Errorf("k=%d: setting hits %v + misses %v, want %v lookups", k, hits, misses, want)
		}
	}
	if got := prev["krcored_engine_cache_hits_total"] + prev["krcored_engine_cache_misses_total"]; got != total {
		t.Errorf("engine hits+misses = %v, want %v lookups", got, total)
	}
}

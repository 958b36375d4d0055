package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"krcore"
	"krcore/client"
	"krcore/internal/updates"
	"krcore/replica"
	"krcore/server"
)

// implemented lists which optional server surfaces b exposes.
func implemented(b server.Backend) [5]bool {
	_, upd := b.(server.Updater)
	_, ss := b.(settingsStatser)
	_, off := b.(offsetter)
	_, ak := b.(attributeKinder)
	_, dyn := b.(dynamicBackend)
	return [5]bool{upd, ss, off, ak, dyn}
}

func TestTraceBackendKeepsSurfaces(t *testing.T) {
	d, err := loadPreset("brightkite")
	if err != nil {
		t.Fatal(err)
	}
	attrs, err := updates.Attrs(d)
	if err != nil {
		t.Fatal(err)
	}
	deng, err := krcore.NewDynamicEngine(d.Graph, attrs)
	if err != nil {
		t.Fatal(err)
	}
	fol, err := replica.NewFollower(replica.FollowerConfig{Leader: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string]server.Backend{
		"engine":   krcore.NewEngine(d.Graph, d.Metric()),
		"dynamic":  deng,
		"follower": fol,
		"cold":     newColdBackend(d.Graph, d.Metric(), 1, 2),
	} {
		tb, err := traceBackend(newTracer(), b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := implemented(tb), implemented(b); got != want {
			t.Errorf("%s: traced surfaces %v, backend has %v", name, got, want)
		}
	}
}

// serveN sends requests 0..n-1 of the stack's stream one at a time.
func serveN(t *testing.T, s *staticStack, n int) []readRec {
	t.Helper()
	l := s.loadFor(config{seed: 3})
	var recs []readRec
	for i := int64(0); i < int64(n); i++ {
		if l.before != nil {
			l.before(i)
		}
		rec := l.one(context.Background(), i)
		if !rec.ok {
			t.Fatalf("request %d (%+v) failed", i, rec.req)
		}
		recs = append(recs, rec)
	}
	return recs
}

func TestTracedAndUntracedAnswersMatch(t *testing.T) {
	for _, name := range []string{"read-hot", "read-cold"} {
		w := workloads[name]
		var runs [][]readRec
		for _, tr := range []*tracer{nil, newTracer()} {
			st, err := w.setup(config{}, tr)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, serveN(t, st.(*staticStack), 40))
			st.close()
		}
		for i := range runs[0] {
			if runs[0][i].digest != runs[1][i].digest {
				t.Errorf("%s request %d (%+v): traced answer differs from untraced", name, i, runs[0][i].req)
			}
		}
	}
}

func TestCheckRejectsTamperedResponse(t *testing.T) {
	st, err := setupHot(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	recs := serveN(t, st, 30)
	fresh := func() *krcore.Engine { return krcore.NewEngine(st.d.Graph, st.d.Metric()) }
	if bad, err := checkReads(recs, fresh, 1<<40, 1); bad != 0 || err != nil {
		t.Fatalf("untampered responses rejected: %d bad, %v", bad, err)
	}
	// Tamper with one real response: drop a vertex from its first core.
	var victim int
	var resp *readRec
	for i := range recs {
		if recs[i].req.Kind == kindEnum {
			victim, resp = i, &recs[i]
			break
		}
	}
	if resp == nil {
		t.Fatal("no enumerate request in the stream prefix")
	}
	cl := client.New(st.node.url, client.WithHTTPClient(st.hc))
	got, err := sendRead(context.Background(), cl, resp.req)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cores) == 0 || len(got.Cores[0]) < 2 {
		t.Fatal("victim answer has no core to tamper with")
	}
	if digestCores(got.Cores, got.Nodes) != resp.digest {
		t.Fatal("re-sent request answered differently")
	}
	// A wrong node count alone is a wrong answer.
	recs[victim].digest = digestCores(got.Cores, got.Nodes+1)
	if bad, err := checkReads(recs, fresh, 1<<40, 1); bad != 1 || err == nil {
		t.Fatalf("response with a wrong node count accepted: %d bad, %v", bad, err)
	}
	// So is a core missing a vertex.
	got.Cores[0] = got.Cores[0][1:]
	recs[victim].digest = digestCores(got.Cores, got.Nodes)
	if bad, err := checkReads(recs, fresh, 1<<40, 1); bad != 1 || err == nil {
		t.Fatalf("response with a truncated core accepted: %d bad, %v", bad, err)
	}
}

func TestHotMixBlockProportions(t *testing.T) {
	settings := rankSettings([]float64{0.3, 0.2, 0.1})
	m := newHotMix(9, settings, []int32{1, 2, 3})
	count := map[string]int{}
	first := map[readReq]int{}
	for i := int64(0); i < hotBlock; i++ {
		q := m.at(i)
		count[q.Kind]++
		q.V = 0
		first[q]++
	}
	if count[kindEnum] != 80 || count[kindMaximum] != 60 || count[kindContaining] != 60 {
		t.Errorf("block kind counts %v, want 80/60/60", count)
	}
	if len(first) != 3*len(settings) {
		t.Errorf("block covers %d cells, want %d", len(first), 3*len(settings))
	}
	// Same seed, same stream; another seed, another order.
	m2 := newHotMix(9, settings, []int32{1, 2, 3})
	m3 := newHotMix(10, settings, []int32{1, 2, 3})
	differs := false
	for i := int64(0); i < 3*hotBlock; i++ {
		if m.at(i) != m2.at(i) {
			t.Fatalf("request %d differs for the same seed", i)
		}
		differs = differs || m.at(i) != m3.at(i)
	}
	if !differs {
		t.Error("seeds 9 and 10 produced the same stream")
	}
}

func TestColdMixNeverRepeats(t *testing.T) {
	m := &coldMix{seed: 4, rLo: 0.2, rHi: 0.4, members: []int32{5}}
	seen := map[setting]bool{}
	for i := int64(0); i < 3000; i++ {
		st := m.at(i).Set
		if seen[st] {
			t.Fatalf("request %d repeats setting %+v", i, st)
		}
		seen[st] = true
	}
}

func TestQuantileExact(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0.5: 3, 0.99: 5, 0.2: 1, 0.21: 2} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestFleetTracedAndUntracedAgree(t *testing.T) {
	ups, err := updateStream(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var finals [][]uint64
	for _, tr := range []*tracer{nil, newTracer()} {
		s, err := setupFleet(t.TempDir(), tr)
		if err != nil {
			t.Fatal(err)
		}
		w, err := s.serve(context.Background(), config{seed: 2, seconds: 1}, inputs{ups: ups})
		if err != nil {
			s.close()
			t.Fatal(err)
		}
		if w.failed != 0 {
			t.Errorf("traced=%v: %d of %d operations failed", tr != nil, w.failed, w.attempted)
		}
		if err := s.check(w); err != nil {
			t.Errorf("traced=%v: %v", tr != nil, err)
		}
		var final []uint64
		for _, st := range s.hot {
			res, err := s.leader.Enumerate(st.K, st.R, krcore.EnumOptions{})
			if err != nil {
				t.Fatal(err)
			}
			final = append(final, digestCores(res.Cores, res.Nodes))
		}
		finals = append(finals, final)
		if tr != nil {
			layers := map[string]int{}
			for _, sp := range tr.snapshot() {
				layers[sp.Layer]++
			}
			for _, l := range []string{layerClient, layerRouter, layerForward, layerServer, layerEngine, layerApply, layerJournal} {
				if layers[l] == 0 {
					t.Errorf("traced fleet recorded no %s spans", l)
				}
			}
		}
		s.close()
	}
	for i := range finals[0] {
		if finals[0][i] != finals[1][i] {
			t.Errorf("setting %d: traced fleet ends with a different answer", i)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the printed metric sets and
// the benchmark definition in step.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	sorted := func(xs []string) []string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return out
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", names(def.Workloads), workloadNames()},
		{"end_to_end", names(def.EndToEnd), sorted(endToEnd)},
		{"per_layer", names(def.PerLayer), sorted(perLayer)},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s = %v, krbench prints %v", c.what, c.got, c.want)
		}
	}
}

package krcore

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"weak"

	"krcore/internal/core"
	"krcore/internal/graph"
)

// preparedAt returns the engine's prepared state of (k,r), or nil.
func preparedAt(e *Engine, k int, r float64) *core.Prepared {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ent := e.byKR[krKey{k: k, r: r}]; ent != nil {
		return ent.pr
	}
	return nil
}

// filteredAt returns a weak pointer to the engine's filtered graph at r.
func filteredAt(e *Engine, r float64) weak.Pointer[graph.Graph] {
	e.mu.Lock()
	defer e.mu.Unlock()
	return weak.Make(e.byR[r].filtered)
}

// TestDynamicEngineUnbuiltComponentPinsNoOldGeneration carries unbuilt
// candidate components through several structure-only commits and
// checks that they keep no earlier generation's filtered graph alive:
// an unbuilt component builds from the Prepared that searches it.
func TestDynamicEngineUnbuiltComponentPinsNoOldGeneration(t *testing.T) {
	const k, r = 1, 4.0
	g, geo := buildServingInstance()
	d, err := NewDynamicEngine(g, geo)
	if err != nil {
		t.Fatal(err)
	}
	// A containing query prepares the setting and builds only its
	// anchor's component.
	var anchorCore []int32
	for v := int32(0); int(v) < g.N() && anchorCore == nil; v++ {
		res, err := d.EnumerateContaining(k, r, v, EnumOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Cores) > 0 {
			anchorCore = res.Cores[0]
		}
	}
	if anchorCore == nil {
		t.Fatal("no vertex lies in a core")
	}
	pr := preparedAt(d.gen.Load().eng, k, r)
	if pr.Components() < 3 || pr.BuiltComponents() != 1 {
		t.Fatalf("want one built component of several: %d built of %d", pr.BuiltComponents(), pr.Components())
	}
	first := filteredAt(d.gen.Load().eng, r)

	// Toggle an edge inside the anchor's core: each commit changes that
	// component only, so every other one is carried over unbuilt.
	var u, w int32 = -1, -1
	for _, a := range anchorCore {
		for _, b := range g.Neighbors(a) {
			if b > a {
				if slices.Contains(anchorCore, b) {
					u, w = a, b
				}
			}
		}
	}
	if u < 0 {
		t.Fatal("anchor core has no internal edge")
	}
	for step := 0; step < 4; step++ {
		up := RemoveEdgeUpdate(u, w)
		if step%2 == 1 {
			up = AddEdgeUpdate(u, w)
		}
		if err := d.ApplyBatch([]Update{up}); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.DynamicStats(); st.Batches != 4 || st.IndexesRebuilt != 0 || st.ComponentsReused == 0 {
		t.Fatalf("want 4 structure-only commits reusing components: %+v", st)
	}
	pr = preparedAt(d.gen.Load().eng, k, r)
	if pr.BuiltComponents() > 1 || pr.Components() < 3 {
		t.Fatalf("components were built by the commits: %d built of %d", pr.BuiltComponents(), pr.Components())
	}
	pr = nil

	runtime.GC()
	runtime.GC()
	if first.Value() != nil {
		t.Fatal("the first generation's filtered graph is still reachable")
	}

	// The carried components build from the current generation and
	// answer like a fresh engine.
	fresh := NewEngine(d.Graph(), geo.Metric())
	got, err := d.Enumerate(k, r, EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Enumerate(k, r, EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "enumerate after commits", got, want)
	if got.Nodes != want.Nodes {
		t.Fatalf("enumerate after commits: %d nodes, fresh %d", got.Nodes, want.Nodes)
	}
}

// TestSnapshotUnbuiltComponentsRoundTrip saves an engine whose settings
// still hold unbuilt components: the snapshot must equal a warmed
// engine's byte for byte and load back into an engine that re-saves
// the same bytes and answers identically.
func TestSnapshotUnbuiltComponentsRoundTrip(t *testing.T) {
	settings := []struct {
		k int
		r float64
	}{{1, 4}, {2, 6}}
	g, geo := buildServingInstance()
	cold := NewEngine(g, geo.Metric())
	warm := NewEngine(g, geo.Metric())
	for _, s := range settings {
		if _, err := cold.EnumerateContaining(s.k, s.r, 0, EnumOptions{}); err != nil {
			t.Fatal(err)
		}
		if pr := preparedAt(cold, s.k, s.r); pr.BuiltComponents() >= pr.Components() {
			t.Fatalf("(k=%d, r=%g): %d of %d components built, want some unbuilt",
				s.k, s.r, pr.BuiltComponents(), pr.Components())
		}
		if err := warm.Warm(s.k, s.r); err != nil {
			t.Fatal(err)
		}
	}
	var a, b bytes.Buffer
	if err := cold.SaveSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := warm.SaveSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("unbuilt components changed the snapshot (%d vs %d bytes)", a.Len(), b.Len())
	}
	loaded, err := LoadEngine(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var re bytes.Buffer
	if err := loaded.SaveSnapshot(&re); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), a.Bytes()) {
		t.Fatal("load + re-save changed the bytes")
	}
	for _, s := range settings {
		got, err := loaded.FindMaximum(s.k, s.r, MaxOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := warm.FindMaximum(s.k, s.r, MaxOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "maximum after load", got, want)
		if got.Nodes != want.Nodes {
			t.Fatalf("(k=%d, r=%g): %d nodes after load, want %d", s.k, s.r, got.Nodes, want.Nodes)
		}
	}
}

package krcore

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"krcore/internal/similarity"
)

// TestDynamicEngineOldGenerationIntactAcrossAttributeCommit prepares a
// setting cold on one generation, commits an attribute update that
// changes the answer, and then runs full searches on the earlier
// generation's Engine. Those searches build the components the cold
// query left unbuilt, reading the attribute store after the commit:
// they must still see the store as it was before it, because the
// store is copy-on-write. Runs for a constructed and a loaded engine,
// whose stores start out owned and shared respectively.
func TestDynamicEngineOldGenerationIntactAcrossAttributeCommit(t *testing.T) {
	for _, loaded := range []bool{false, true} {
		t.Run(fmt.Sprintf("loaded=%v", loaded), func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			cfg := diffMetrics()[0]
			m := buildDiffInstance(cfg, rng)
			store := cfg.newStore()
			store.Grow(m.n)
			for u := 0; u < m.n; u++ {
				store.SetAttributes(int32(u), m.attrs[u])
			}
			d, err := NewDynamicEngine(m.graph(), store)
			if err != nil {
				t.Fatal(err)
			}
			if loaded {
				var buf bytes.Buffer
				if err := d.SaveSnapshot(&buf); err != nil {
					t.Fatal(err)
				}
				if d, err = LoadDynamicEngine(&buf); err != nil {
					t.Fatal(err)
				}
			}
			p := cfg.presets[0]
			gen1 := d.gen.Load()
			want := NewEngine(gen1.g, similarity.Euclidean{
				Store: gen1.eng.metric.(similarity.Euclidean).Store.Clone(),
			})
			wantEnum, err := want.Enumerate(p.k, p.r, EnumOptions{})
			if err != nil {
				t.Fatal(err)
			}
			wantMax, err := want.FindMaximum(p.k, p.r, MaxOptions{})
			if err != nil {
				t.Fatal(err)
			}

			// Anchor the cold query in the far cluster (u%4 == 3) and move
			// a member of the largest other core far away: the two lie in
			// different candidate components, so the moved vertex's
			// component is still unbuilt when the commit lands.
			var anchor, moved int32 = -1, -1
			movedLen := 0
			for _, c := range wantEnum.Cores {
				switch {
				case c[0]%diffClusters == 3:
					if anchor < 0 {
						anchor = c[0]
					}
				case len(c) > movedLen:
					moved, movedLen = c[0], len(c)
				}
			}
			if anchor < 0 || moved < 0 {
				t.Fatalf("instance lacks the cores the test needs: %v", wantEnum.Cores)
			}
			if _, err := d.EnumerateContaining(p.k, p.r, anchor, EnumOptions{}); err != nil {
				t.Fatal(err)
			}
			pr := preparedAt(gen1.eng, p.k, p.r)
			if pr.BuiltComponents() != 1 || pr.Components() < 2 {
				t.Fatalf("want one built component of several: %d built of %d", pr.BuiltComponents(), pr.Components())
			}

			if err := d.SetAttributes(moved, VertexAttributes{X: 1e4, Y: 1e4}); err != nil {
				t.Fatal(err)
			}
			if d.gen.Load() == gen1 {
				t.Fatal("the attribute commit published no new generation")
			}
			now, err := d.Enumerate(p.k, p.r, EnumOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(now.Cores) == fmt.Sprint(wantEnum.Cores) {
				t.Fatal("the attribute commit did not change the answer; the test proves nothing")
			}

			gotEnum, err := gen1.eng.Enumerate(p.k, p.r, EnumOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "generation 1 enumerate", gotEnum, wantEnum)
			gotMax, err := gen1.eng.FindMaximum(p.k, p.r, MaxOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "generation 1 maximum", gotMax, wantMax)
		})
	}
}

// TestDynamicEngineAttributeCommitsUnderColdReaders is the
// race-detector target for attribute rounds, which run without any
// lock readers wait on: one writer commits SetAttributes and AddVertex
// batches while readers keep missing every cache — containing queries
// at thresholds never asked before build similarity indexes, filtered
// graphs and components from the current generation's store — and
// snapshot the engine. Afterwards every threshold the readers created
// must answer like a from-scratch engine.
func TestDynamicEngineAttributeCommitsUnderColdReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cfg := diffMetrics()[0]
	m := buildDiffInstance(cfg, rng)
	store := cfg.newStore()
	store.Grow(m.n)
	for u := 0; u < m.n; u++ {
		store.SetAttributes(int32(u), m.attrs[u])
	}
	eng, err := NewDynamicEngine(m.graph(), store)
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.presets[0]
	if err := eng.Warm(p.k, p.r); err != nil {
		t.Fatal(err)
	}

	commits, queries := 30, 20
	if testing.Short() {
		commits, queries = 12, 8
	}
	batches := make([][]Update, commits)
	for i := range batches {
		if i%3 == 2 {
			nv := int32(m.n)
			batches[i] = []Update{
				AddVertexUpdate(),
				SetAttributesUpdate(nv, cfg.randAttr(rng, int(nv)%diffClusters)),
				AddEdgeUpdate(nv, int32(rng.Intn(m.n))),
				AddEdgeUpdate(nv, int32(rng.Intn(m.n))),
			}
		} else {
			u := rng.Intn(m.n)
			batches[i] = []Update{SetAttributesUpdate(int32(u), cfg.randAttr(rng, rng.Intn(diffClusters)))}
		}
		m.apply(batches[i])
	}

	const readers = 3
	n0 := int32(eng.N())
	rs := make([][]float64, readers)
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)
	wg.Add(readers + 1)
	go func() {
		defer wg.Done()
		for _, b := range batches {
			if err := eng.ApplyBatch(b); err != nil {
				errc <- err
				return
			}
		}
	}()
	for rdr := 0; rdr < readers; rdr++ {
		go func(rdr int) {
			defer wg.Done()
			qr := rand.New(rand.NewSource(int64(rdr)))
			for q := 0; q < queries; q++ {
				r := p.r + float64(rdr*queries+q+1)*1e-3
				rs[rdr] = append(rs[rdr], r)
				if _, err := eng.EnumerateContaining(p.k, r, qr.Int31n(n0), EnumOptions{}); err != nil {
					errc <- err
					return
				}
				if q%4 == 0 {
					if err := eng.SaveSnapshot(io.Discard); err != nil {
						errc <- err
						return
					}
				}
			}
		}(rdr)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	if ds := eng.DynamicStats(); ds.Batches != int64(commits) || eng.N() != m.n {
		t.Fatalf("batches=%d N=%d, want %d/%d", ds.Batches, eng.N(), commits, m.n)
	}
	fresh := freshEngine(cfg, m)
	check := func(r float64) {
		got, err := eng.Enumerate(p.k, r, EnumOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Enumerate(p.k, r, EnumOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "settled", got, want)
	}
	check(p.r)
	for _, rr := range rs {
		for _, r := range rr {
			check(r)
		}
	}
	assertMaintainedCores(t, eng, "settled")
}

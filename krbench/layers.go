package main

import (
	"time"

	"krcore"
	"krcore/internal/core"
	"krcore/internal/kcore"
	"krcore/internal/similarity"
	"krcore/internal/simindex"
)

// layerPass times the preparation and search layers by calling them
// directly, in the order krcore.Engine runs them for an uncached
// setting: the similarity index (simindex), the dissimilar-edge filter
// (core), the k-core peeling of the filtered graph (kcore), the
// candidate components (core) and the branch-and-bound searches
// (core.Prepared). It runs after the traced window, over the settings
// and queries that window served.
type layerPass struct {
	indexMS, filterMS, keptFrac, decomposeMS []float64 // per threshold r
	prepareMS, components                    []float64 // per (k,r) setting
	// searchMS holds, per query kind, the search time of every served
	// request (each distinct query is timed once and weighted by how
	// often it was served).
	searchMS map[string][]float64
}

// runLayerPass covers the first maxR distinct thresholds of recs.
func runLayerPass(g *krcore.Graph, m krcore.Metric, recs []readRec, maxR int) layerPass {
	lp := layerPass{searchMS: map[string][]float64{}}
	type query struct {
		kind string
		v    int32
	}
	served := map[setting]map[query]int{}
	var rs []float64
	ks := map[float64][]int{}
	for _, rec := range recs {
		if !rec.ok {
			continue
		}
		st := rec.req.Set
		if served[st] == nil {
			if _, seen := ks[st.R]; !seen {
				if len(rs) == maxR {
					continue
				}
				rs = append(rs, st.R)
			}
			ks[st.R] = append(ks[st.R], st.K)
			served[st] = map[query]int{}
		}
		q := query{kind: rec.req.Kind}
		if q.kind == kindContaining {
			q.v = rec.req.V
		}
		served[st][q]++
	}
	for _, r := range rs {
		o := similarity.NewOracle(m, r)
		t0 := time.Now()
		simindex.For(o)
		lp.indexMS = append(lp.indexMS, ms(time.Since(t0)))
		t0 = time.Now()
		filtered := core.FilterDissimilar(g, o)
		lp.filterMS = append(lp.filterMS, ms(time.Since(t0)))
		lp.keptFrac = append(lp.keptFrac, ratio(float64(filtered.M()), float64(g.M())))
		t0 = time.Now()
		kcore.Decompose(filtered)
		lp.decomposeMS = append(lp.decomposeMS, ms(time.Since(t0)))
		for _, k := range ks[r] {
			t0 = time.Now()
			pr, err := core.PrepareFiltered(filtered, core.Params{K: k, Oracle: o})
			if err != nil {
				continue // the reference check reports failing settings
			}
			lp.prepareMS = append(lp.prepareMS, ms(time.Since(t0)))
			lp.components = append(lp.components, float64(pr.Components()))
			for q, n := range served[setting{K: k, R: r}] {
				t0 = time.Now()
				switch q.kind {
				case kindEnum:
					pr.Enumerate(core.EnumOptions{})
				case kindMaximum:
					pr.FindMaximum(core.MaxOptions{})
				default:
					pr.EnumerateContaining(q.v, core.EnumOptions{})
				}
				d := ms(time.Since(t0))
				for i := 0; i < n; i++ {
					lp.searchMS[q.kind] = append(lp.searchMS[q.kind], d)
				}
			}
		}
	}
	return lp
}

package core

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"krcore/internal/bitset"
	"krcore/internal/graph"
	"krcore/internal/kcore"
	"krcore/internal/simgraph"
	"krcore/internal/similarity"
	"krcore/internal/simindex"
)

// problem is one candidate component prepared by the initial stage of
// Algorithm 1: a connected component of the k-core of the graph after
// removing dissimilar edges, re-indexed with local vertex ids 0..n-1.
//
// Preparation fixes only the component's vertex list and maximum
// degree. Its local problem — the induced adjacency and the quadratic
// dissimilarity lists — is built once, on the first search, bound or
// encoder that touches the component (see Prepared.local), from the
// filtered graph and bulk similarity source of the Prepared doing the
// touching. The problem itself references neither, so an unbuilt
// component carried into later generations by a patch pins no older
// generation's graph or index.
type problem struct {
	k      int
	n      int
	orig   []int32 // local id -> global id, ascending
	maxDeg int     // maximum structural degree (for component ordering)

	// once guards the build of adj, dissim and pairs, which are
	// immutable afterwards; built flips when the build has completed,
	// so a patch can carry a built problem's lists forward without
	// forcing the build of an unbuilt one.
	once   sync.Once
	built  atomic.Bool
	adj    [][]int32 // structural adjacency (all edges join similar vertices)
	dissim [][]int32 // pairwise-dissimilar local vertex lists, sorted
	pairs  int       // number of dissimilar pairs

	// rows holds adj as one bitset row per vertex, for the Δ orders'
	// branch simulation. It is built on first use (see adjRows), never
	// serialized, and shared by every query on this problem — and by
	// every Prepared a patch carries the problem into.
	rowsOnce sync.Once
	rows     []bitset.Set
}

// componentBuilds counts the local problems built so far; tests read it
// to check that each component is built exactly once, on first touch.
var componentBuilds atomic.Int64

// newComponent returns the unbuilt problem of one component of the
// filtered k-core (comp sorted ascending). Its maxDeg is each member's
// count of filtered neighbours with core number at least k: all of
// those lie in the member's own k-core component, so the count is the
// member's degree in the induced subgraph the build will produce.
func newComponent(filtered *graph.Graph, cores []int32, k int, comp []int32) *problem {
	p := &problem{k: k, n: len(comp), orig: comp}
	for _, v := range comp {
		d := 0
		for _, x := range filtered.Neighbors(v) {
			if cores[x] >= int32(k) {
				d++
			}
		}
		p.maxDeg = max(p.maxDeg, d)
	}
	return p
}

// builtProblem wraps an already materialised local problem (decoded
// from a snapshot, or restructured from a built one).
func builtProblem(k int, orig []int32, adj, dissim [][]int32, pairs int) *problem {
	p := &problem{k: k, n: len(orig), orig: orig, adj: adj, dissim: dissim, pairs: pairs}
	for _, nb := range adj {
		p.maxDeg = max(p.maxDeg, len(nb))
	}
	p.once.Do(func() {})
	p.built.Store(true)
	return p
}

// build materialises p's local problem: the subgraph of filtered
// induced by orig and the dissimilar pairs among orig answered by the
// bulk similarity source. Run once, under p.once.
func (p *problem) build(filtered *graph.Graph, src similarity.BulkSource) {
	sub, _ := filtered.Induced(p.orig)
	d := simgraph.BuildDissimBulk(src, p.orig)
	p.adj = make([][]int32, p.n)
	for u := range p.adj {
		p.adj[u] = sub.Neighbors(int32(u))
	}
	p.dissim, p.pairs = d.Lists, d.Pairs
	componentBuilds.Add(1)
	p.built.Store(true)
}

// maxRowsN caps the components whose adjacency is kept as bitset rows.
// The rows take n·⌈n/64⌉·8 bytes, so the cap bounds them at 2 MiB per
// component; larger components run the list-scan simulation instead.
const maxRowsN = 4096

// adjRows returns the adjacency bitset rows, building them on first
// use, or nil when the component is above maxRowsN.
func (p *problem) adjRows() []bitset.Set {
	if p.n > maxRowsN {
		return nil
	}
	p.rowsOnce.Do(func() { p.rows = buildRows(p) })
	return p.rows
}

// buildRows materialises the adjacency of p as bitset rows.
func buildRows(p *problem) []bitset.Set {
	rows := bitset.Rows(p.n, p.n)
	for u, nbs := range p.adj {
		for _, v := range nbs {
			rows[u].Set(int(v))
		}
	}
	return rows
}

// Prepared holds the candidate components of one (k,r) problem, the
// output of Algorithm 1 lines 1-3, ready to be searched many times.
// Preparation does the O(n+m) part only: core numbers, component
// vertex lists, component ids and degrees. Each component's local
// problem is built on first touch (see problem) by whichever search
// reaches it first, exactly once; Materialize builds them all.
// Beyond those once-guarded builds a Prepared never changes, and it is
// safe for concurrent use: Enumerate, EnumerateContaining and
// FindMaximum may all run at once against the same Prepared, each with
// its own search state and budget. The serving layer (krcore.Engine)
// caches Prepared values per (k,r) so repeated queries skip
// preprocessing entirely.
type Prepared struct {
	p     Params
	n     int        // vertex count of the source graph (anchor validation)
	probs []*problem // candidate components, ascending by orig[0]
	byDeg []*problem // the same components sorted by maxDeg descending

	// filtered is the dissimilar-edge-filtered graph the components
	// were found on; the first touch of a component builds its local
	// problem from it and from p.Oracle's bulk source.
	filtered *graph.Graph

	// coreNums holds the core number of every vertex of the filtered
	// graph (length n), the substrate incremental maintenance repairs
	// instead of re-peeling (see PatchPreparedDelta). compID maps each
	// vertex to the smallest vertex of its candidate component — the key
	// its problem is identified by — or -1 for vertices outside every
	// prepared component. Both are immutable once built and shared
	// copy-on-write across patches that leave them unchanged.
	coreNums []int32
	compID   []int32
}

// local returns c with its local problem built, building it on first
// touch from pr's filtered graph and bulk similarity source. Every
// Prepared holding c builds the same problem: a patch carries a
// component only when its vertex set, induced edges and attributes
// are unchanged.
func (pr *Prepared) local(c *problem) *problem {
	c.once.Do(func() { c.build(pr.filtered, simindex.For(pr.p.Oracle)) })
	return c
}

// Materialize builds every component's local problem that is not built
// yet, so later searches touch only built components.
func (pr *Prepared) Materialize() {
	for _, c := range pr.probs {
		pr.local(c)
	}
}

// BuiltComponents reports how many components have their local
// problem built so far.
func (pr *Prepared) BuiltComponents() int {
	n := 0
	for _, c := range pr.probs {
		if c.built.Load() {
			n++
		}
	}
	return n
}

// orderByDeg returns the maximum search's component order: the
// components by maxDeg descending, ties in discovery order. The search
// starts from the component holding the highest-degree vertex
// (Section 6.1): a large core early tightens the size bound everywhere.
// Computed once per Prepared so concurrent FindMaximum calls share it.
func orderByDeg(probs []*problem) []*problem {
	byDeg := append([]*problem(nil), probs...)
	sort.SliceStable(byDeg, func(i, j int) bool { return byDeg[i].maxDeg > byDeg[j].maxDeg })
	return byDeg
}

// CoreNumbers returns the per-vertex core numbers of the filtered graph
// the problem was prepared on. The slice is shared and must not be
// modified.
func (pr *Prepared) CoreNumbers() []int32 { return pr.coreNums }

// newCompIDs returns a component-id array with every vertex unassigned.
func newCompIDs(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = -1
	}
	return ids
}

// coreMembers lists the vertices with core number >= k, ascending.
func coreMembers(core []int32, k int) []int32 {
	var out []int32
	for u, c := range core {
		if c >= int32(k) {
			out = append(out, int32(u))
		}
	}
	return out
}

// Prepare runs the shared preprocessing of Algorithm 1 lines 1-3 and
// returns the reusable candidate components.
func Prepare(g *graph.Graph, p Params) (*Prepared, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return PrepareFiltered(FilterDissimilar(g, p.Oracle), p)
}

// FilterDissimilar drops the edges of g joining dissimilar vertex pairs
// (Algorithm 1 line 1), answered as one batched query through the
// oracle's bulk similarity engine. The result depends only on the
// similarity threshold r, not on k, so a serving layer can share one
// filtered graph across every k at the same r.
func FilterDissimilar(g *graph.Graph, o *similarity.Oracle) *graph.Graph {
	return g.FilterEdgesBatch(simindex.For(o).SimilarBatch)
}

// PrepareFiltered finds the candidate components for p on a graph
// already filtered by FilterDissimilar with p.Oracle: it computes the
// k-core and splits it into connected components. Components smaller
// than k+1 vertices cannot host a (k,r)-core and are skipped. The
// components' local problems are left to their first touch (see
// Prepared.local).
//
// The per-component dissimilarity lists come from the bulk engine's
// similar-pair construction instead of O(n²) per-pair oracle calls.
// The engine is bit-identical to the serial oracle path, so the
// resulting problems — and every core derived from them — are
// unchanged.
func PrepareFiltered(filtered *graph.Graph, p Params) (*Prepared, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	pr := &Prepared{p: p, n: filtered.N(), filtered: filtered}
	pr.coreNums = kcore.Decompose32(filtered)
	pr.compID = newCompIDs(pr.n)
	kc := coreMembers(pr.coreNums, p.K)
	if len(kc) == 0 {
		return pr, nil
	}
	for _, comp := range filtered.ComponentsOf(kc) {
		if len(comp) < p.K+1 {
			continue
		}
		for _, v := range comp {
			pr.compID[v] = comp[0]
		}
		pr.probs = append(pr.probs, newComponent(filtered, pr.coreNums, p.K, comp))
	}
	pr.byDeg = orderByDeg(pr.probs)
	return pr, nil
}

// Components reports the number of prepared candidate components.
func (pr *Prepared) Components() int { return len(pr.probs) }

// prepare is the single-shot form used by the baselines and tests; it
// returns the components with their local problems built.
func prepare(g *graph.Graph, p Params) []*problem {
	pr, err := Prepare(g, p)
	if err != nil {
		return nil
	}
	pr.Materialize()
	return pr.probs
}

// toGlobal maps local vertex ids to sorted global ids.
func (p *problem) toGlobal(locals []int32) []int32 {
	return p.appendGlobal(nil, locals)
}

// appendGlobal appends the global ids of locals to dst, sorted, and
// returns the extended slice; with a nil dst it allocates exactly the
// result.
func (p *problem) appendGlobal(dst, locals []int32) []int32 {
	if dst == nil {
		dst = make([]int32, 0, len(locals))
	}
	start := len(dst)
	for _, v := range locals {
		dst = append(dst, p.orig[v])
	}
	slices.Sort(dst[start:])
	return dst
}

// canonicalize sorts cores lexicographically (then by length) so results
// compare deterministically across algorithms.
func canonicalize(cores [][]int32) [][]int32 {
	sort.Slice(cores, func(i, j int) bool {
		a, b := cores[i], cores[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return cores
}

// dedupCores removes duplicate vertex sets from a canonicalized list.
func dedupCores(cores [][]int32) [][]int32 {
	out := cores[:0]
	for i, c := range cores {
		if i > 0 && equalCores(cores[i-1], c) {
			continue
		}
		out = append(out, c)
	}
	return out
}

func equalCores(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// filterMaximal removes cores that are proper subsets of another core,
// implementing the naive maximal check of Algorithm 1 lines 6-8. Input
// cores must each be sorted; the result is canonicalized.
func filterMaximal(cores [][]int32) [][]int32 {
	if len(cores) <= 1 {
		return canonicalize(cores)
	}
	// Sort by size descending; a core can only be contained in a larger
	// (or equal, i.e. duplicate) one.
	sort.Slice(cores, func(i, j int) bool { return len(cores[i]) > len(cores[j]) })
	var kept [][]int32
	for _, c := range cores {
		contained := false
		for _, big := range kept {
			if len(big) >= len(c) && isSubset(c, big) {
				contained = true
				break
			}
		}
		if !contained {
			kept = append(kept, c)
		}
	}
	return dedupCores(canonicalize(kept))
}

// isSubset reports whether sorted slice a is a subset of sorted slice b.
func isSubset(a, b []int32) bool {
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i >= len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}

package core

import (
	"math/rand"
	"slices"
	"testing"

	"krcore/internal/bitset"
)

// walkStates drives a random walk through the search tree of p the way
// the searches do — branch on an eligible candidate, then restore the
// invariants with prune — and calls visit at every choice point
// reached, at most steps times. A dead branch or a leaf restarts the
// walk from the root.
func walkStates(rng *rand.Rand, p *problem, steps int, visit func(s *state, retention bool)) {
	s := getState(p, &budget{})
	retention := rng.Intn(2) == 0
	for i := 0; i < steps; i++ {
		if !s.prune(retention) || s.cntC == 0 || s.sumDpC == 0 {
			s.rewind(0)
			retention = rng.Intn(2) == 0
			continue
		}
		visit(s, retention)
		var elig []int32
		for v := int32(0); v < int32(p.n); v++ {
			if s.eligible(v, retention) {
				elig = append(elig, v)
			}
		}
		if len(elig) == 0 {
			s.rewind(0)
			continue
		}
		v := elig[rng.Intn(len(elig))]
		if rng.Intn(2) == 0 {
			s.expand(v)
		} else {
			s.discard(v)
		}
	}
}

// checkSimulations compares the bitset simulation against the list
// scan for both branches of every eligible candidate (or of a sample
// of at most limit of them) at one choice point, after asserting that
// prune left no candidate with negative slack. It returns the number of
// candidates compared.
func checkSimulations(t *testing.T, rng *rand.Rand, s *state, rows []bitset.Set, retention bool, limit int) int {
	t.Helper()
	for v := int32(0); v < int32(s.p.n); v++ {
		if s.status[v] == statusC && s.degM[v]+s.degC[v] < int32(s.p.k) {
			t.Fatalf("n=%d: candidate %d has negative slack %d at choice time",
				s.p.n, v, s.degM[v]+s.degC[v]-int32(s.p.k))
		}
	}
	if !s.sortBySlack() {
		t.Fatalf("n=%d: sortBySlack refused a pruned state", s.p.n)
	}
	for i := 1; i < len(s.slacks); i++ {
		if s.slacks[i] < s.slacks[i-1] {
			t.Fatalf("n=%d: bySlack not ascending at %d", s.p.n, i)
		}
	}
	s.simRm.Resize(s.p.n)
	var elig []int32
	for v := int32(0); v < int32(s.p.n); v++ {
		if s.eligible(v, retention) {
			elig = append(elig, v)
		}
	}
	if limit > 0 && len(elig) > limit {
		rng.Shuffle(len(elig), func(i, j int) { elig[i], elig[j] = elig[j], elig[i] })
		elig = elig[:limit]
	}
	for _, v := range elig {
		for _, expand := range []bool{true, false} {
			want := s.simulateBranch(v, expand)
			got := s.simulateBranchBits(rows, v, expand)
			if got != want {
				t.Fatalf("n=%d v=%d expand=%v: bitset %+v, list scan %+v", s.p.n, v, expand, got, want)
			}
		}
	}
	if s.simRm.Any() {
		t.Fatalf("n=%d: simulateBranchBits left bits in the removed set", s.p.n)
	}
	return len(elig)
}

// TestBitsetSimulationMatchesListScan is the kernel differential test:
// on states reachable from real problems, the slack-test simulation
// and the list scan agree on Δ1 and Δ2 for both branches of every
// eligible candidate, bit for bit.
func TestBitsetSimulationMatchesListScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var probs []*problem
	for _, st := range []goldenSetting{
		{preset: "dblp", k: 5, r: 3, permille: true},
		{preset: "gowalla", k: 5, r: 10},
		{preset: "gowalla", k: 3, r: 40},
	} {
		pr, err := preparePreset(st)
		if err != nil {
			t.Fatal(err)
		}
		pr.Materialize()
		probs = append(probs, pr.probs...)
	}
	for i := 0; i < 40; i++ {
		inst := randomGeoInstance(rng, 150)
		probs = append(probs, prepare(inst.g, inst.p)...)
	}
	bench := benchInstance()
	probs = append(probs, prepare(bench.g, bench.p)...)

	ragged, multiWord, compared := false, false, 0
	for _, p := range probs {
		rows := p.adjRows()
		if rows == nil {
			t.Fatalf("component of %d vertices has no rows below the cap", p.n)
		}
		ragged = ragged || p.n%64 != 0
		multiWord = multiWord || p.n > 64
		walkStates(rng, p, 60, func(s *state, retention bool) {
			compared += checkSimulations(t, rng, s, rows, retention, 0)
		})
	}
	if !ragged || !multiWord || compared < 10000 {
		t.Fatalf("test problems miss a shape: ragged=%v multi-word=%v, %d candidates compared",
			ragged, multiWord, compared)
	}
}

// TestBitsetSimulationAboveCap covers components above maxRowsN: they
// get no rows, so the search runs the list scan, and rows built anyway
// still reproduce the scan.
func TestBitsetSimulationAboveCap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := largeProblem(rng, maxRowsN+37, 6)
	if p.adjRows() != nil {
		t.Fatalf("component of %d vertices above the cap %d got rows", p.n, maxRowsN)
	}
	rows := buildRows(p)
	compared := 0
	walkStates(rng, p, 12, func(s *state, retention bool) {
		compared += checkSimulations(t, rng, s, rows, retention, 60)
	})
	if compared < 300 {
		t.Fatalf("only %d candidates compared above the cap", compared)
	}
}

// largeProblem builds a connected random component of n vertices: a
// ring lattice of degree k plus one random chord per vertex, so most
// slacks are 0 to 2 and a removal cascades into both simulated waves,
// and every vertex dissimilar to a few random others.
func largeProblem(rng *rand.Rand, n, k int) *problem {
	adj := make([]map[int32]bool, n)
	for i := range adj {
		adj[i] = map[int32]bool{}
	}
	link := func(u, v int32) {
		if u != v {
			adj[u][v], adj[v][u] = true, true
		}
	}
	for u := 0; u < n; u++ {
		for d := 1; d <= k/2; d++ {
			link(int32(u), int32((u+d)%n))
		}
		link(int32(u), int32(rng.Intn(n)))
	}
	dis := make([]map[int32]bool, n)
	for i := range dis {
		dis[i] = map[int32]bool{}
	}
	for i := 0; i < 3*n; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != v {
			dis[u][v], dis[v][u] = true, true
		}
	}
	p := &problem{k: k, n: n, adj: make([][]int32, n), dissim: make([][]int32, n), orig: make([]int32, n)}
	for u := 0; u < n; u++ {
		p.orig[u] = int32(u)
		p.adj[u] = sortedKeys(adj[u])
		p.dissim[u] = sortedKeys(dis[u])
		p.pairs += len(p.dissim[u])
		p.maxDeg = max(p.maxDeg, len(p.adj[u]))
	}
	p.pairs /= 2
	return p
}

func sortedKeys(m map[int32]bool) []int32 {
	out := make([]int32, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

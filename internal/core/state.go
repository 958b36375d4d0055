package core

import (
	"fmt"
	"sync"

	"krcore/internal/bitset"
)

// Vertex statuses of the set-enumeration search. M holds chosen
// vertices, C candidates, E the relevant excluded vertices (discarded
// but similar to every vertex of M, Section 5.2), and Out everything
// else.
const (
	statusOut byte = iota
	statusC
	statusM
	statusE
)

// change records one status transition for the undo trail.
type change struct {
	v        int32
	from, to byte
}

// state is the mutable search state over one problem. All counter
// mutations happen through apply, which records an undo entry; rewind
// restores any earlier trail mark exactly.
//
// States are pooled (getState/putState): a search takes one per
// component, reset for that component, and returns it on every exit
// path, so warm searches reuse the counters and every scratch buffer
// below instead of allocating them per component and per node.
type state struct {
	p      *problem
	status []byte

	// Incremental counters, maintained for every vertex regardless of
	// status (Section 5.1's invariants are expressed through them):
	degM []int32 // structural neighbours in M
	degC []int32 // structural neighbours in C
	dpM  []int32 // dissimilar partners in M
	dpC  []int32 // dissimilar partners in C
	dpE  []int32 // dissimilar partners in E

	cntM, cntC, cntE int
	sumDpC           int64 // Σ_{u∈C} dpC[u] = 2 × DP(C)
	edgesMC          int64 // |E(M∪C)|

	trail []change

	bud *budget

	// Scratch space reused across nodes.
	queue    []int32
	visited  []bool
	scratch  []int32
	leaf     []int32 // reportLeaf's local cores (see mcComponents)
	leafEnds []int   // end offsets of the cores in leaf
	global   []int32 // the incumbent candidate in global ids (maximum)
	// Δ simulation scratch (orders.go).
	simMark  epochs     // removed by the simulated branch (list scan)
	simDegEp epochs     // simDeg slot valid (list scan)
	simDeg   []int32    // tentative degree (list scan)
	simList  []int32    // removed vertices
	simRm    bitset.Set // removed vertices (bitset simulation)
	bySlack  []int32    // C by ascending slack, per choice
	slacks   []int32    // the slack of each vertex of bySlack
	slackEnd []int32    // slackEnd[t]: vertices of bySlack with slack <= t
	// earlyTerminate's excluded-set fixpoint.
	inW  epochs
	degW []int32
	// (k,k')-core bound scratch (bounds.go).
	peelKey     []int32
	peelDeg     []int32
	peelBuckets [][]int32
	peelQueue   []int32
	// Maximal-check scratch (maxcheck.go).
	chk checkSearch

	rngState uint64
}

// statePool recycles search states across components and queries.
var statePool = sync.Pool{New: func() any { return new(state) }}

// getState returns a pooled state reset to the initial node of p's
// search: every vertex a candidate. Callers must putState it when the
// search ends, however it ends.
func getState(p *problem, bud *budget) *state {
	s := statePool.Get().(*state)
	s.reset(p, bud)
	return s
}

// putState returns s to the pool. It drops the references to the
// problem and budget so a pooled state pins neither.
func putState(s *state) {
	s.p, s.bud = nil, nil
	s.chk.s = nil
	statePool.Put(s)
}

// reset makes s the root state of p's search: all n vertices in C, M
// and E empty, an empty trail and a fresh rng. The M and E counters are
// cleared and status and the C counters written below. The scratch
// arrays are only re-sized: each user clears visited before use, and
// simDeg and degW are read only in slots written since the current
// epoch began (see epochs).
func (s *state) reset(p *problem, bud *budget) {
	n := p.n
	s.p, s.bud = p, bud
	s.degM = resized(s.degM, n)
	s.dpM = resized(s.dpM, n)
	s.dpE = resized(s.dpE, n)
	s.status = lengthened(s.status, n)
	s.degC = lengthened(s.degC, n)
	s.dpC = lengthened(s.dpC, n)
	s.visited = lengthened(s.visited, n)
	s.simDeg = lengthened(s.simDeg, n)
	s.degW = lengthened(s.degW, n)
	s.simMark.resize(n)
	s.simDegEp.resize(n)
	s.inW.resize(n)
	s.trail = s.trail[:0]
	s.cntM, s.cntE = 0, 0
	s.rngState = 0x9E3779B97F4A7C15
	// The root node: every vertex a candidate. These are the counters
	// apply(v, statusC) would leave for all v, set directly.
	s.cntC = n
	var dp, deg int64
	for v := 0; v < n; v++ {
		s.status[v] = statusC
		s.degC[v] = int32(len(p.adj[v]))
		s.dpC[v] = int32(len(p.dissim[v]))
		deg += int64(s.degC[v])
		dp += int64(s.dpC[v])
	}
	s.sumDpC = dp
	s.edgesMC = deg / 2
}

// resized returns buf with length n and every element zero, reusing
// its storage when large enough.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// epochs is an epoch-stamped membership set over vertex ids: a vertex
// is a member when its slot holds the current stamp, so next empties
// the set in O(1) instead of clearing n slots.
type epochs struct {
	stamp []uint32
	cur   uint32
}

// resize sizes the set for n vertices and empties it.
func (e *epochs) resize(n int) {
	if cap(e.stamp) < n {
		e.stamp = make([]uint32, n)
		e.cur = 0
	}
	e.stamp = e.stamp[:n]
	e.next()
}

// next empties the set. On stamp wrap-around every slot, including
// those beyond the current length, is cleared so no stale stamp can
// match a future one.
func (e *epochs) next() {
	e.cur++
	if e.cur == 0 {
		clear(e.stamp[:cap(e.stamp)])
		e.cur = 1
	}
}

func (e *epochs) has(v int32) bool { return e.stamp[v] == e.cur }
func (e *epochs) add(v int32)      { e.stamp[v] = e.cur }
func (e *epochs) remove(v int32)   { e.stamp[v] = 0 }

// mark returns the current trail position.
func (s *state) mark() int { return len(s.trail) }

// rewind undoes every transition after trail mark m.
func (s *state) rewind(m int) {
	for len(s.trail) > m {
		c := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		s.transition(c.v, c.from)
	}
}

// apply moves v to the given status, recording the undo entry.
func (s *state) apply(v int32, to byte) {
	from := s.status[v]
	if from == to {
		return
	}
	s.trail = append(s.trail, change{v: v, from: from, to: to})
	s.transition(v, to)
}

// transition performs the status change and counter updates without
// touching the trail.
func (s *state) transition(v int32, to byte) {
	s.detach(v)
	s.status[v] = to
	s.attach(v)
}

func (s *state) detach(v int32) {
	switch s.status[v] {
	case statusM:
		s.cntM--
		s.edgesMC -= int64(s.degM[v] + s.degC[v])
		for _, nb := range s.p.adj[v] {
			s.degM[nb]--
		}
		for _, d := range s.p.dissim[v] {
			s.dpM[d]--
		}
	case statusC:
		s.cntC--
		s.edgesMC -= int64(s.degM[v] + s.degC[v])
		s.sumDpC -= int64(s.dpC[v])
		for _, nb := range s.p.adj[v] {
			s.degC[nb]--
		}
		for _, d := range s.p.dissim[v] {
			s.dpC[d]--
			if s.status[d] == statusC {
				s.sumDpC--
			}
		}
	case statusE:
		s.cntE--
		for _, d := range s.p.dissim[v] {
			s.dpE[d]--
		}
	}
}

func (s *state) attach(v int32) {
	switch s.status[v] {
	case statusM:
		s.cntM++
		s.edgesMC += int64(s.degM[v] + s.degC[v])
		for _, nb := range s.p.adj[v] {
			s.degM[nb]++
		}
		for _, d := range s.p.dissim[v] {
			s.dpM[d]++
		}
	case statusC:
		s.cntC++
		s.edgesMC += int64(s.degM[v] + s.degC[v])
		s.sumDpC += int64(s.dpC[v])
		for _, nb := range s.p.adj[v] {
			s.degC[nb]++
		}
		for _, d := range s.p.dissim[v] {
			s.dpC[d]++
			if s.status[d] == statusC {
				s.sumDpC++
			}
		}
	case statusE:
		s.cntE++
		for _, d := range s.p.dissim[v] {
			s.dpE[d]++
		}
	}
}

// discard removes a candidate: to E when it is similar to all of M
// (relevant excluded vertex), otherwise Out.
func (s *state) discard(v int32) {
	if s.dpM[v] == 0 {
		s.apply(v, statusE)
	} else {
		s.apply(v, statusOut)
	}
}

// expand moves candidate u into M and enforces the similarity pruning
// rule (Theorem 3): candidates and excluded vertices dissimilar to u
// leave the search. Structural consequences are handled by prune.
func (s *state) expand(u int32) {
	s.apply(u, statusM)
	// Collect first: apply mutates dpM which the discard destination
	// reads, but iterating p.dissim[u] is safe (static problem data).
	for _, d := range s.p.dissim[u] {
		switch s.status[d] {
		case statusC:
			// dpM[d] > 0 now, so discard sends it Out.
			s.apply(d, statusOut)
		case statusE:
			s.apply(d, statusOut)
		}
	}
}

// prune restores the similarity and degree invariants (Equations 1 and
// 2) plus the trivial connectivity rule: it repeatedly
//
//  1. discards candidates with dpM > 0 (Theorem 3),
//  2. peels candidates with deg(v, M∪C) < k (Theorem 2),
//  3. when retention is on, promotes similarity-free candidates already
//     having k chosen neighbours straight into M (Remark 1), and
//  4. discards candidates disconnected from M in M∪C.
//
// It returns false when the branch is dead: a vertex of M lost the
// structure constraint or M became disconnected inside M∪C.
func (s *state) prune(retention bool) bool {
	for {
		changed := false
		// (1) + (2): similarity kick and structural peeling in one pass
		// using a worklist seeded with all current candidates.
		q := s.queue[:0]
		for v := int32(0); v < int32(s.p.n); v++ {
			if s.status[v] == statusC && (s.dpM[v] > 0 || s.degM[v]+s.degC[v] < int32(s.p.k)) {
				q = append(q, v)
			}
			if s.status[v] == statusM && s.degM[v]+s.degC[v] < int32(s.p.k) {
				s.queue = q
				return false
			}
			if s.status[v] == statusE && s.dpM[v] > 0 {
				s.apply(v, statusOut)
			}
		}
		for len(q) > 0 {
			v := q[len(q)-1]
			q = q[:len(q)-1]
			if s.status[v] != statusC {
				continue
			}
			if s.dpM[v] == 0 && s.degM[v]+s.degC[v] >= int32(s.p.k) {
				continue // repaired by an earlier pop? cannot happen, but safe
			}
			changed = true
			s.discard(v)
			for _, nb := range s.p.adj[v] {
				switch s.status[nb] {
				case statusC:
					if s.degM[nb]+s.degC[nb] < int32(s.p.k) {
						q = append(q, nb)
					}
				case statusM:
					if s.degM[nb]+s.degC[nb] < int32(s.p.k) {
						s.queue = q
						return false
					}
				}
			}
		}
		s.queue = q

		// (3) Remark 1: similarity-free candidates adjacent to >= k
		// chosen vertices can move straight to M.
		if retention {
			for v := int32(0); v < int32(s.p.n); v++ {
				if s.status[v] == statusC && s.dpC[v] == 0 && s.dpM[v] == 0 &&
					s.degM[v] >= int32(s.p.k) {
					s.expand(v)
					changed = true
				}
			}
		}

		// (4) Connectivity: candidates unreachable from M inside M∪C
		// cannot join a connected core containing M.
		if s.cntM > 0 {
			if !s.pruneDisconnected() {
				return false
			}
			// pruneDisconnected only discards C vertices; their removal
			// may break degrees, handled by the next sweep.
			for v := int32(0); v < int32(s.p.n); v++ {
				if s.status[v] == statusC && s.degM[v]+s.degC[v] < int32(s.p.k) {
					changed = true
				}
				if s.status[v] == statusM && s.degM[v]+s.degC[v] < int32(s.p.k) {
					return false
				}
			}
		}
		if !changed {
			return true
		}
	}
}

// pruneDisconnected discards candidates outside the M-component of M∪C.
// Returns false when the vertices of M span multiple components.
func (s *state) pruneDisconnected() bool {
	var start int32 = -1
	for v := int32(0); v < int32(s.p.n); v++ {
		s.visited[v] = false
		if start < 0 && s.status[v] == statusM {
			start = v
		}
	}
	if start < 0 {
		return true
	}
	q := s.queue[:0]
	q = append(q, start)
	s.visited[start] = true
	seenM := 1
	for len(q) > 0 {
		u := q[len(q)-1]
		q = q[:len(q)-1]
		for _, nb := range s.p.adj[u] {
			st := s.status[nb]
			if (st == statusM || st == statusC) && !s.visited[nb] {
				s.visited[nb] = true
				if st == statusM {
					seenM++
				}
				q = append(q, nb)
			}
		}
	}
	s.queue = q[:0]
	if seenM < s.cntM {
		return false
	}
	discarded := false
	for v := int32(0); v < int32(s.p.n); v++ {
		if s.status[v] == statusC && !s.visited[v] {
			s.discard(v)
			discarded = true
		}
	}
	_ = discarded
	return true
}

// members collects the local ids currently holding any of the given
// statuses, in ascending order, into dst.
func (s *state) members(dst []int32, statuses ...byte) []int32 {
	dst = dst[:0]
	for v := int32(0); v < int32(s.p.n); v++ {
		st := s.status[v]
		for _, want := range statuses {
			if st == want {
				dst = append(dst, v)
				break
			}
		}
	}
	return dst
}

// mcComponents lists the connected components of M∪C one after
// another in s.leaf, each in discovery order starting from its smallest
// vertex, and returns their end offsets in s.leaf.
func (s *state) mcComponents() []int {
	comps := s.leaf[:0]
	ends := s.leafEnds[:0]
	for v := range s.visited {
		s.visited[v] = false
	}
	for v := int32(0); v < int32(s.p.n); v++ {
		st := s.status[v]
		if (st != statusM && st != statusC) || s.visited[v] {
			continue
		}
		comps = append(comps, v)
		s.visited[v] = true
		q := s.queue[:0]
		q = append(q, v)
		for len(q) > 0 {
			u := q[len(q)-1]
			q = q[:len(q)-1]
			for _, nb := range s.p.adj[u] {
				nst := s.status[nb]
				if (nst == statusM || nst == statusC) && !s.visited[nb] {
					s.visited[nb] = true
					comps = append(comps, nb)
					q = append(q, nb)
				}
			}
		}
		s.queue = q[:0]
		ends = append(ends, len(comps))
	}
	s.leaf, s.leafEnds = comps, ends
	return ends
}

// checkInvariants verifies the similarity and degree invariants
// (Equations 1 and 2) plus counter consistency; used by tests only.
func (s *state) checkInvariants() error {
	cntM, cntC, cntE := 0, 0, 0
	var sum int64
	var edges int64
	for v := int32(0); v < int32(s.p.n); v++ {
		var dm, dc, pm, pc, pe int32
		for _, nb := range s.p.adj[v] {
			switch s.status[nb] {
			case statusM:
				dm++
			case statusC:
				dc++
			}
		}
		for _, d := range s.p.dissim[v] {
			switch s.status[d] {
			case statusM:
				pm++
			case statusC:
				pc++
			case statusE:
				pe++
			}
		}
		if dm != s.degM[v] || dc != s.degC[v] || pm != s.dpM[v] || pc != s.dpC[v] || pe != s.dpE[v] {
			return fmt.Errorf("counters of v=%d: got degM=%d degC=%d dpM=%d dpC=%d dpE=%d, want %d %d %d %d %d",
				v, s.degM[v], s.degC[v], s.dpM[v], s.dpC[v], s.dpE[v], dm, dc, pm, pc, pe)
		}
		switch s.status[v] {
		case statusM:
			cntM++
			if pm != 0 || pc != 0 {
				return fmt.Errorf("similarity invariant violated at M vertex %d", v)
			}
			edges += int64(dm + dc)
		case statusC:
			cntC++
			sum += int64(pc)
			edges += int64(dm + dc)
		case statusE:
			cntE++
			if pm != 0 {
				return fmt.Errorf("E vertex %d dissimilar to M", v)
			}
		}
	}
	if cntM != s.cntM || cntC != s.cntC || cntE != s.cntE {
		return fmt.Errorf("set sizes: got %d/%d/%d, want %d/%d/%d", s.cntM, s.cntC, s.cntE, cntM, cntC, cntE)
	}
	if sum != s.sumDpC {
		return fmt.Errorf("sumDpC: got %d, want %d", s.sumDpC, sum)
	}
	if edges != 2*s.edgesMC {
		return fmt.Errorf("edgesMC: got %d, want %d", s.edgesMC, edges/2)
	}
	return nil
}

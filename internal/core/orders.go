package core

import "krcore/internal/bitset"

// Search orders (Section 7). The engine must pick (i) which candidate
// vertex to branch on and (ii) which branch to explore first. The Δ1
// measurement is the relative reduction of dissimilar pairs in C, Δ2 the
// relative reduction of edges in M∪C (Equations 3 and 4); both are
// estimated by simulating the candidate pruning restricted to vertices
// within two hops of the chosen vertex, as in Section 7.2.

// branchSim holds the estimated effect of taking one branch for a
// candidate vertex.
type branchSim struct {
	delta1 float64
	delta2 float64
}

// score is λΔ1−Δ2, the suitability measure of Section 7.2.
func (b branchSim) score(lambda float64) float64 {
	return lambda*b.delta1 - b.delta2
}

// choice is the vertex selected by an order, with the preferred branch.
type choice struct {
	v           int32
	expandFirst bool
}

// chooseVertex picks the next branching vertex among the eligible
// candidates (C when retention is off, C \ SF(C) when on) according to
// the order. It returns ok=false when no eligible candidate exists.
func (s *state) chooseVertex(order Order, lambda float64, retention, forMaximum bool) (choice, bool) {
	best := choice{v: -1, expandFirst: true}
	switch order {
	case OrderDegree:
		bestDeg := int32(-1)
		for v := int32(0); v < int32(s.p.n); v++ {
			if !s.eligible(v, retention) {
				continue
			}
			if d := s.degM[v] + s.degC[v]; d > bestDeg {
				bestDeg = d
				best.v = v
			}
		}
	case OrderRandom:
		cnt := 0
		for v := int32(0); v < int32(s.p.n); v++ {
			if !s.eligible(v, retention) {
				continue
			}
			cnt++
			// Reservoir sampling with the state's deterministic rng.
			if s.nextRand()%uint64(cnt) == 0 {
				best.v = v
			}
		}
	default:
		best = s.chooseByDelta(order, lambda, retention, forMaximum)
	}
	return best, best.v >= 0
}

func (s *state) eligible(v int32, retention bool) bool {
	if s.status[v] != statusC {
		return false
	}
	if retention && s.dpC[v] == 0 {
		return false // Theorem 4: never branch on similarity-free vertices
	}
	return true
}

// nextRand advances the xorshift state.
func (s *state) nextRand() uint64 {
	x := s.rngState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rngState = x
	return x
}

// chooseByDelta evaluates Δ1/Δ2 for both branches of every eligible
// candidate and applies the order-specific aggregation:
//
//   - OrderLambdaDelta (maximum search): pick the vertex whose best
//     branch maximises λΔ1−Δ2 and explore that branch first.
//   - OrderDelta1ThenDelta2 (enumeration): pick the vertex with the
//     largest summed Δ1, ties broken by smallest summed Δ2.
//   - OrderDelta1: largest Δ1 (summed, or best-branch for maximum).
//   - OrderDelta2: smallest Δ2.
//
// Components with adjacency bitset rows (see problem.adjRows) run the
// slack-test simulation, the others the list scan; both compute the
// same removed set, hence identical scores.
func (s *state) chooseByDelta(order Order, lambda float64, retention, forMaximum bool) choice {
	if lambda == 0 {
		lambda = 5 // paper default
	}
	rows := s.p.adjRows()
	if rows != nil && !s.sortBySlack() {
		rows = nil
	}
	if rows != nil {
		s.simRm.Resize(s.p.n)
	}
	best := choice{v: -1, expandFirst: true}
	var bestPrimary, bestSecondary float64
	first := true
	for v := int32(0); v < int32(s.p.n); v++ {
		if !s.eligible(v, retention) {
			continue
		}
		var exp, shr branchSim
		if rows != nil {
			exp = s.simulateBranchBits(rows, v, true)
			shr = s.simulateBranchBits(rows, v, false)
		} else {
			exp = s.simulateBranch(v, true)
			shr = s.simulateBranch(v, false)
		}
		var primary, secondary float64
		expandFirst := true
		switch order {
		case OrderLambdaDelta:
			se, ss := exp.score(lambda), shr.score(lambda)
			if se >= ss {
				primary = se
			} else {
				primary = ss
				expandFirst = false
			}
		case OrderDelta1ThenDelta2:
			if forMaximum {
				if exp.delta1 >= shr.delta1 {
					primary, secondary = exp.delta1, -exp.delta2
				} else {
					primary, secondary = shr.delta1, -shr.delta2
					expandFirst = false
				}
			} else {
				primary = exp.delta1 + shr.delta1
				secondary = -(exp.delta2 + shr.delta2)
			}
		case OrderDelta1:
			if forMaximum {
				if exp.delta1 >= shr.delta1 {
					primary = exp.delta1
				} else {
					primary = shr.delta1
					expandFirst = false
				}
			} else {
				primary = exp.delta1 + shr.delta1
			}
		case OrderDelta2:
			if forMaximum {
				if exp.delta2 <= shr.delta2 {
					primary = -exp.delta2
				} else {
					primary = -shr.delta2
					expandFirst = false
				}
			} else {
				primary = -(exp.delta2 + shr.delta2)
			}
		}
		if first || primary > bestPrimary ||
			(primary == bestPrimary && secondary > bestSecondary) {
			first = false
			bestPrimary, bestSecondary = primary, secondary
			best.v = v
			best.expandFirst = expandFirst
		}
	}
	return best
}

// simulateBranch estimates Δ1 and Δ2 for branching on v without mutating
// the search state. Pruning effects are propagated at most two hops from
// v, as in Section 7.2. This list scan runs on components above
// maxRowsN and is the reference simulateBranchBits is tested against.
//
// The cascade removes, in wave w, every candidate x outside the
// removed set S whose neighbours in S outnumber its slack
// deg(x, M∪C) − k, where S is the seed set plus the earlier waves:
// decrements from one wave's frontier accumulate on top of the
// previous waves', and a vertex is marked the moment its tentative
// degree drops below k, so the order the frontier is scanned in
// changes only the order of the removed list, never its contents.
func (s *state) simulateBranch(v int32, expandBranch bool) branchSim {
	s.simMark.next()
	s.simDegEp.next()
	removed := s.simList[:0]
	markRemoved := func(u int32) {
		if !s.simMark.has(u) {
			s.simMark.add(u)
			removed = append(removed, u)
		}
	}
	tentDeg := func(u int32) int32 {
		if !s.simDegEp.has(u) {
			s.simDegEp.add(u)
			s.simDeg[u] = s.degM[u] + s.degC[u]
		}
		return s.simDeg[u]
	}

	if expandBranch {
		// v joins M: its dissimilar candidates are discarded.
		for _, d := range s.p.dissim[v] {
			if s.status[d] == statusC {
				markRemoved(d)
			}
		}
	} else {
		// v is discarded.
		markRemoved(v)
	}

	// Structural cascade, limited to two waves beyond the seed set.
	frontier := removed
	for wave := 0; wave < 2 && len(frontier) > 0; wave++ {
		start := len(removed)
		for _, r := range frontier {
			for _, nb := range s.p.adj[r] {
				if s.status[nb] != statusC || s.simMark.has(nb) {
					continue
				}
				d := tentDeg(nb) - 1
				s.simDeg[nb] = d
				if d < int32(s.p.k) {
					markRemoved(nb)
				}
			}
		}
		frontier = removed[start:]
	}
	s.simList = removed[:0]
	return s.branchLoss(removed)
}

// sortBySlack lists the candidates in s.bySlack by ascending slack
// deg(u, M∪C) − k with a counting sort, their slacks alongside in
// s.slacks; afterwards s.slackEnd[t] counts the candidates with slack
// at most t. prune leaves every candidate with slack >= 0; sortBySlack
// reports false, sending the choice to the list scan, should one ever
// have less.
func (s *state) sortBySlack() bool {
	k := int32(s.p.k)
	maxSlack := max(int32(s.p.maxDeg)-k, 0)
	end := resized(s.slackEnd, int(maxSlack)+2)
	s.slackEnd = end
	for v := int32(0); v < int32(s.p.n); v++ {
		if s.status[v] != statusC {
			continue
		}
		sl := s.degM[v] + s.degC[v] - k
		if sl < 0 {
			return false
		}
		end[sl+1]++
	}
	for i := 1; i < len(end); i++ {
		end[i] += end[i-1]
	}
	// end[sl] is now where slack sl starts; placing each candidate
	// advances it to where slack sl ends.
	total := int(end[len(end)-1])
	s.bySlack = lengthened(s.bySlack, total)
	s.slacks = lengthened(s.slacks, total)
	for v := int32(0); v < int32(s.p.n); v++ {
		if s.status[v] == statusC {
			sl := s.degM[v] + s.degC[v] - k
			s.bySlack[end[sl]] = v
			s.slacks[end[sl]] = sl
			end[sl]++
		}
	}
	return true
}

// slackBelow returns how many candidates of s.bySlack have slack < t.
func (s *state) slackBelow(t int32) int {
	if t <= 0 {
		return 0
	}
	return int(s.slackEnd[min(int(t)-1, len(s.slackEnd)-1)])
}

// simulateBranchBits computes the same removed set as simulateBranch
// by a slack test instead of scanning the frontier's adjacency. A
// candidate can fall in a wave only when its slack is below the number
// of vertices removed so far, so each wave walks s.bySlack (built by
// sortBySlack for this choice) only up to that slack and counts each
// tested candidate's removed neighbours with one bitset intersection of
// its adjacency row against the removed set. s.simRm must be empty on
// entry; it is empty again on return.
func (s *state) simulateBranchBits(rows []bitset.Set, v int32, expandBranch bool) branchSim {
	rm := &s.simRm
	removed := s.simList[:0]
	if expandBranch {
		for _, d := range s.p.dissim[v] {
			if s.status[d] == statusC {
				removed = append(removed, d)
				rm.Set(int(d))
			}
		}
	} else {
		removed = append(removed, v)
		rm.Set(int(v))
	}
	for wave := 0; wave < 2; wave++ {
		start := len(removed)
		for i, x := range s.bySlack[:s.slackBelow(int32(start))] {
			if !rm.Test(int(x)) && int32(rows[x].IntersectionCount(rm)) > s.slacks[i] {
				removed = append(removed, x)
			}
		}
		if len(removed) == start {
			break
		}
		// The wave's removals join the set the next wave tests against;
		// the last wave's never need to.
		if wave == 0 {
			for _, x := range removed[start:] {
				rm.Set(int(x))
			}
		}
	}
	for _, x := range removed {
		rm.Clear(int(x))
	}
	s.simList = removed[:0]
	return s.branchLoss(removed)
}

// branchLoss turns a simulated removed set into Δ1 and Δ2. Each
// removed vertex r loses dpC[r] pairs and deg(r, M∪C) edges; pairs and
// edges internal to the removed set are counted twice by these sums.
// The double counting is deliberately left in: correcting it costs a
// scan of every removed vertex's dissimilarity list (the dominant term
// on dense components), biases every candidate the same way, and the
// measure is already a two-hop heuristic (Section 7.2). In the expand
// branch v itself keeps its edges — it moves to M, staying inside M∪C
// — while its dissimilar pairs disappear with their removed partners.
// The sums are integers, so the scores do not depend on the order of
// removed.
func (s *state) branchLoss(removed []int32) branchSim {
	var pairLoss, edgeLoss int64
	for _, r := range removed {
		pairLoss += int64(s.dpC[r])
		edgeLoss += int64(s.degM[r] + s.degC[r])
	}

	var sim branchSim
	if dp := s.sumDpC / 2; dp > 0 {
		sim.delta1 = float64(pairLoss) / float64(dp)
	}
	if s.edgesMC > 0 {
		sim.delta2 = float64(edgeLoss) / float64(s.edgesMC)
	}
	return sim
}

package core

import "krcore/internal/color"

// Size upper bounds for the maximum search (Section 6.2). All bounds are
// evaluated on H = M∪C: J is the structural induced subgraph, J' the
// similarity graph on H. Any (k,r)-core R derivable from the current
// node satisfies R ⊆ H, so an upper bound on the maximum clique of J'
// (respectively the (k,k')-core of Theorem 7) bounds |R|.

// bound dispatches to the configured upper-bound computation.
func (s *state) bound(kind Bound) int {
	switch kind {
	case BoundNaive:
		return s.cntM + s.cntC
	case BoundColor:
		return s.colorBound()
	case BoundKcore:
		return s.simPeelBound(false)
	case BoundColorKcore:
		c := s.colorBound()
		k := s.simPeelBound(false)
		if k < c {
			return k
		}
		return c
	case BoundDoubleKcore, BoundDefault:
		return s.simPeelBound(true)
	default:
		return s.cntM + s.cntC
	}
}

// colorBound greedily colours the similarity graph J' (the complement of
// the dissimilarity lists restricted to H); a clique of size q needs q
// colours, so the colour count bounds |R|.
func (s *state) colorBound() int {
	h := s.members(s.scratch[:0], statusM, statusC)
	s.scratch = h[:0]
	if len(h) == 0 {
		return 0
	}
	return color.ColorsComplement(s.p.dissim, h)
}

// simPeelBound peels H by ascending similarity degree, optionally with
// the structural k-core cascade of Algorithm 6 (KK'coreUpdate). With the
// cascade it computes k'max of the (k,k')-core (Theorem 7), returning
// k'max+1; without it, it computes the similarity-graph degeneracy
// kmax(J'), returning kmax+1 — the plain k-core clique bound.
//
// The similarity graph is dense inside H, so the peel runs on the
// complement: simdeg(v) = |H|−1−|dissim(v)∩H|. Removing any vertex w
// decrements the similarity degree of every remaining vertex except w's
// dissimilar partners. We therefore keep key(v) = simdeg0(v) +
// (number of removed dissimilar partners of v); the effective similarity
// degree is key(v) − removedTotal, and keys only grow, so a monotone
// bucket scan yields the minimum in O(|H| + nd) total.
//
// Every buffer lives in the state and is reused from node to node.
func (s *state) simPeelBound(structural bool) int {
	h := s.members(s.scratch[:0], statusM, statusC)
	s.scratch = h[:0]
	n := len(h)
	if n == 0 {
		return 0
	}
	inH := s.visited // reuse as "still in H" marker
	for v := range inH {
		inH[v] = false
	}
	for _, v := range h {
		inH[v] = true
	}

	// key: simdeg0 + corrections; sdeg: structural degree within the
	// remaining H. Only the slots of H are read, so neither is cleared.
	key := lengthened(s.peelKey, s.p.n)
	sdeg := lengthened(s.peelDeg, s.p.n)
	s.peelKey, s.peelDeg = key, sdeg
	for _, v := range h {
		dIn := int32(0)
		for _, d := range s.p.dissim[v] {
			if inH[d] {
				dIn++
			}
		}
		key[v] = int32(n) - 1 - dIn
		sdeg[v] = s.degM[v] + s.degC[v]
	}

	// Lazy bucket queue over keys; keys never exceed simdeg0+|dissim| <
	// 2n, and never decrease, so the ascending scan is monotone.
	buckets := s.peelBucketsFor(2*n + 2)
	for _, v := range h {
		buckets[key[v]] = append(buckets[key[v]], v)
	}

	k := int32(s.p.k)
	removedTotal := int32(0)
	kPrime := int32(0)
	queue := s.peelQueue[:0]
	for b := 0; b < len(buckets) && removedTotal < int32(n); b++ {
		for len(buckets[b]) > 0 {
			v := buckets[b][len(buckets[b])-1]
			buckets[b] = buckets[b][:len(buckets[b])-1]
			if !inH[v] || int(key[v]) != b {
				continue // stale entry
			}
			eff := key[v] - removedTotal
			if eff > kPrime {
				kPrime = eff
			}
			// Remove v, then cascade: remove the structurally deficient
			// vertices at the current k' level (KK'coreUpdate); their
			// removal does not raise k'.
			queue = append(queue[:0], v)
			for len(queue) > 0 {
				u := queue[len(queue)-1]
				queue = queue[:len(queue)-1]
				if !inH[u] {
					continue
				}
				inH[u] = false
				removedTotal++
				for _, d := range s.p.dissim[u] {
					if inH[d] {
						key[d]++
						buckets[key[d]] = append(buckets[key[d]], d)
					}
				}
				for _, nb := range s.p.adj[u] {
					if !inH[nb] {
						continue
					}
					sdeg[nb]--
					if structural && sdeg[nb] < k {
						queue = append(queue, nb)
					}
				}
			}
		}
	}
	s.peelQueue = queue[:0]
	return int(kPrime) + 1
}

// peelBucketsFor returns the state's bucket queue with nb empty
// buckets, keeping every bucket's storage from earlier nodes.
func (s *state) peelBucketsFor(nb int) [][]int32 {
	if cap(s.peelBuckets) < nb {
		grown := make([][]int32, nb)
		copy(grown, s.peelBuckets[:cap(s.peelBuckets)])
		s.peelBuckets = grown
	}
	s.peelBuckets = s.peelBuckets[:nb]
	for i := range s.peelBuckets {
		s.peelBuckets[i] = s.peelBuckets[i][:0]
	}
	return s.peelBuckets
}

// lengthened returns buf with length n, reusing its storage when large
// enough. Unlike resized it does not clear the elements.
func lengthened[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Package core implements the paper's contribution: enumeration of all
// maximal (k,r)-cores and computation of the maximum (k,r)-core on an
// attributed graph (Zhang et al., VLDB 2017).
//
// A (k,r)-core is a connected subgraph in which every vertex has at
// least k neighbours inside the subgraph (structure constraint,
// Definition 1) and every vertex pair is similar under the threshold r
// (similarity constraint, Definition 2). Both problems are NP-hard
// (Theorem 1); the algorithms here are branch-and-bound set-enumeration
// searches over candidate components with:
//
//   - candidate pruning (Theorems 2 and 3),
//   - candidate retention via similarity-free vertices SF(C) (Theorem 4),
//   - early termination via the relevant excluded set E (Theorem 5),
//   - maximal checking against E (Theorem 6, Algorithm 4),
//   - size upper bounds including the (k,k')-core bound (Theorem 7,
//     Algorithm 6) for the maximum search (Algorithm 5), and
//   - the search orders of Section 7.
//
// Preparation (Prepare, PrepareFiltered and the patch paths) is O(n+m):
// core numbers, each candidate component's sorted vertex list, the
// component ids and each component's maximum degree. A component's
// local problem — induced adjacency, bulk similarity join and the
// O(size²) dissimilarity lists — is built once, under the component's
// sync.Once, by the first search, bound or encoder that touches it, from
// the filtered graph and bulk source of the Prepared doing the touching.
// An anchored enumeration finds its component through the component id
// and builds only that one; the maximum search skips, unbuilt, every
// component too small to beat its incumbent. Materialize builds them
// all (krcore.Engine.Warm calls it), and encoding a Prepared does too,
// so snapshots do not depend on which components were searched.
//
// The search kernel allocates nothing per search node. Each component
// search takes a pooled state (getState) and returns it on every exit
// path, truncated and cancelled searches included. The state holds the
// incremental counters, the undo trail and all per-node scratch: the
// (k,k')-core bound's bucket queue, the maximal check's masks and
// candidate stacks, and the early-termination fixpoint, whose sets are
// epoch-stamped arrays. A warm search allocates its Result and the
// cores it emits.
//
// The Δ orders simulate both branches of every eligible candidate
// (Section 7.2). On components of at most maxRowsN = 4096 vertices the
// simulation tests only candidates whose slack deg(u, M∪C) − k is below
// the number of vertices removed so far, each with one bitset
// intersection of its adjacency row against the removed set. The rows
// take n·⌈n/64⌉·8 bytes, at most 2 MiB per component. They are built
// lazily on the component's first Δ choice, shared by every query on
// the component, carried by PatchPreparedDelta with the component, and
// never serialized. Larger components run the list-scan simulation.
// Both compute the same removed set, so every choice, core and node
// count is identical.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"krcore/internal/similarity"
)

// Params carries the (k,r)-core problem definition: the degree threshold
// k and the similarity oracle encapsulating the metric and threshold r.
type Params struct {
	K      int
	Oracle *similarity.Oracle
}

func (p Params) validate() error {
	if p.K < 1 {
		return fmt.Errorf("core: k must be >= 1, got %d", p.K)
	}
	if p.Oracle == nil {
		return errors.New("core: similarity oracle must not be nil")
	}
	return nil
}

// Order selects the vertex visiting order of Section 7.
type Order int

const (
	// OrderDefault resolves to the algorithm-specific best order: the
	// Δ1-then-Δ2 order for enumeration (Section 7.3), λΔ1−Δ2 for the
	// maximum search (Section 7.2) and the degree order for maximal
	// checking (Section 7.4).
	OrderDefault Order = iota
	// OrderDelta1ThenDelta2 prefers the vertex with the largest Δ1
	// (dissimilar-pair reduction), breaking ties by smallest Δ2 (edge
	// reduction); the best order for enumeration (Section 7.3).
	OrderDelta1ThenDelta2
	// OrderLambdaDelta scores branches by λΔ1−Δ2 and visits the best
	// branch of the best vertex first; the best order for the maximum
	// search (Section 7.2).
	OrderLambdaDelta
	// OrderDegree chooses the vertex with the highest degree in M∪C;
	// the best order for maximal checking (Section 7.4).
	OrderDegree
	// OrderRandom chooses a pseudo-random candidate (baseline).
	OrderRandom
	// OrderDelta1 maximises Δ1 only.
	OrderDelta1
	// OrderDelta2 minimises Δ2 only.
	OrderDelta2
)

// String returns the name used in the paper's figures.
func (o Order) String() string {
	switch o {
	case OrderDefault:
		return "default"
	case OrderDelta1ThenDelta2:
		return "d1-then-d2"
	case OrderLambdaDelta:
		return "lambda*d1-d2"
	case OrderDegree:
		return "degree"
	case OrderRandom:
		return "random"
	case OrderDelta1:
		return "d1"
	case OrderDelta2:
		return "d2"
	default:
		return "unknown"
	}
}

// Bound selects the (k,r)-core size upper bound of Section 6.2 used by
// the maximum search.
type Bound int

const (
	// BoundDefault resolves to BoundDoubleKcore, the AdvMax bound.
	BoundDefault Bound = iota
	// BoundNaive is |M|+|C| (the BasicMax bound).
	BoundNaive
	// BoundColor is the colour-based clique bound on the similarity
	// graph J'.
	BoundColor
	// BoundKcore is kmax(J')+1, the k-core based clique bound on J'.
	BoundKcore
	// BoundColorKcore takes the smaller of BoundColor and BoundKcore
	// (the Color+Kcore competitor of Figure 10, after Yuan et al.).
	BoundColorKcore
	// BoundDoubleKcore is the paper's (k,k')-core bound (Algorithm 6),
	// the tightest of the four.
	BoundDoubleKcore
)

// String returns the name used in the paper's figures.
func (b Bound) String() string {
	switch b {
	case BoundDefault:
		return "default"
	case BoundNaive:
		return "|M|+|C|"
	case BoundColor:
		return "color"
	case BoundKcore:
		return "kcore"
	case BoundColorKcore:
		return "color+kcore"
	case BoundDoubleKcore:
		return "double-kcore"
	default:
		return "unknown"
	}
}

// Branch selects which branch the maximum search explores first.
type Branch int

const (
	// BranchAdaptive explores first the branch with the higher
	// λΔ1−Δ2 score (AdvMax behaviour, Section 7.2).
	BranchAdaptive Branch = iota
	// BranchExpandFirst always expands first.
	BranchExpandFirst
	// BranchShrinkFirst always shrinks first.
	BranchShrinkFirst
)

// String returns the name used in Figure 11(b).
func (b Branch) String() string {
	switch b {
	case BranchAdaptive:
		return "adaptive"
	case BranchExpandFirst:
		return "expand"
	case BranchShrinkFirst:
		return "shrink"
	default:
		return "unknown"
	}
}

// Limits bounds a search. The zero value means unlimited. All limits
// are global: with Parallelism above 1 the workers draw search nodes
// from one shared budget, so MaxNodes caps the total across workers and
// nested maximal checks (not MaxNodes per worker), and the first worker
// to observe an exhausted budget stops every other worker.
type Limits struct {
	// Deadline aborts the search when passed (reported via
	// Result.TimedOut); the harness uses this for the paper's INF cells.
	Deadline time.Time
	// MaxNodes aborts after this many search-tree nodes in total, summed
	// across all workers and nested maximal checks (0 = unlimited).
	// Result.Nodes never exceeds MaxNodes.
	MaxNodes int64
	// Context, when non-nil, cancels the search when done: cancellation
	// is observed within budgetCheckInterval search nodes and reported
	// via Result.TimedOut, like any other exhausted limit.
	Context context.Context
}

// EnumOptions configures the maximal (k,r)-core enumeration.
// The zero value is the full AdvEnum configuration of Table 2.
type EnumOptions struct {
	// Order is the vertex visiting order (default OrderDelta1ThenDelta2,
	// the best enumeration order).
	Order Order
	// Lambda is the λ of OrderLambdaDelta (default 5, the paper's
	// default).
	Lambda float64
	// DisableRetention turns off the SF(C) candidate retention of
	// Theorem 4 (BasicEnum behaviour).
	DisableRetention bool
	// DisableEarlyTermination turns off Theorem 5.
	DisableEarlyTermination bool
	// DisableMaximalCheck turns off the Theorem 6 in-search maximal
	// check; non-maximal results are then removed by a quadratic
	// post-filter, as in Algorithm 1 lines 6-8.
	DisableMaximalCheck bool
	// CheckOrder is the vertex order inside the maximal check
	// (default OrderDegree, the best per Section 7.4).
	CheckOrder Order
	// MinSize, when positive, restricts the output to maximal cores
	// with at least MinSize vertices and prunes subtrees whose
	// (k,k')-core size bound falls below it — the natural
	// size-constrained variant of the enumeration (an application of
	// Theorem 7 beyond the maximum search).
	MinSize int
	// Parallelism, when above 1, processes candidate components on
	// that many goroutines. Results are identical to a serial run
	// (they are canonicalized); all workers draw from one shared
	// budget, so Limits holds globally, not per worker.
	Parallelism int
	// Limits bounds the search (shared globally across workers).
	Limits Limits

	// anchorPlus1 restricts the enumeration to cores containing vertex
	// anchorPlus1-1 when non-zero (set via EnumerateContaining; zero
	// means unrestricted, keeping the zero EnumOptions meaningful).
	anchorPlus1 int32
}

// MaxOptions configures the maximum (k,r)-core search. The zero value is
// the full AdvMax configuration of Table 2.
type MaxOptions struct {
	// Order is the vertex visiting order (default OrderLambdaDelta).
	Order Order
	// Lambda is the λ of OrderLambdaDelta (default 5).
	Lambda float64
	// Bound is the size upper bound (default BoundDoubleKcore).
	Bound Bound
	// Branch selects the branch exploration order (default
	// BranchAdaptive).
	Branch Branch
	// DisableEarlyTermination turns off Theorem 5 (Algorithm 5 line 1
	// applies it by default; disabling it is useful for ablations).
	DisableEarlyTermination bool
	// Parallelism, when above 1, searches candidate components on that
	// many goroutines sharing one incumbent size atomically, so the
	// (k,k')-core bound prunes globally. For runs that complete without
	// TimedOut, the reported core is identical to a serial run's (ties
	// between components are broken by the serial component order);
	// node counts may differ because pruning depends on when the
	// incumbent tightens, and truncated runs may stop at different
	// frontiers.
	Parallelism int
	// Limits bounds the search (shared globally across workers).
	Limits Limits
}

// Result reports the outcome of a search.
type Result struct {
	// Cores holds the reported (k,r)-cores as sorted global vertex-id
	// slices: all maximal cores for Enumerate (canonically ordered), at
	// most one core for FindMaximum.
	Cores [][]int32
	// Nodes counts expanded search-tree nodes across all candidate
	// components and workers (including maximal-check nodes). It never
	// exceeds Limits.MaxNodes when that cap is set.
	Nodes int64
	// TimedOut reports whether a limit — deadline, node cap or context
	// cancellation — aborted the search; Cores is then incomplete.
	TimedOut bool
	// Elapsed is the wall-clock duration of the search.
	Elapsed time.Duration
}

// Stats summarises an enumeration result as plotted in Figure 7.
type Stats struct {
	Count   int     // number of maximal (k,r)-cores
	MaxSize int     // size of the largest one
	AvgSize float64 // average size
}

// Summarize computes Figure-7 statistics over the result cores.
func (r *Result) Summarize() Stats {
	s := Stats{Count: len(r.Cores)}
	total := 0
	for _, c := range r.Cores {
		total += len(c)
		if len(c) > s.MaxSize {
			s.MaxSize = len(c)
		}
	}
	if s.Count > 0 {
		s.AvgSize = float64(total) / float64(s.Count)
	}
	return s
}

// budget tracks node counts, deadlines and cancellation for one search.
// A single budget is shared by every worker of a parallel search and by
// the nested maximal checks, so the limits are global: the node counter
// is one atomic total and the stop flag halts all workers at once. The
// zero value is an unlimited budget.
type budget struct {
	limits  Limits
	nodes   atomic.Int64
	stopped atomic.Bool
}

// newBudget returns a budget enforcing the given limits.
func newBudget(l Limits) *budget { return &budget{limits: l} }

// budgetCheckInterval is how many search nodes may pass between
// deadline/cancellation checks (a power of two; the counter is tested
// against interval-1 as a mask).
const budgetCheckInterval = 1024

// step accounts for one search node and reports whether the search may
// continue. Safe for concurrent use. The node counter is clamped so
// that it never exceeds MaxNodes: a step that would cross the cap is
// not counted, only refused.
func (b *budget) step() bool {
	if b.stopped.Load() {
		return false
	}
	n := b.nodes.Add(1)
	if b.limits.MaxNodes > 0 && n > b.limits.MaxNodes {
		// Undo the over-cap increment so Result.Nodes stays clamped to
		// MaxNodes. Concurrent over-cap steps each undo their own
		// increment, so the counter settles at most at MaxNodes.
		b.nodes.Add(-1)
		b.stopped.Store(true)
		return false
	}
	if n&(budgetCheckInterval-1) == 0 {
		if !b.limits.Deadline.IsZero() && time.Now().After(b.limits.Deadline) {
			b.stopped.Store(true)
			return false
		}
		if b.limits.Context != nil && b.limits.Context.Err() != nil {
			b.stopped.Store(true)
			return false
		}
	}
	return true
}

// exhausted reports whether some limit has stopped the search.
func (b *budget) exhausted() bool { return b.stopped.Load() }

// count returns the number of accounted search nodes.
func (b *budget) count() int64 { return b.nodes.Load() }

// precheck stops the budget up front when the context is already
// cancelled or the deadline already passed, so a search started with a
// dead context does no work. It reports whether the search may start.
func (b *budget) precheck() bool {
	if b.limits.Context != nil && b.limits.Context.Err() != nil {
		b.stopped.Store(true)
	}
	if !b.limits.Deadline.IsZero() && time.Now().After(b.limits.Deadline) {
		b.stopped.Store(true)
	}
	return !b.stopped.Load()
}

// runPool runs fn(i) for every i in [0, items) on up to `workers`
// goroutines drawing from the shared budget: once the budget is
// exhausted, remaining items are drained without running. With one
// worker (or one item) it runs inline in index order, stopping at the
// first exhaustion — the common search driver for enumeration, the
// maximum search and the Clique+ baseline.
func runPool(items, workers int, bud *budget, fn func(i int)) {
	if workers > items {
		workers = items
	}
	if workers <= 1 {
		for i := 0; i < items; i++ {
			fn(i)
			if bud.exhausted() {
				break
			}
		}
		return
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if bud.exhausted() {
					continue // drain remaining work after exhaustion
				}
				fn(i)
			}
		}()
	}
	for i := 0; i < items; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// cancelAfterFirst is a context whose Err is nil on the first call —
// the pre-search check — and context.Canceled afterwards, so the
// search is cancelled at its first periodic budget check, in the
// middle of a component.
type cancelAfterFirst struct {
	context.Context
	calls atomic.Int32
}

func (c *cancelAfterFirst) Err() error {
	if c.calls.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}

// poolCaseMaxNodes selects the golden cases the pool-safety test
// repeats: those of at most this many nodes (and the parallel maximum
// search, whose count is not pinned).
const poolCaseMaxNodes = 3000

// TestPooledStateSafety interleaves searches that leave pooled states
// mid-search — cut off by MaxNodes, cancelled through the context,
// racing at Parallelism 1 and 4 — with complete searches on the same
// Prepared. Every complete search must reproduce its line of the
// golden table, the answer recorded from searches that allocated fresh
// state, so a state returned to the pool with stale counters, statuses,
// rng or scratch makes this test fail.
func TestPooledStateSafety(t *testing.T) {
	st := goldenSettings[0]
	pr, err := preparePreset(st)
	if err != nil {
		t.Fatal(err)
	}
	prefix := goldenPrefix(st)
	want := map[string]string{}
	for _, line := range readGolden(t) {
		name, _, _ := strings.Cut(line, " ")
		want[name] = line
	}
	var cases []goldenCase
	for _, c := range goldenCases(goldenAnchors(pr)) {
		line, ok := want[prefix+"/"+c.name]
		if !ok {
			t.Fatalf("golden table has no line for %s/%s", prefix, c.name)
		}
		_, fields, _ := strings.Cut(line, " nodes=")
		nodes, _, _ := strings.Cut(fields, " ")
		if n, err := strconv.Atoi(nodes); err != nil || n <= poolCaseMaxNodes {
			cases = append(cases, c)
		}
	}
	if len(cases) < 40 {
		t.Fatalf("only %d golden cases selected", len(cases))
	}
	check := func(stage string, c goldenCase) {
		t.Helper()
		res, err := c.run(pr)
		if err != nil {
			t.Error(err)
			return
		}
		if got, w := goldenLine(prefix, c, res), want[prefix+"/"+c.name]; got != w {
			t.Errorf("%s:\n got  %s\n want %s", stage, got, w)
		}
	}
	completeAll := func(stage string) {
		t.Helper()
		for _, c := range cases {
			check(stage, c)
		}
	}

	// Truncated searches: every node cap stops a different component at
	// a different depth, leaving its state with M, E, a trail and an
	// advanced rng.
	for _, nodeCap := range []int64{7, 333} {
		for _, par := range []int{1, 4} {
			lim := Limits{MaxNodes: nodeCap}
			res, err := pr.Enumerate(EnumOptions{Order: OrderDelta2, Parallelism: par, Limits: lim})
			if err != nil {
				t.Fatal(err)
			}
			if !res.TimedOut || res.Nodes > nodeCap {
				t.Fatalf("enum capped at %d: nodes=%d timedout=%v", nodeCap, res.Nodes, res.TimedOut)
			}
			opt := MaxOptions{Order: OrderRandom, Bound: BoundNaive, Parallelism: par, Limits: lim}
			if _, err := pr.FindMaximum(opt); err != nil {
				t.Fatal(err)
			}
		}
		completeAll(fmt.Sprintf("after cap %d", nodeCap))
	}

	// Cancelled searches, stopped at their first periodic check. The
	// maximum search runs a configuration of more than one check
	// interval of nodes (1130 serially).
	slowMax := MaxOptions{Order: OrderDegree, Branch: BranchShrinkFirst, Bound: BoundNaive, DisableEarlyTermination: true}
	for _, par := range []int{1, 4} {
		ctx := &cancelAfterFirst{Context: context.Background()}
		res, err := pr.Enumerate(EnumOptions{Order: OrderRandom, Parallelism: par, Limits: Limits{Context: ctx}})
		if err != nil {
			t.Fatal(err)
		}
		if !res.TimedOut {
			t.Fatalf("par=%d: cancelled enumeration ran to completion (%d nodes)", par, res.Nodes)
		}
		opt := slowMax
		opt.Parallelism = par
		opt.Limits.Context = &cancelAfterFirst{Context: context.Background()}
		if res, err = pr.FindMaximum(opt); err != nil {
			t.Fatal(err)
		}
		if par == 1 && !res.TimedOut {
			t.Fatalf("cancelled maximum search ran to completion (%d nodes)", res.Nodes)
		}
	}
	completeAll("after cancellation")

	// Concurrent searches on the one Prepared: each worker walks the
	// cases from its own offset (so serial and Parallelism 4 cases
	// overlap), with a truncated search before every other case.
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range cases {
				if i%2 == 0 {
					opt := EnumOptions{Order: OrderRandom, Parallelism: 1 + 3*(i/2%2),
						Limits: Limits{MaxNodes: int64(50 + 40*i)}}
					if _, err := pr.Enumerate(opt); err != nil {
						t.Error(err)
						return
					}
				}
				check("concurrent", cases[(i+w*len(cases)/2)%len(cases)])
			}
		}(w)
	}
	wg.Wait()
	completeAll("after concurrent searches")
}

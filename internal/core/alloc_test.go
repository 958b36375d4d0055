package core

import "testing"

// warmAllocSlack is the per-query allocation allowance of a warm
// search beyond one slice per emitted core: the Result, the budget and
// incumbent, the growth of the collected core list and the final sort.
// Per-node and per-component state comes from the state pool, so a
// regression that allocates in the search kernel exceeds it at once
// (the dblp setting below runs hundreds of nodes and 38 components).
const warmAllocSlack = 24

// TestWarmSearchAllocs is the allocation gate of the search layer:
// warm Enumerate and FindMaximum on a fixed preset setting allocate at
// most one slice per emitted core plus warmAllocSlack.
func TestWarmSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	pr, err := preparePreset(goldenSettings[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"enumerate", func() (*Result, error) { return pr.Enumerate(EnumOptions{}) }},
		{"maximum", func() (*Result, error) { return pr.FindMaximum(MaxOptions{}) }},
	} {
		res, err := q.run() // warm the pool and the adjacency rows
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := q.run(); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(len(res.Cores) + warmAllocSlack); allocs > limit {
			t.Errorf("%s: %.0f allocations per warm query, want at most %.0f (%d cores + %d)",
				q.name, allocs, limit, len(res.Cores), warmAllocSlack)
		}
		t.Logf("%s: %.0f allocations per warm query, %d cores", q.name, allocs, len(res.Cores))
	}
}

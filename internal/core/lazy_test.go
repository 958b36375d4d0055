package core

import (
	"strings"
	"sync"
	"testing"
)

// freshPreset prepares a golden setting and checks that preparation
// built no component.
func freshPreset(t *testing.T, st goldenSetting) *Prepared {
	t.Helper()
	before := componentBuilds.Load()
	pr, err := preparePreset(st)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Components() < 2 {
		t.Fatalf("%s: %d components, want several", goldenPrefix(st), pr.Components())
	}
	if n := componentBuilds.Load() - before; n != 0 || pr.BuiltComponents() != 0 {
		t.Fatalf("preparation built %d components (%d marked built)", n, pr.BuiltComponents())
	}
	return pr
}

// TestFirstTouchContainingBuildsAnchorOnly checks that a cold
// containing query builds exactly its anchor's component, and nothing
// when the anchor lies outside every component.
func TestFirstTouchContainingBuildsAnchorOnly(t *testing.T) {
	pr := freshPreset(t, goldenSettings[0])
	outside := int32(-1)
	for v, id := range pr.compID {
		if id < 0 {
			outside = int32(v)
			break
		}
	}
	if outside < 0 {
		t.Fatal("every vertex lies in a component")
	}
	before := componentBuilds.Load()
	res, err := pr.EnumerateContaining(outside, EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 0 || res.Nodes != 0 {
		t.Fatalf("anchor outside every component: %d cores, %d nodes", len(res.Cores), res.Nodes)
	}
	if n := componentBuilds.Load() - before; n != 0 {
		t.Fatalf("anchor outside every component built %d components", n)
	}

	// Anchor in the largest component that is not the first, so a scan
	// from the front would have to pass others.
	var target *problem
	for _, c := range pr.probs[1:] {
		if target == nil || c.n > target.n {
			target = c
		}
	}
	anchor := target.orig[len(target.orig)/2]
	res, err = pr.EnumerateContaining(anchor, EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := componentBuilds.Load() - before; n != 1 {
		t.Fatalf("containing query built %d components, want 1", n)
	}
	for _, c := range pr.probs {
		if c.built.Load() != (c == target) {
			t.Fatalf("component at %d: built=%v, anchor component at %d", c.orig[0], c.built.Load(), target.orig[0])
		}
	}
	// The answer equals the anchor's share of the full enumeration.
	all, err := pr.Enumerate(EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]int32
	for _, c := range all.Cores {
		if _, ok := localOf(c, anchor); ok {
			want = append(want, c)
		}
	}
	if len(want) == 0 || !sameCoreLists(res.Cores, want) {
		t.Fatalf("containing v%d: %d cores, want %d", anchor, len(res.Cores), len(want))
	}
}

func sameCoreLists(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !equalCores(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestFirstTouchMaximumSkipsSmallComponents checks that a cold maximum
// search leaves unbuilt every component it visits after the maximum
// core's component and that is no larger than the maximum core: its
// size alone rules it out, so it is skipped before its build.
func TestFirstTouchMaximumSkipsSmallComponents(t *testing.T) {
	for _, st := range goldenSettings {
		pr := freshPreset(t, st)
		before := componentBuilds.Load()
		res, err := pr.FindMaximum(MaxOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Cores) != 1 || res.TimedOut {
			t.Fatalf("%s: %d cores, timed out %v", goldenPrefix(st), len(res.Cores), res.TimedOut)
		}
		best := res.Cores[0]
		from := -1
		for i, c := range pr.byDeg {
			if c.orig[0] == pr.compID[best[0]] {
				from = i
			}
		}
		skipped := 0
		for i, c := range pr.byDeg {
			if i > from && c.n <= len(best) {
				if c.built.Load() {
					t.Errorf("%s: component %d of %d vertices built after a core of %d",
						goldenPrefix(st), i, c.n, len(best))
				}
				skipped++
			}
		}
		if skipped == 0 {
			t.Errorf("%s: no component small enough to skip", goldenPrefix(st))
		}
		built := pr.BuiltComponents()
		if n := componentBuilds.Load() - before; n != int64(built) || built+skipped > pr.Components() {
			t.Errorf("%s: %d builds, %d built, %d skipped of %d", goldenPrefix(st), n, built, skipped, pr.Components())
		}
	}
}

// TestFirstTouchConcurrentBuildOnce races goroutines over the unbuilt
// components of one Prepared: anchored searches touching one component
// at Parallelism 4 alongside full enumerations touching all of them at
// Parallelism 4. Every component must be built exactly once and every
// answer must match its golden line.
func TestFirstTouchConcurrentBuildOnce(t *testing.T) {
	st := goldenSettings[0]
	prefix := goldenPrefix(st)
	want := map[string]string{}
	for _, line := range readGolden(t) {
		name, _, _ := strings.Cut(line, " ")
		want[name] = line
	}
	warm, err := preparePreset(st)
	if err != nil {
		t.Fatal(err)
	}
	anchors := goldenAnchors(warm)
	var cases []goldenCase
	for _, c := range goldenCases(anchors) {
		if c.name == "enum/parallel=4" || strings.HasPrefix(c.name, "containing/v") && strings.HasSuffix(c.name, "/parallel=4") {
			cases = append(cases, c)
		}
	}
	if len(cases) != 1+len(anchors) || len(anchors) < 2 {
		t.Fatalf("selected %d cases for %d anchors", len(cases), len(anchors))
	}

	for round := 0; round < 3; round++ {
		pr := freshPreset(t, st)
		before := componentBuilds.Load()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			c := cases[g%len(cases)]
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				res, err := c.run(pr)
				if err != nil {
					t.Error(err)
					return
				}
				if got, w := goldenLine(prefix, c, res), want[prefix+"/"+c.name]; got != w {
					t.Errorf("round %d:\n got  %s\n want %s", round, got, w)
				}
			}()
		}
		close(start)
		wg.Wait()
		if n := componentBuilds.Load() - before; n != int64(pr.Components()) || pr.BuiltComponents() != pr.Components() {
			t.Fatalf("round %d: %d builds, %d built, for %d components", round, n, pr.BuiltComponents(), pr.Components())
		}
	}
}

// TestFirstTouchNothingAfterMaterialize checks that once every
// component is built (what Engine.Warm does), queries build nothing.
func TestFirstTouchNothingAfterMaterialize(t *testing.T) {
	pr := freshPreset(t, goldenSettings[1])
	before := componentBuilds.Load()
	pr.Materialize()
	pr.Materialize()
	if n := componentBuilds.Load() - before; n != int64(pr.Components()) || pr.BuiltComponents() != pr.Components() {
		t.Fatalf("Materialize built %d of %d components", n, pr.Components())
	}
	before = componentBuilds.Load()
	if _, err := pr.Enumerate(EnumOptions{Parallelism: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := pr.FindMaximum(MaxOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := pr.EnumerateContaining(pr.probs[0].orig[0], EnumOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := componentBuilds.Load() - before; n != 0 {
		t.Fatalf("queries after Materialize built %d components", n)
	}
}

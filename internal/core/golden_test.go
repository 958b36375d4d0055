package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"krcore/internal/dataset"
)

// goldenFile holds one line per search of goldenCases: the node count,
// the timeout flag, the number of cores and a digest of the cores. It
// pins the answers and node counts of the branch-and-bound kernel
// across rewrites of its internals. When a change alters answers on
// purpose, the failing test logs the full table with the new lines.
const goldenFile = "testdata/golden_search.txt"

// goldenSetting is one (k,r) setting of a preset. For the keyword
// presets r is given as a top-permille share and resolved through the
// dataset's calibration.
type goldenSetting struct {
	preset   string
	k        int
	r        float64
	permille bool
}

var goldenSettings = []goldenSetting{
	{preset: "dblp", k: 5, r: 3, permille: true},
	{preset: "dblp", k: 8, r: 2, permille: true},
	{preset: "gowalla", k: 5, r: 10},
	{preset: "gowalla", k: 4, r: 20},
}

var goldenOrders = []Order{
	OrderDefault, OrderDelta1ThenDelta2, OrderLambdaDelta,
	OrderDelta1, OrderDelta2, OrderDegree, OrderRandom,
}

// goldenNodeCap bounds every golden search so the grid stays fast even
// for the weak ablations. Serial runs stop at a deterministic frontier,
// so a truncated answer is as reproducible as a complete one.
const goldenNodeCap = 10000

// goldenCase is one search of the grid. deterministicNodes is false
// for the parallel maximum search, whose node count depends on when the
// shared incumbent tightens (its core does not).
type goldenCase struct {
	name               string
	run                func(pr *Prepared) (*Result, error)
	deterministicNodes bool
}

// goldenCases lists the grid for one prepared setting: enumeration
// under every order, check order and ablation; the maximum search
// under every order × branch mode (the Figure 11(b)/(c) ablations) and
// every bound; anchored enumeration at a few vertices; and the default
// configurations again at Parallelism 4.
func goldenCases(anchors []int32) []goldenCase {
	lim := Limits{MaxNodes: goldenNodeCap}
	var cs []goldenCase
	enum := func(name string, opt EnumOptions) {
		opt.Limits = lim
		cs = append(cs, goldenCase{name: "enum/" + name, deterministicNodes: true,
			run: func(pr *Prepared) (*Result, error) { return pr.Enumerate(opt) }})
	}
	max := func(name string, opt MaxOptions) {
		opt.Limits = lim
		cs = append(cs, goldenCase{name: "max/" + name, deterministicNodes: opt.Parallelism <= 1,
			run: func(pr *Prepared) (*Result, error) { return pr.FindMaximum(opt) }})
	}
	containing := func(name string, v int32, opt EnumOptions) {
		opt.Limits = lim
		cs = append(cs, goldenCase{name: fmt.Sprintf("containing/v%d/%s", v, name), deterministicNodes: true,
			run: func(pr *Prepared) (*Result, error) { return pr.EnumerateContaining(v, opt) }})
	}
	for _, o := range goldenOrders {
		enum("order="+o.String(), EnumOptions{Order: o})
		for _, b := range []Branch{BranchAdaptive, BranchExpandFirst, BranchShrinkFirst} {
			max(fmt.Sprintf("order=%s/branch=%s", o, b), MaxOptions{Order: o, Branch: b})
		}
	}
	for _, o := range []Order{OrderDelta1ThenDelta2, OrderLambdaDelta, OrderDelta1, OrderRandom} {
		enum("check="+o.String(), EnumOptions{CheckOrder: o})
	}
	enum("no-retention", EnumOptions{DisableRetention: true})
	enum("no-early-termination", EnumOptions{DisableEarlyTermination: true})
	enum("no-maximal-check", EnumOptions{DisableMaximalCheck: true})
	enum("min-size", EnumOptions{MinSize: 12})
	for _, b := range []Bound{BoundNaive, BoundColor, BoundKcore, BoundColorKcore, BoundDoubleKcore} {
		max("bound="+b.String(), MaxOptions{Bound: b})
	}
	max("no-early-termination", MaxOptions{DisableEarlyTermination: true})
	for _, v := range anchors {
		for _, o := range []Order{OrderDefault, OrderLambdaDelta, OrderDelta1, OrderDelta2} {
			containing("order="+o.String(), v, EnumOptions{Order: o})
		}
	}
	enum("parallel=4", EnumOptions{Parallelism: 4})
	max("parallel=4", MaxOptions{Parallelism: 4})
	for _, v := range anchors {
		containing("parallel=4", v, EnumOptions{Parallelism: 4})
	}
	return cs
}

// goldenLine formats one search outcome.
func goldenLine(prefix string, c goldenCase, res *Result) string {
	h := sha256.New()
	var buf [4]byte
	for _, core := range res.Cores {
		binary.LittleEndian.PutUint32(buf[:], uint32(len(core)))
		h.Write(buf[:])
		for _, v := range core {
			binary.LittleEndian.PutUint32(buf[:], uint32(v))
			h.Write(buf[:])
		}
	}
	nodes := fmt.Sprint(res.Nodes)
	if !c.deterministicNodes {
		nodes = "-"
	}
	return fmt.Sprintf("%s/%s nodes=%s timedout=%t cores=%d digest=%x",
		prefix, c.name, nodes, res.TimedOut, len(res.Cores), h.Sum(nil)[:8])
}

var (
	presetMu    sync.Mutex
	presetCache = map[string]*dataset.Dataset{}
)

// preparePreset prepares one setting of a preset; the generated
// datasets are cached for the whole test binary.
func preparePreset(st goldenSetting) (*Prepared, error) {
	presetMu.Lock()
	d := presetCache[st.preset]
	if d == nil {
		var err error
		if d, err = dataset.Load(st.preset); err != nil {
			presetMu.Unlock()
			return nil, err
		}
		presetCache[st.preset] = d
	}
	presetMu.Unlock()
	thr := st.r
	if st.permille {
		thr = d.TopPermille(st.r)
	}
	return Prepare(d.Graph, Params{K: st.k, Oracle: d.Oracle(thr)})
}

// goldenPrefix names a setting in the golden table.
func goldenPrefix(st goldenSetting) string {
	prefix := fmt.Sprintf("%s/k=%d/r=%g", st.preset, st.k, st.r)
	if st.permille {
		prefix += "permille"
	}
	return prefix
}

// computeGolden runs the whole grid.
func computeGolden() ([]string, error) {
	var table []string
	for _, st := range goldenSettings {
		pr, err := preparePreset(st)
		if err != nil {
			return nil, err
		}
		prefix := goldenPrefix(st)
		for _, c := range goldenCases(goldenAnchors(pr)) {
			res, err := c.run(pr)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", prefix, c.name, err)
			}
			table = append(table, goldenLine(prefix, c, res))
		}
	}
	return table, nil
}

// readGolden returns the checked-in golden lines in order.
func readGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(filepath.FromSlash(goldenFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// goldenAnchors picks query vertices for the anchored searches: the
// smallest vertex of the first and the last maximal core, plus the
// first vertex of the first candidate component that lies in no core.
func goldenAnchors(pr *Prepared) []int32 {
	res, err := pr.Enumerate(EnumOptions{})
	if err != nil || len(res.Cores) == 0 {
		return nil
	}
	anchors := []int32{res.Cores[0][0], res.Cores[len(res.Cores)-1][0]}
	inCore := map[int32]bool{}
	for _, c := range res.Cores {
		for _, v := range c {
			inCore[v] = true
		}
	}
	for _, prob := range pr.probs {
		for _, v := range prob.orig {
			if !inCore[v] {
				return append(anchors, v)
			}
		}
	}
	return anchors
}

// TestGoldenAnswers checks every search of the grid against the
// checked-in digests: same cores, same node counts, same timeout flags.
func TestGoldenAnswers(t *testing.T) {
	got, err := computeGolden()
	if err != nil {
		t.Fatal(err)
	}
	want := readGolden(t)
	bad := 0
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			bad++
			if bad <= 20 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d golden lines differ; full table:\n%s", bad, len(want), strings.Join(got, "\n"))
	}
}

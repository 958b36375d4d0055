// Command krbench is the repository's benchmark: it runs one named
// workload against the real serving stack in one process — dataset,
// krcore.Engine or DynamicEngine, server, loopback HTTP, client, and
// for the fleet replica.Follower and replica.Router — checks every
// answer, and prints the workload's metrics.
//
//	krbench -workload read-hot -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. The line before
// it is a report stamped with the seed, GOMAXPROCS, CPU count, Go
// version and commit, holding every metric the run measured. A wrong
// answer exits 1. See README.md for the workloads and metrics, and
// run.sh for building from source.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	commit   string
}

func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// setupRepeats is how many times an untraced run builds its stack;
// setup_s is the median CPU time of a setup, and the last stack serves.
// CPU time rather than wall time: wall time also counts the time the
// hypervisor gives other guests, which moved the same setup's median
// by a third between sets of runs.
const setupRepeats = 9

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "krbench:", err)
		os.Exit(2)
	}
	res, err := run(context.Background(), cfg)
	if res != nil {
		if werr := res.write(os.Stdout); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "krbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("krbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the request and update streams")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for journals and span dumps")
	fs.StringVar(&cfg.commit, "commit", "unknown", "commit the binary was built from (stamped into the report)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q (want %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return cfg, errors.New("-seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return cfg, errors.New("-trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	return cfg, nil
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) add(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is what one run prints.
type result struct {
	report    map[string]any
	correct   bool
	attempted int
	failed    int
	metrics   metrics // the contract's metrics for this mode
}

func (r *result) write(w io.Writer) error {
	rep, err := json.Marshal(r.report)
	if err != nil {
		return err
	}
	last, err := json.Marshal(map[string]any{
		"correct":   r.correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", rep, last)
	return err
}

// endToEnd names the metrics every workload reports with -trace 0.
var endToEnd = []string{
	"setup_s", "containing_p50_ms", "cpu_ms_per_op", "rss_peak_mb", "alloc_kb_per_op",
}

// perLayer names the metrics every workload reports with -trace 1. A
// layer the workload does not exercise reads 0.
var perLayer = []string{
	"simindex.build_ms", "core.filter_ms", "core.filter_kept_frac", "kcore.decompose_ms",
	"core.prepare_ms", "core.components",
	"core.search_ms.enum", "core.search_ms.maximum", "core.search_ms.containing",
	"core.nodes_per_op.enum", "core.nodes_per_op.maximum", "core.nodes_per_op.containing",
	"engine.hit_ratio", "engine.query_ms", "engine.lookups_unaccounted",
	"server.self_ms", "server.response_kb",
	"updates.journal_append_ms.p50", "updates.journal_append_ms.p99", "updates.journal_bytes_per_op",
	"engine.commit_ms", "engine.batches_per_commit", "engine.indexes_rebuilt_per_batch",
	"engine.components_rebuilt_per_batch", "engine.patches_full_frac", "kcore.repair_visited_per_op",
	"replica.router_self_ms", "replica.lag_ops_max", "replica.bootstraps",
	"gen.write_late_ms_p99", "trace.overhead_frac",
}

func pick(all metrics, names []string) (metrics, error) {
	out := metrics{}
	for _, n := range names {
		m, ok := all[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		out[n] = m
	}
	return out, nil
}

func run(ctx context.Context, cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	w := workloads[cfg.workload]
	all := metrics{}
	var win *window
	var err error
	if cfg.trace {
		win, err = tracedRun(ctx, cfg, w, all)
	} else {
		win, err = plainRun(ctx, cfg, w, all)
	}
	if err != nil {
		return nil, err
	}
	res := &result{
		correct:   win.checkErr == nil,
		attempted: win.attempted,
		failed:    win.failed,
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	if res.metrics, err = pick(all, names); err != nil {
		return nil, err
	}
	res.report = map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"commit":     cfg.commit,
		"dataset":    w.dataset,
		"metrics":    all,
	}
	if win.checkErr != nil {
		res.report["check_error"] = win.checkErr.Error()
		return res, fmt.Errorf("output check failed: %w", win.checkErr)
	}
	return res, nil
}

// plainRun is the untraced run: setupRepeats setups (setup_s is the
// median of their CPU times), one measured window on the last stack, then the output
// check and the end-to-end metrics.
func plainRun(ctx context.Context, cfg config, w workload, all metrics) (*window, error) {
	in, err := w.inputs(cfg)
	if err != nil {
		return nil, err
	}
	var setups, walls []float64
	var st stack
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
		}
		runtime.GC()
		c0, t0 := cpuTime(), time.Now()
		if st, err = w.setup(cfg, nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
		walls = append(walls, time.Since(t0).Seconds())
	}
	defer st.close()
	win, err := measure(ctx, cfg, st, in)
	if err != nil {
		return nil, err
	}
	win.checkErr = st.check(win)
	all.add("setup_s", quantile(setups, 0.5), "s")
	all.add("setup_wall_s", quantile(walls, 0.5), "s")
	win.endToEnd(all)
	return win, nil
}

// tracedRun measures an untraced window on one stack, then builds a
// traced stack, measures the same request stream on it and derives the
// per-layer metrics from its spans, counters and a direct layer pass.
// Both windows' answers are checked.
func tracedRun(ctx context.Context, cfg config, w workload, all metrics) (*window, error) {
	in, err := w.inputs(cfg)
	if err != nil {
		return nil, err
	}
	plain, err := w.setup(cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	pw, err := measure(ctx, cfg, plain, in)
	if err == nil {
		pw.checkErr = plain.check(pw)
	}
	plain.close()
	if err != nil {
		return nil, err
	}

	t := newTracer()
	traced, err := w.setup(cfg, t)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	defer traced.close()
	tw, err := measure(ctx, cfg, traced, in)
	if err != nil {
		return nil, err
	}
	tw.checkErr = traced.check(tw)
	if tw.checkErr == nil {
		tw.checkErr = pw.checkErr
	}
	tw.attempted += pw.attempted
	tw.failed += pw.failed
	traced.layers(tw, t.snapshot(), all)
	all.add("trace.overhead_frac", ratio(tw.cpuPerOp(), pw.cpuPerOp())-1, "ratio")

	dir := filepath.Join(cfg.workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := t.dump(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))); err != nil {
		return nil, err
	}
	return tw, nil
}

// measure runs one window with the allocation counter and peak RSS
// read around it.
func measure(ctx context.Context, cfg config, st stack, in inputs) (*window, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	win, err := st.serve(ctx, cfg, in)
	if err != nil {
		return nil, err
	}
	win.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	win.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	win.rssMB = peakRSSMB()
	return win, nil
}

// window is what one measured window observed.
type window struct {
	reads    []readRec
	readDur  time.Duration
	writes   []writeRec
	writeDur time.Duration
	stale    []time.Duration
	lagMax   int64
	acked    int64

	attempted, failed int
	allocBytes        uint64
	cpu               time.Duration
	rssMB             float64
	checkErr          error

	// Counter deltas over the window.
	hits, misses int64
	dyn          dynDelta
	journalBytes int64
	bootstraps   int64
}

// dynDelta is the leader's DynamicStats change over the window.
type dynDelta struct {
	updates, batches, groupCommits         float64
	indexesRebuilt, componentsRebuilt      float64
	patchesFull, patchesIncremental, visit float64
}

func (w *window) tally() {
	w.attempted, w.failed = 0, 0
	for _, r := range w.reads {
		w.attempted++
		if !r.ok {
			w.failed++
		}
	}
	for _, r := range w.writes {
		w.attempted++
		if !r.ok {
			w.failed++
		}
	}
}

// completed counts successful reads and writes.
func (w *window) completed() int {
	n := 0
	for _, r := range w.reads {
		if r.ok {
			n++
		}
	}
	for _, r := range w.writes {
		if r.ok {
			n++
		}
	}
	return n
}

func (w *window) cpuPerOp() float64 { return ratio(ms(w.cpu), float64(w.completed())) }

func (w *window) readOpsPerS() float64 {
	n := 0
	for _, r := range w.reads {
		if r.ok {
			n++
		}
	}
	return ratio(float64(n), w.readDur.Seconds())
}

// latencies returns the client latencies (ms) of successful reads of
// one kind.
func (w *window) latencies(kind string) []float64 {
	var out []float64
	for _, r := range w.reads {
		if r.ok && r.req.Kind == kind {
			out = append(out, ms(r.lat))
		}
	}
	return out
}

// endToEnd adds every end-to-end metric the window measured: the
// contract's uniform set plus the kind- and write-specific ones the
// workload has, which go to the report line.
func (w *window) endToEnd(all metrics) {
	all.add("read_ops_per_s", w.readOpsPerS(), "1/s")
	for _, kind := range queryKinds {
		lat := w.latencies(kind)
		if len(lat) == 0 {
			continue
		}
		all.add(kind+"_p50_ms", quantile(lat, 0.5), "ms")
		all.add(kind+"_p99_ms", quantile(lat, 0.99), "ms")
		all.add("samples."+kind, float64(len(lat)), "count")
	}
	if len(w.writes) > 0 {
		var lat []float64
		for _, r := range w.writes {
			if r.ok {
				lat = append(lat, ms(r.lat))
			}
		}
		all.add("write_ops_per_s", ratio(float64(len(lat)), w.writeDur.Seconds()), "1/s")
		all.add("write_p50_ms", quantile(lat, 0.5), "ms")
		all.add("write_p99_ms", quantile(lat, 0.99), "ms")
		all.add("samples.write", float64(len(lat)), "count")
		var stale []float64
		for _, d := range w.stale {
			stale = append(stale, ms(d))
		}
		all.add("staleness_p99_ms", quantile(stale, 0.99), "ms")
	}
	all.add("failed_frac", ratio(float64(w.failed), float64(w.attempted)), "ratio")
	all.add("rss_peak_mb", w.rssMB, "MB")
	all.add("cpu_ms_per_op", w.cpuPerOp(), "ms")
	all.add("alloc_kb_per_op", ratio(float64(w.allocBytes)/1024, float64(w.completed())), "KB")
}

// readLayers adds the per-layer metrics of the read path: search and
// node counts per kind, engine cache traffic, and server self time.
func (w *window) readLayers(spans []span, lp layerPass, all metrics) {
	all.add("simindex.build_ms", quantile(lp.indexMS, 0.5), "ms")
	all.add("core.filter_ms", quantile(lp.filterMS, 0.5), "ms")
	all.add("core.filter_kept_frac", mean(lp.keptFrac), "ratio")
	all.add("kcore.decompose_ms", quantile(lp.decomposeMS, 0.5), "ms")
	all.add("core.prepare_ms", quantile(lp.prepareMS, 0.5), "ms")
	all.add("core.components", mean(lp.components), "count")
	for _, kind := range queryKinds {
		all.add("core.search_ms."+kind, quantile(lp.searchMS[kind], 0.5), "ms")
		var nodes []float64
		for _, r := range w.reads {
			if r.ok && r.req.Kind == kind {
				nodes = append(nodes, float64(r.nodes))
			}
		}
		all.add("core.nodes_per_op."+kind, mean(nodes), "count")
	}
	all.add("engine.hit_ratio", ratio(float64(w.hits), float64(w.hits+w.misses)), "ratio")
	all.add("engine.query_ms", quantile(durations(spans, layerEngine), 0.5), "ms")
	all.add("engine.lookups_unaccounted", float64(int64(len(w.reads))-(w.hits+w.misses)), "count")
	all.add("server.self_ms", quantile(querySelfTimes(spans), 0.5), "ms")
	var kb []float64
	for _, s := range spans {
		if s.Layer == layerServer && s.Kind != "update" {
			kb = append(kb, float64(s.N)/1024)
		}
	}
	all.add("server.response_kb", mean(kb), "KB")
}

// querySelfTimes is the server's own time per query: handler span
// minus the backend query span it caused.
func querySelfTimes(spans []span) []float64 {
	var q []span
	for _, s := range spans {
		if (s.Layer == layerServer && s.Kind != "update") || s.Layer == layerEngine {
			q = append(q, s)
		}
	}
	return selfTimes(q, layerServer, layerEngine)
}

// writeLayers adds the per-layer metrics of the write path. A workload
// without writes reports them as 0: that layer did no work.
func (w *window) writeLayers(spans []span, all metrics) {
	appends := durations(spans, layerJournal)
	all.add("updates.journal_append_ms.p50", quantile(appends, 0.5), "ms")
	all.add("updates.journal_append_ms.p99", quantile(appends, 0.99), "ms")
	all.add("updates.journal_bytes_per_op", ratio(float64(w.journalBytes), float64(w.acked)), "B")
	all.add("engine.commit_ms", quantile(containedSelfTimes(spans, layerApply, layerJournal), 0.5), "ms")
	d := w.dyn
	all.add("engine.batches_per_commit", ratio(d.batches, d.groupCommits), "count")
	all.add("engine.indexes_rebuilt_per_batch", ratio(d.indexesRebuilt, d.batches), "count")
	all.add("engine.components_rebuilt_per_batch", ratio(d.componentsRebuilt, d.batches), "count")
	all.add("engine.patches_full_frac", ratio(d.patchesFull, d.patchesFull+d.patchesIncremental), "ratio")
	all.add("kcore.repair_visited_per_op", ratio(d.visit, d.updates), "count")
	var routed []span
	for _, s := range spans {
		if (s.Layer == layerRouter && s.Kind != "update") || s.Layer == layerForward {
			routed = append(routed, s)
		}
	}
	all.add("replica.router_self_ms", quantile(selfTimes(routed, layerRouter, layerForward), 0.5), "ms")
	all.add("replica.lag_ops_max", float64(w.lagMax), "count")
	all.add("replica.bootstraps", float64(w.bootstraps), "count")
	var late []float64
	for _, r := range w.writes {
		late = append(late, ms(r.late))
	}
	all.add("gen.write_late_ms_p99", quantile(late, 0.99), "ms")
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

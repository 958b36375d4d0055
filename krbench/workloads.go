package main

import (
	"context"
	"fmt"
	"math"
	"os"

	"krcore"
)

// workload is one named traffic mix against one stack shape.
type workload struct {
	dataset string
	// inputs generates what the load generator replays, outside setup.
	inputs func(cfg config) (inputs, error)
	// setup builds the stack, ready to serve; t is nil when untraced.
	setup func(cfg config, t *tracer) (stack, error)
}

type inputs struct {
	ups []krcore.Update // fleet-write's update stream
}

// stack is a running system under test.
type stack interface {
	// serve runs one measured window.
	serve(ctx context.Context, cfg config, in inputs) (*window, error)
	// check verifies the window's answers; nil means all correct.
	check(w *window) error
	// layers adds the per-layer metrics of a traced window.
	layers(w *window, spans []span, all metrics)
	close()
}

func noInputs(config) (inputs, error) { return inputs{}, nil }

var workloads = map[string]workload{
	"read-hot": {
		dataset: "dblp",
		inputs:  noInputs,
		setup: func(_ config, t *tracer) (stack, error) {
			return setupHot(t)
		},
	},
	"read-cold": {
		dataset: "dblp",
		inputs:  noInputs,
		setup: func(_ config, t *tracer) (stack, error) {
			return setupCold(t)
		},
	},
	"fleet-write": {
		dataset: "gowalla",
		inputs: func(cfg config) (inputs, error) {
			ups, err := updateStream(cfg.window())
			return inputs{ups: ups}, err
		},
		setup: func(cfg config, t *tracer) (stack, error) {
			return setupFleet(cfg.workdir, t)
		},
	},
}

// --- static stacks (read-hot, read-cold) ---

func (s *staticStack) serve(ctx context.Context, cfg config, _ inputs) (*window, error) {
	before := s.stats()
	reads, dur := s.loadFor(cfg).run(ctx, cfg.window())
	after := s.stats()
	w := &window{
		reads:   reads,
		readDur: dur,
		hits:    after.Hits - before.Hits,
		misses:  after.Misses - before.Misses,
	}
	w.tally()
	return w, nil
}

func (s *staticStack) check(w *window) error {
	fresh := func() *krcore.Engine { return krcore.NewEngine(s.d.Graph, s.d.Metric()) }
	var bad int
	var err error
	if s.cold != nil {
		bad, err = checkReads(w.reads, fresh, coldEpoch, readClients)
	} else {
		bad, err = checkReads(w.reads, fresh, math.MaxInt64, 1)
	}
	if bad > 0 && err != nil {
		return fmt.Errorf("%d responses wrong; first: %w", bad, err)
	}
	return err
}

// coldLayerRs is how many of read-cold's fresh thresholds the layer
// pass re-prepares (three settings each).
const coldLayerRs = 24

func (s *staticStack) layers(w *window, spans []span, all metrics) {
	maxR := len(hotPermilles)
	if s.cold != nil {
		maxR = coldLayerRs
	}
	w.readLayers(spans, runLayerPass(s.d.Graph, s.d.Metric(), w.reads, maxR), all)
	w.writeLayers(spans, all)
}

// --- fleet (fleet-write) ---

func (s *fleetStack) readStats() (hits, misses int64) {
	st := s.leader.Stats()
	hits, misses = st.Hits, st.Misses
	for _, f := range s.fols {
		st := f.Stats()
		hits += st.Hits
		misses += st.Misses
	}
	return hits, misses
}

func (s *fleetStack) serve(ctx context.Context, cfg config, in inputs) (*window, error) {
	h0, m0 := s.readStats()
	d0 := s.leader.DynamicStats()
	j0 := fileSize(s.paths[0])
	fw, err := s.drive(ctx, cfg.seed, in.ups, cfg.window())
	if err != nil {
		return nil, err
	}
	h1, m1 := s.readStats()
	d1 := s.leader.DynamicStats()
	w := &window{
		reads:        fw.reads,
		readDur:      fw.readDur,
		writes:       fw.writes,
		writeDur:     cfg.window(),
		stale:        fw.stale.samples,
		lagMax:       fw.stale.lagMax,
		acked:        fw.acked,
		hits:         h1 - h0,
		misses:       m1 - m0,
		journalBytes: fileSize(s.paths[0]) - j0,
		dyn: dynDelta{
			updates:            float64(d1.Updates - d0.Updates),
			batches:            float64(d1.Batches - d0.Batches),
			groupCommits:       float64(d1.GroupCommits - d0.GroupCommits),
			indexesRebuilt:     float64(d1.IndexesRebuilt - d0.IndexesRebuilt),
			componentsRebuilt:  float64(d1.ComponentsRebuilt - d0.ComponentsRebuilt),
			patchesFull:        float64(d1.PatchesFull - d0.PatchesFull),
			patchesIncremental: float64(d1.PatchesIncremental - d0.PatchesIncremental),
			visit:              float64(d1.CoreVisited - d0.CoreVisited),
		},
	}
	for _, f := range s.fols {
		w.bootstraps += f.Bootstraps()
	}
	w.tally()
	return w, nil
}

func (s *fleetStack) check(w *window) error {
	if err := s.drain(); err != nil {
		return err
	}
	return s.checkFleet(w.acked)
}

func (s *fleetStack) layers(w *window, spans []span, all metrics) {
	w.readLayers(spans, runLayerPass(s.leader.Graph(), s.attrs.Metric(), w.reads, len(fleetRs)), all)
	w.writeLayers(spans, all)
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

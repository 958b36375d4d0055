package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"krcore"
	"krcore/client"
	"krcore/internal/attr"
	"krcore/internal/dataset"
	"krcore/internal/updates"
	"krcore/replica"
	"krcore/server"
)

// Fleet shape: followers behind the router, the follower long-poll as
// in the CI fleet soak, and the open-loop write schedule. One batch of
// one operation every 50ms keeps the churn light enough that the graph
// the reads see changes little over a window: at 50 batches of 4
// operations per second, read throughput rose fivefold within 10s as
// the churn dissolved the planted communities.
const (
	fleetFollowers = 2
	fleetPollWait  = 200 * time.Millisecond
	writeRate      = 20 // update batches per second
	writeBatch     = 1  // operations per batch
)

// fleetRs are the gowalla thresholds (km) of the nine hot settings, in
// the rank order of hotPermilles: the preset's default 10 km, then the
// stricter 5 km, then the looser 15 km.
var fleetRs = []float64{10, 5, 15}

// fleetStack is a journaled leader and journaled followers behind a
// router, all in-process on loopback ports.
type fleetStack struct {
	d      *dataset.Dataset
	attrs  krcore.DynamicAttributes
	hot    []setting
	leader *krcore.DynamicEngine
	fols   []*replica.Follower

	journals []*updates.Journal
	paths    []string
	nodes    []*node // leader, followers, router
	router   *node
	leaderN  *node

	cancel context.CancelFunc
	wg     sync.WaitGroup
	trs    []*http.Transport

	// commits is signalled after every follower commit round, so the
	// staleness watcher wakes when an offset moves.
	commits chan struct{}
	t       *tracer
}

// setupFleet builds fleet-write's stack in the order a deployment
// starts it: the gowalla preset on a dynamic leader with its nine hot
// settings warmed and its journal open, followers bootstrapped from
// the leader's snapshot with their own journals, and the router.
func setupFleet(dir string, t *tracer) (s *fleetStack, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	s = &fleetStack{cancel: cancel, commits: make(chan struct{}, 1), t: t}
	defer func() {
		if err != nil {
			s.close()
			s = nil
		}
	}()
	if s.d, err = loadPreset("gowalla"); err != nil {
		return s, err
	}
	if s.attrs, err = updates.Attrs(s.d); err != nil {
		return s, err
	}
	if s.leader, err = krcore.NewDynamicEngine(s.d.Graph, s.attrs); err != nil {
		return s, err
	}
	s.hot = rankSettings(fleetRs)
	for _, st := range s.hot {
		if err := s.leader.Warm(st.K, st.R); err != nil {
			return s, fmt.Errorf("warm k=%d r=%g: %w", st.K, st.R, err)
		}
	}
	kind, err := updates.ParseKind(s.leader.AttributeKind())
	if err != nil {
		return s, err
	}
	lj, err := s.openJournal(dir, "leader", kind)
	if err != nil {
		return s, err
	}
	if t != nil {
		s.leader.SetJournal(&tracedJournal{inner: lj, t: t})
	} else {
		s.leader.SetJournal(lj)
	}
	lsrv, err := s.startServer(s.leader, server.Config{
		Dataset:    s.d.Name,
		JournalLen: lj.TailOps,
		Tail:       lj,
		Snapshot:   s.leader.SaveSnapshot,
	})
	if err != nil {
		return s, err
	}
	s.leader.SetCommitObserver(lsrv.ObserveGroupCommit)
	lj.SetAppendObserver(lsrv.ObserveJournalAppend)
	s.leaderN = s.nodes[0]

	replHC, replTr := newHTTPClient(nil, "")
	s.trs = append(s.trs, replTr)
	var folURLs []string
	for i := 0; i < fleetFollowers; i++ {
		fj, err := s.openJournal(dir, fmt.Sprintf("follower%d", i), kind)
		if err != nil {
			return s, err
		}
		fol, err := replica.NewFollower(replica.FollowerConfig{
			Leader:   s.leaderN.url,
			Client:   client.New(s.leaderN.url, client.WithHTTPClient(replHC)),
			Journal:  fj,
			PollWait: fleetPollWait,
		})
		if err != nil {
			return s, err
		}
		if err := fol.Bootstrap(ctx); err != nil {
			return s, err
		}
		fol.Engine().SetCommitObserver(func(krcore.CommitInfo) {
			select {
			case s.commits <- struct{}{}:
			default:
			}
		})
		fsrv, err := s.startServer(fol, server.Config{
			Dataset:    "replica:" + s.leaderN.url,
			JournalLen: fj.TailOps,
			Tail:       fj,
			LeaderURL:  s.leaderN.url,
			Lag:        fol.Lag,
			Snapshot:   fol.SaveSnapshot,
			OnPromote:  fol.Stop,
		})
		if err != nil {
			return s, err
		}
		fj.SetAppendObserver(fsrv.ObserveJournalAppend)
		fol.RegisterMetrics(fsrv.Metrics())
		s.fols = append(s.fols, fol)
		folURLs = append(folURLs, s.nodes[len(s.nodes)-1].url)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			fol.Run(ctx) // returns on cancel or Stop
		}()
	}

	routeHC, routeTr := newHTTPClient(t, layerForward)
	s.trs = append(s.trs, routeTr)
	rt, err := replica.NewRouter(replica.RouterConfig{
		Leader:     s.leaderN.url,
		Followers:  folURLs,
		HTTPClient: routeHC,
	})
	if err != nil {
		return s, err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		rt.Run(ctx) // returns ctx.Err() on cancel
	}()
	h := rt.Handler()
	if t != nil {
		h = traceHandler(t, layerRouter, h)
	}
	if s.router, err = startNode(h); err != nil {
		return s, err
	}
	s.nodes = append(s.nodes, s.router)
	return s, nil
}

func (s *fleetStack) openJournal(dir, name string, kind attr.Kind) (*updates.Journal, error) {
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.journal", name, os.Getpid()))
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	j, err := updates.OpenJournal(path, kind)
	if err != nil {
		return nil, err
	}
	s.journals = append(s.journals, j)
	s.paths = append(s.paths, path)
	return j, nil
}

// startServer mounts b (traced when the run is) behind a server on a
// new loopback node.
func (s *fleetStack) startServer(b server.Backend, cfg server.Config) (*server.Server, error) {
	if s.t != nil {
		tb, err := traceBackend(s.t, b)
		if err != nil {
			return nil, err
		}
		b = tb
	}
	srv, err := server.New(b, cfg)
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if s.t != nil {
		h = traceHandler(s.t, layerServer, h)
	}
	n, err := startNode(h)
	if err != nil {
		return nil, err
	}
	s.nodes = append(s.nodes, n)
	return srv, nil
}

// close stops the tail loops and the probe loop, then the servers, and
// removes the journals.
func (s *fleetStack) close() {
	s.cancel()
	for _, f := range s.fols {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		f.Stop(ctx) // bounded; the cancelled context already ends the loop
		cancel()
	}
	s.wg.Wait()
	for _, n := range s.nodes {
		n.close()
	}
	for _, tr := range s.trs {
		tr.CloseIdleConnections()
	}
	for i, j := range s.journals {
		j.Close()
		os.Remove(s.paths[i])
	}
}

// minFollowerOffset is the journal offset every follower has applied.
func (s *fleetStack) minFollowerOffset() int64 {
	min := int64(-1)
	for _, f := range s.fols {
		if off := f.JournalOffset(); min < 0 || off < min {
			min = off
		}
	}
	return min
}

// writeRec is one update batch as the writer saw it.
type writeRec struct {
	lat  time.Duration // from the scheduled send time to the ack
	late time.Duration // how late the generator sent it
	ok   bool
}

// staleness tracks acked writes until every follower has applied them.
type staleness struct {
	mu      sync.Mutex
	pending []ackedWrite
	samples []time.Duration
	lagMax  int64
}

type ackedWrite struct {
	offset int64
	at     time.Time
}

func (st *staleness) acked(offset int64, at time.Time) {
	st.mu.Lock()
	st.pending = append(st.pending, ackedWrite{offset, at})
	st.mu.Unlock()
}

// observe resolves every pending write the followers now cover and
// records the offset distance between the leader and the slowest
// follower. It reports whether writes are still pending.
func (st *staleness) observe(s *fleetStack) bool {
	now := time.Now()
	covered := s.minFollowerOffset()
	lag := s.leader.JournalOffset() - covered
	st.mu.Lock()
	defer st.mu.Unlock()
	if lag > st.lagMax {
		st.lagMax = lag
	}
	i := 0
	for ; i < len(st.pending) && st.pending[i].offset <= covered; i++ {
		st.samples = append(st.samples, now.Sub(st.pending[i].at))
	}
	st.pending = st.pending[i:]
	return len(st.pending) > 0
}

// watch observes after every follower commit (and at least every 2ms
// as a fallback, e.g. across a follower re-bootstrap) until stop is
// closed and nothing is pending, or the drain times out.
func (st *staleness) watch(s *fleetStack, stop <-chan struct{}) error {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	var drainBy time.Time
	for {
		select {
		case <-s.commits:
		case <-tick.C:
		case <-stop:
			stop = nil
			drainBy = time.Now().Add(30 * time.Second)
		}
		pending := st.observe(s)
		if stop == nil {
			if !pending {
				return nil
			}
			if time.Now().After(drainBy) {
				return errors.New("followers did not catch up with the leader within 30s")
			}
		}
	}
}

// fleetWindow is one timed window of fleet-write.
type fleetWindow struct {
	reads   []readRec
	readDur time.Duration
	writes  []writeRec
	acked   int64 // operations acked in this window
	stale   *staleness
}

// drive runs the reader and the writer for d against the router.
func (s *fleetStack) drive(ctx context.Context, seed int64, ups []krcore.Update, d time.Duration) (*fleetWindow, error) {
	loadHC, loadTr := newHTTPClient(s.t, "")
	defer loadTr.CloseIdleConnections()
	cl := client.New(s.router.url, client.WithHTTPClient(loadHC))
	w := &fleetWindow{stale: &staleness{}}
	stop := make(chan struct{})
	watchErr := make(chan error, 1)
	go func() { watchErr <- w.stale.watch(s, stop) }()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		l := &readLoad{cl: cl, t: s.t, clients: 1, stream: newHotMix(seed, s.hot, communityMembers(s.d)).at}
		w.reads, w.readDur = l.run(ctx, d)
	}()
	w.writes, w.acked = s.write(ctx, cl, ups, d, w.stale)
	wg.Wait()
	close(stop)
	return w, <-watchErr
}

// write sends the update stream in batches on a fixed schedule of
// writeRate batches per second from one sender, so batches commit in
// stream order. A batch is timed from when it was due, so a stall
// shows in the latency of the batches queued behind it.
func (s *fleetStack) write(ctx context.Context, cl *client.Client, ups []krcore.Update, d time.Duration, st *staleness) ([]writeRec, int64) {
	base := s.leader.JournalOffset()
	var acked int64
	var recs []writeRec
	interval := time.Second / writeRate
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= d || (i+1)*writeBatch > len(ups) || ctx.Err() != nil {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		batch := ups[i*writeBatch : (i+1)*writeBatch]
		wctx := ctx
		var id uint64
		var spanStart time.Duration
		if s.t != nil {
			id = s.t.newID()
			wctx = withSpan(ctx, id)
			spanStart = s.t.now()
		}
		sent := time.Now()
		_, err := cl.ApplyBatch(wctx, batch)
		ack := time.Now()
		if s.t != nil {
			s.t.record(span{Layer: layerClient, Kind: "update", ID: id, Start: spanStart, End: s.t.now(), N: int64(len(batch))})
		}
		rec := writeRec{lat: ack.Sub(due), late: sent.Sub(due), ok: err == nil}
		if rec.ok {
			acked += int64(len(batch))
			st.acked(base+acked, ack)
		}
		recs = append(recs, rec)
	}
	return recs, acked
}

// updateStream generates the churn the writer replays: enough batches
// for the window at writeRate, from the preset's initial state. Like
// the dataset, the stream is fixed (seeded with the preset's own seed)
// rather than drawn from the workload seed: each stream moves the graph
// differently, and across five workload-seeded streams the read cost
// per operation spread by half between runs (see README.md).
func updateStream(d time.Duration) ([]krcore.Update, error) {
	cfg, err := dataset.Preset("gowalla")
	if err != nil {
		return nil, err
	}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		return nil, err
	}
	n := (int(d.Seconds())+2)*writeRate*writeBatch + writeBatch
	return updates.Random(ds, n, cfg.Seed), nil
}

// drain waits until every follower has applied the leader's journal.
func (s *fleetStack) drain() error {
	deadline := time.Now().Add(30 * time.Second)
	for s.minFollowerOffset() < s.leader.JournalOffset() {
		if time.Now().After(deadline) {
			return errors.New("followers did not drain within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// checkFleet verifies the drained fleet: the acked operation count is
// the leader's, and the leader and every follower answer every hot
// setting bit-identically to a fresh engine over the leader's final
// graph and attributes.
func (s *fleetStack) checkFleet(acked int64) error {
	ds := s.leader.DynamicStats() // also orders the reads below after the last commit
	if ds.Updates != acked {
		return fmt.Errorf("acked %d operations, leader counts %d", acked, ds.Updates)
	}
	fresh := krcore.NewEngine(s.leader.Graph(), s.attrs.Metric())
	engines := map[string]interface {
		Enumerate(int, float64, krcore.EnumOptions) (*krcore.Result, error)
		FindMaximum(int, float64, krcore.MaxOptions) (*krcore.Result, error)
	}{"leader": s.leader}
	for i, f := range s.fols {
		engines[fmt.Sprintf("follower %d", i)] = f.Engine()
	}
	for _, st := range s.hot {
		for _, kind := range []string{kindEnum, kindMaximum} {
			q := readReq{Kind: kind, Set: st}
			want, err := answer(fresh, q)
			if err != nil {
				return err
			}
			for name, eng := range engines {
				var res *krcore.Result
				if kind == kindEnum {
					res, err = eng.Enumerate(st.K, st.R, krcore.EnumOptions{})
				} else {
					res, err = eng.FindMaximum(st.K, st.R, krcore.MaxOptions{})
				}
				if err != nil {
					return fmt.Errorf("%s %s k=%d r=%g: %w", name, kind, st.K, st.R, err)
				}
				if digestCores(res.Cores, res.Nodes) != want {
					return fmt.Errorf("%s %s k=%d r=%g differs from a fresh engine over the leader's final graph",
						name, kind, st.K, st.R)
				}
			}
		}
	}
	return nil
}

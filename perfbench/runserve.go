package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gpm"
	"gpm/client"
	"gpm/internal/graph"
)

// serveOutcome is what one served pass measured.
type serveOutcome struct {
	in          *inputs
	batches     [][]graph.Update // the open-loop batches, in due order
	flags       []string
	fflags      []string
	setups      []float64
	steps       map[string]float64
	open        []batchRec
	sat         []batchRec
	satElapsed  time.Duration
	deliverMS   []float64
	fdeliverMS  []float64
	lagMS       []float64
	resumes     *resumeStats
	probes      *resumeStats
	leaderStats gpm.RegistryStats // at the end of the open-loop phase
	followStats gpm.RegistryStats
	follower    followerDoc
	maxLag      uint64
	harvest     *traceHarvester
	disconnects uint64
	rssMB       float64
	checkErr    error
	attempted   int
	failed      int
}

// runServe sets the world up reps times (keeping the last), runs the
// open-loop phase with its readers, the saturation phase, drains, and
// checks every output.
func runServe(ctx context.Context, env *env, sh serveShape, traced bool, reps int) (*serveOutcome, error) {
	dir := filepath.Join(env.workdir, fmt.Sprintf("serve-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	out := &serveOutcome{resumes: &resumeStats{}, probes: &resumeStats{}}
	var s *session
	for r := 0; r < reps; r++ {
		var err error
		if s, err = setupServe(ctx, env, sh, traced, dir); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, s.total)
		if r < reps-1 {
			s.stop()
		}
	}
	defer s.stop()
	out.in, out.flags, out.fflags, out.steps = s.in, s.flags, s.fflags, s.steps

	var head atomic.Uint64
	stopLag := make(chan struct{})
	var maxLag atomic.Uint64
	var bg sync.WaitGroup
	bg.Add(1)
	go func() { defer bg.Done(); lagSampler(ctx, s.follower.url, stopLag, &maxLag) }()
	defer func() { close(stopLag); bg.Wait() }()

	stopReaders := make(chan struct{})
	var readers sync.WaitGroup
	if traced {
		out.harvest = &traceHarvester{traces: map[string]traceSnapshot{}}
		readers.Add(1)
		go func() { defer readers.Done(); out.harvest.run(ctx, s.leader.url, 400*time.Millisecond, stopReaders) }()
	}
	if sh.resumeEvery > 0 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			resumeReader(ctx, s, sh.resumeEvery, sh.resumeBack, &head, out.resumes, stopReaders)
		}()
	}
	if sh.rate > 0 {
		out.open = openLoop(ctx, s, sh.rate, traced, &head)
	} else {
		recs, _ := closedLoop(ctx, s.leader.url, s.open, 0, traced, &head)
		out.open = recs[0]
	}
	close(stopReaders)
	readers.Wait()
	// Let the open-loop phase's deliveries land before reading its
	// telemetry, so the snapshot covers exactly that phase.
	s.lstream.waitSeq(head.Load(), 30*time.Second)
	if traced {
		time.Sleep(50 * time.Millisecond)
		out.harvest.pull(ctx, s.leader.url)
	}
	var err error
	if out.leaderStats, err = s.leader.c.Stats(ctx); err != nil {
		return nil, err
	}
	if traced {
		for k := 0; k < sh.probeN; k++ {
			h := head.Load()
			if h <= sh.resumeBack {
				break
			}
			id := s.in.patterns[1+k%(len(s.in.patterns)-1)].id
			first, total, err := resumeOnce(ctx, s.leader.c, id, h, sh.resumeBack)
			out.probes.add(first, total, err)
		}
	}

	var satRecs [][]batchRec
	if sh.satFor > 0 {
		satRecs, out.satElapsed = closedLoop(ctx, s.leader.url, s.pool, sh.satFor, traced, &head)
		for _, rs := range satRecs {
			out.sat = append(out.sat, rs...)
		}
	}

	// Drain: both streams and the follower reach the head.
	h := head.Load()
	lok := s.lstream.waitSeq(h, 60*time.Second)
	fok := s.fstream.waitSeq(h, 60*time.Second)
	if !lok || !fok {
		out.checkErr = fmt.Errorf("streams did not reach head %d (leader %v, follower %v)", h, lok, fok)
	} else if err := waitFollower(ctx, s.follower.c, len(s.in.patterns), h, 60*time.Second); err != nil {
		out.checkErr = err
	}
	if out.rssMB, err = peakRSSMB(s.leader.cmd.Process.Pid); err != nil {
		return nil, err
	}
	if out.followStats, err = s.follower.c.Stats(ctx); err != nil {
		return nil, err
	}
	if err := getJSON(ctx, s.follower.url+"/v1/stats", &out.follower); err != nil {
		return nil, err
	}
	out.maxLag = maxLag.Load()

	// Latencies, from each batch's due time.
	for _, r := range out.open {
		out.attempted++
		if r.err != nil {
			out.failed++
			continue
		}
		lt, lok := s.lstream.received(r.seq)
		ft, fok := s.fstream.received(r.seq)
		if !lok || !fok {
			out.failed++
			continue
		}
		out.deliverMS = append(out.deliverMS, ms(lt.Sub(r.due)))
		out.fdeliverMS = append(out.fdeliverMS, ms(ft.Sub(r.due)))
	}
	for _, r := range out.sat {
		out.attempted++
		if r.err != nil {
			out.failed++
		}
	}
	for _, rs := range []*resumeStats{out.resumes, out.probes} {
		out.attempted += rs.tried
		out.failed += rs.failed
	}
	s.lstream.mu.Lock()
	out.lagMS = append(out.lagMS, s.lstream.lagMS...)
	s.lstream.mu.Unlock()
	out.disconnects = s.lstream.st.Stats().Disconnects + s.fstream.st.Stats().Disconnects

	writers := len(s.open)
	for i := range out.open {
		out.batches = append(out.batches, s.open[i%writers][i/writers])
	}
	if out.checkErr == nil {
		out.checkErr = checkServe(ctx, s, out.open, satRecs, reference)
	}
	return out, nil
}

// checkServe is the correctness gate of a served pass: every leader
// result equals recomputation over the base plus every acknowledged
// batch; the follower's results equal the leader's at the same seq; and
// each stream's snapshot ⊕ deltas equals its server's final result.
func checkServe(ctx context.Context, s *session, open []batchRec, sat [][]batchRec, ref refFunc) error {
	writers := len(s.open)
	var sent [][]graph.Update
	for i, r := range open {
		if r.err == nil {
			sent = append(sent, s.open[i%writers][i/writers])
		}
	}
	for w, rs := range sat {
		for k, r := range rs {
			if r.err == nil {
				sent = append(sent, s.pool[w][k])
			}
		}
	}
	g := finalGraph(s.in.base, sent)
	results := map[string]client.Result{}
	for _, np := range s.in.patterns {
		lr, err := s.leader.c.Result(ctx, np.id)
		if err != nil {
			return err
		}
		fr, err := s.follower.c.Result(ctx, np.id)
		if err != nil {
			return err
		}
		if err := samePairs("leader vs recomputation, "+np.id, lr.Pairs, ref(s.in.kind, np.p, g)); err != nil {
			return err
		}
		if lr.Seq != fr.Seq {
			return fmt.Errorf("%s: follower at seq %d, leader at %d", np.id, fr.Seq, lr.Seq)
		}
		if err := samePairs("follower vs leader, "+np.id, fr.Pairs, lr.Pairs); err != nil {
			return err
		}
		results[np.id] = lr
	}
	id := s.in.patterns[0].id
	for name, st := range map[string]*streamRec{"leader": s.lstream, "follower": s.fstream} {
		pairs, seq, err := st.state()
		if err != nil {
			return fmt.Errorf("%s stream: %w", name, err)
		}
		if seq != results[id].Seq {
			return fmt.Errorf("%s stream at seq %d, result at %d", name, seq, results[id].Seq)
		}
		if err := samePairs(name+" stream snapshot ⊕ deltas vs result, "+id, pairs, results[id].Pairs); err != nil {
			return err
		}
	}
	return nil
}

func kindOf(k string) gpm.EngineKind {
	if k == "sim" {
		return gpm.KindSim
	}
	return gpm.KindBSim
}

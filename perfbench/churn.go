package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"gpm/internal/contq"
	"gpm/internal/graph"
	"gpm/internal/obs/trace"
)

// churnSession is the in-process bsim-churn world: a registry with no
// journal and no HTTP, one closed-loop caller and one subscriber.
type churnSession struct {
	in      *inputs
	batches [][]graph.Update
	reg     *contq.Registry
	sub     *contq.Subscription
	subRec  *subRec
	steps   map[string]float64
	total   float64
}

// subRec consumes an in-process subscription like streamRec does an SDK
// stream: arrival stamps per seq and snapshot ⊕ deltas.
type subRec struct {
	done    chan struct{}
	recv    map[uint64]time.Time
	rel     pairSet
	lastSeq uint64
	err     error
	seqs    chan uint64
}

func newSubRec(sub *contq.Subscription) *subRec {
	r := &subRec{done: make(chan struct{}), recv: map[uint64]time.Time{}, rel: newPairSet(sub.Snapshot.Pairs()),
		lastSeq: sub.Seq, seqs: make(chan uint64, 1)}
	go func() {
		defer close(r.done)
		for ev := range sub.C {
			now := time.Now()
			if ev.Seq != r.lastSeq+1 && r.err == nil {
				r.err = fmt.Errorf("subscription gap: event %d after %d", ev.Seq, r.lastSeq)
			}
			r.rel.apply(ev.Delta.Added, ev.Delta.Removed)
			r.recv[ev.Seq] = now
			r.lastSeq = ev.Seq
			select {
			case <-r.seqs:
			default:
			}
			r.seqs <- ev.Seq
		}
	}()
	return r
}

// waitSeq blocks until the subscriber has seen seq.
func (r *subRec) waitSeq(seq uint64, timeout time.Duration) bool {
	deadline := time.After(timeout)
	for {
		select {
		case s := <-r.seqs:
			if s >= seq {
				return true
			}
		case <-r.done:
			return false
		case <-deadline:
			return false
		}
	}
}

func (s *churnSession) stop() {
	if s == nil || s.reg == nil {
		return
	}
	s.sub.Cancel()
	<-s.subRec.done
	s.reg.Close()
	s.reg = nil
}

// setupChurn generates the world and the batch pool, builds the registry
// and registers every pattern, then subscribes to the first.
func setupChurn(sh churnShape, seed int64, traced bool) (*churnSession, error) {
	s := &churnSession{steps: map[string]float64{}}
	t0 := time.Now()
	s.in = sh.inputs()
	gen := newStreamGen(s.in.base, 1, seed+101)
	for i := 0; i < sh.pool; i++ {
		s.batches = append(s.batches, gen.batch(0, sh.ins, sh.del))
	}
	s.steps["generate"] = time.Since(t0).Seconds()
	t := time.Now()
	var opts []contq.Option
	if traced {
		opts = append(opts, contq.WithTracer(trace.New(trace.Config{Mode: trace.ModeAlways})))
	}
	s.reg = contq.New(s.in.base.Clone(), opts...)
	s.steps["load_graph"] = time.Since(t).Seconds()
	t = time.Now()
	for _, np := range s.in.patterns {
		if err := s.reg.Register(np.id, np.p, contq.KindBSim); err != nil {
			s.reg.Close()
			return nil, fmt.Errorf("registering %s: %w", np.id, err)
		}
	}
	s.steps["register"] = time.Since(t).Seconds()
	sub, err := s.reg.Subscribe(s.in.patterns[0].id)
	if err != nil {
		s.reg.Close()
		return nil, err
	}
	s.sub, s.subRec = sub, newSubRec(sub)
	s.total = time.Since(t0).Seconds()
	return s, nil
}

// churnShape is the bsim-churn workload's size.
type churnShape struct {
	inputs   func() *inputs
	ins, del int
	pool     int // batches generated; the loop stops early if it runs out
	runFor   time.Duration
}

// churnOutcome is what one pass of the closed loop measured.
type churnOutcome struct {
	sess      *churnSession
	setups    []float64
	recs      []batchRec
	gapsMS    []float64 // the caller's own time between batches
	deliverMS []float64
	elapsed   time.Duration
	rssMB     float64
	stats     contq.Stats
	checkErr  error
	attempted int
	failed    int
}

// runChurn sets up reps times (keeping the last) and runs the closed loop.
func runChurn(sh churnShape, seed int64, traced bool, reps int) (*churnOutcome, error) {
	out := &churnOutcome{}
	for r := 0; r < reps; r++ {
		s, err := setupChurn(sh, seed, traced)
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, s.total)
		if r < reps-1 {
			s.stop()
			runtime.GC()
			continue
		}
		out.sess = s
	}
	s := out.sess
	defer s.stop()
	start := time.Now()
	end := start.Add(sh.runFor)
	last := start
	var sent [][]graph.Update
	for _, b := range s.batches {
		now := time.Now()
		if now.After(end) {
			break
		}
		out.gapsMS = append(out.gapsMS, ms(now.Sub(last)))
		rec := batchRec{due: now, sent: now, ups: len(b)}
		rec.seq, rec.err = s.reg.Apply(b)
		rec.acked = time.Now()
		last = rec.acked
		out.recs = append(out.recs, rec)
		out.attempted++
		if rec.err != nil {
			out.failed++
			continue
		}
		sent = append(sent, b)
	}
	out.elapsed = time.Since(start)
	head := s.reg.Seq()
	if !s.subRec.waitSeq(head, 60*time.Second) {
		out.failed++
		out.checkErr = fmt.Errorf("subscriber did not reach seq %d", head)
	}
	for _, r := range out.recs {
		if out.checkErr != nil || r.err != nil {
			break // the subscriber is still running: its stamps are not ours to read
		}
		if t, ok := s.subRec.recv[r.seq]; ok {
			out.deliverMS = append(out.deliverMS, ms(t.Sub(r.due)))
		}
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	out.rssMB = rss
	out.stats = s.reg.Stats()
	if out.checkErr == nil {
		out.checkErr = checkChurn(s, sent, reference)
	}
	return out, nil
}

// checkChurn is the correctness gate: every pattern's result equals batch
// recomputation over the base plus the committed batches, and the
// subscriber's snapshot ⊕ deltas equals the first pattern's result.
func checkChurn(s *churnSession, sent [][]graph.Update, ref refFunc) error {
	g := finalGraph(s.in.base, sent)
	for _, np := range s.in.patterns {
		got, ok := s.reg.Result(np.id)
		if !ok {
			return fmt.Errorf("pattern %s missing", np.id)
		}
		if err := samePairs("registry vs recomputation, "+np.id, got.Pairs(), ref(s.in.kind, np.p, g)); err != nil {
			return err
		}
	}
	if s.subRec.err != nil {
		return s.subRec.err
	}
	got, _ := s.reg.Result(s.in.patterns[0].id)
	return samePairs("subscriber snapshot ⊕ deltas vs result", s.subRec.rel.sorted(), got.Pairs())
}

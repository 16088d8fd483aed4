package main

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gpm/client"
	"gpm/internal/graph"
	"gpm/internal/obs/trace"
)

// serveShape is one served workload: the world, the write stream, the
// read traffic and how long each phase runs.
type serveShape struct {
	inputs      func() *inputs
	ins, del    int     // updates per batch
	rate        float64 // open-loop batches per second (0: closed loop, one writer)
	writers     int     // writer connections (each owns one edge partition)
	openFor     time.Duration
	satFor      time.Duration // closed-loop saturation phase (0: none)
	closedN     int           // closed-loop batches when rate is 0
	resumeEvery time.Duration // resume reader period (0: none)
	resumeBack  uint64        // resumes start at head − resumeBack
	probeN      int           // resumes issued after the load, when traced
	snapEvery   int           // gpserve -journal-snapshot-every
}

// session is one leader + follower pair loaded with a workload's world.
type session struct {
	leader, follower *server
	in               *inputs
	open             [][][]graph.Update // per writer, the open-loop batches in send order
	pool             [][][]graph.Update // per writer, the saturation batches
	lstream, fstream *streamRec
	flags, fflags    []string           // leader and follower gpserve flags
	steps            map[string]float64 // setup step → seconds
	total            float64            // whole set-up, seconds
}

func (s *session) stop() {
	if s == nil {
		return
	}
	for _, r := range []*streamRec{s.lstream, s.fstream} {
		if r != nil {
			r.close()
		}
	}
	s.follower.stop()
	s.leader.stop()
}

// setupServe generates the inputs, starts a journaled leader, loads the
// graph, registers the patterns, starts a follower and waits until it is
// ready, then opens one stream on each.
func setupServe(ctx context.Context, env *env, sh serveShape, traced bool, dir string) (*session, error) {
	s := &session{steps: map[string]float64{}}
	t0 := time.Now()
	step := func(name string, since time.Time) { s.steps[name] = time.Since(since).Seconds() }

	s.in = sh.inputs()
	gen := newStreamGen(s.in.base, sh.writers, env.seed+101)
	if sh.rate > 0 {
		n := int(sh.rate * sh.openFor.Seconds())
		s.open = make([][][]graph.Update, sh.writers)
		for i := 0; i < n; i++ {
			w := i % sh.writers
			s.open[w] = append(s.open[w], gen.batch(w, sh.ins, sh.del))
		}
	} else {
		s.open = [][][]graph.Update{nil}
		for i := 0; i < sh.closedN; i++ {
			s.open[0] = append(s.open[0], gen.batch(0, sh.ins, sh.del))
		}
	}
	if sh.satFor > 0 {
		// Sized far above the saturation rate seen so far, so a faster
		// program still finds batches to send for the whole phase.
		per := int(3000*sh.satFor.Seconds()) / sh.writers
		s.pool = make([][][]graph.Update, sh.writers)
		for i := 0; i < per; i++ {
			for w := 0; w < sh.writers; w++ {
				s.pool[w] = append(s.pool[w], gen.batch(w, sh.ins, sh.del))
			}
		}
	}
	step("generate", t0)

	sample := "off"
	if traced {
		sample = "always"
	}
	jdir := filepath.Join(dir, "journal")
	if err := os.RemoveAll(jdir); err != nil {
		return nil, err
	}
	s.flags = []string{"-journal", jdir, "-journal-snapshot-every", strconv.Itoa(sh.snapEvery),
		"-trace-sample", sample, "-slow-commit", "0"}
	var err error
	if s.leader, err = startServer(ctx, env.gpserve, dir, "leader", s.flags); err != nil {
		return nil, err
	}
	t := time.Now()
	if _, err := s.leader.c.LoadGraph(ctx, s.in.base); err != nil {
		s.stop()
		return nil, fmt.Errorf("loading graph: %w", err)
	}
	step("load_graph", t)
	t = time.Now()
	for _, np := range s.in.patterns {
		if _, err := s.leader.c.Register(ctx, np.id, np.p, kindOf(s.in.kind)); err != nil {
			s.stop()
			return nil, fmt.Errorf("registering %s: %w", np.id, err)
		}
	}
	step("register", t)
	t = time.Now()
	s.fflags = []string{"-follow", s.leader.url, "-trace-sample", sample, "-slow-commit", "0"}
	s.follower, err = startServer(ctx, env.gpserve, dir, "follower", s.fflags)
	if err != nil {
		s.stop()
		return nil, err
	}
	if err := waitFollower(ctx, s.follower.c, len(s.in.patterns), 0, 60*time.Second); err != nil {
		s.stop()
		return nil, err
	}
	step("follower_ready", t)
	if s.lstream, err = openStream(ctx, s.leader.c, s.in.patterns[0].id); err == nil {
		s.fstream, err = openStream(ctx, s.follower.c, s.in.patterns[0].id)
	}
	if err == nil && !(s.lstream.waitSeq(0, 10*time.Second) && s.fstream.waitSeq(0, 10*time.Second)) {
		err = fmt.Errorf("streams sent no snapshot")
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	s.total = time.Since(t0).Seconds()
	return s, nil
}

// waitFollower polls until the follower is ready, holds every pattern and
// has applied seq.
func waitFollower(ctx context.Context, c *client.Client, patterns int, seq uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if c.Readyz(ctx) == nil {
			if gi, err := c.GraphInfo(ctx); err == nil && gi.Patterns == patterns && gi.Seq >= seq {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower not caught up to seq %d with %d patterns after %v", seq, patterns, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// batchRec is one sent batch: when it was due, sent and acknowledged, and
// the commit that took it.
type batchRec struct {
	due, sent, acked time.Time
	seq              uint64
	ups              int
	traceID          string // the trace the server continued (traced runs)
	err              error
}

// writerClient gives each writer its own connection.
func writerClient(url string) *client.Client {
	return client.New(url, client.WithHTTPClient(&http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}))
}

// tracedCtx attaches a fresh sampled span context, so the server's
// http.ingest span continues a trace whose ID the benchmark knows.
func tracedCtx(ctx context.Context) (context.Context, string) {
	var sc trace.SpanContext
	_, _ = rand.Read(sc.TraceID[:]) // crypto/rand.Read never fails on Linux
	_, _ = rand.Read(sc.SpanID[:])
	sc.Sampled = true
	return trace.NewContext(ctx, sc), sc.TraceID.String()
}

// sendBatch applies one batch and records it.
func sendBatch(ctx context.Context, c *client.Client, ups []graph.Update, due time.Time, traced bool, head *atomic.Uint64) batchRec {
	rec := batchRec{due: due, ups: len(ups)}
	if traced {
		ctx, rec.traceID = tracedCtx(ctx)
	}
	rec.sent = time.Now()
	rec.seq, rec.err = c.Apply(ctx, ups)
	rec.acked = time.Now()
	if rec.err == nil {
		for {
			h := head.Load()
			if rec.seq <= h || head.CompareAndSwap(h, rec.seq) {
				break
			}
		}
	}
	return rec
}

// openLoop sends every writer's batches on a fixed schedule — batch i is
// due at start + i/rate, whatever happened to earlier ones — and returns
// the records in due order.
func openLoop(ctx context.Context, s *session, rate float64, traced bool, head *atomic.Uint64) []batchRec {
	writers := len(s.open)
	total := 0
	for _, b := range s.open {
		total += len(b)
	}
	recs := make([]batchRec, total)
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := writerClient(s.leader.url)
			for k, ups := range s.open[w] {
				i := k*writers + w
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				recs[i] = sendBatch(ctx, c, ups, due, traced, head)
			}
		}(w)
	}
	wg.Wait()
	return recs
}

// closedLoop has every writer send its batches back to back until the
// phase ends; it returns the records and the phase's wall time.
func closedLoop(ctx context.Context, url string, batches [][][]graph.Update, d time.Duration, traced bool, head *atomic.Uint64) ([][]batchRec, time.Duration) {
	recs := make([][]batchRec, len(batches))
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for w := range batches {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := writerClient(url)
			for _, ups := range batches[w] {
				if d > 0 && time.Now().After(end) {
					return
				}
				recs[w] = append(recs[w], sendBatch(ctx, c, ups, time.Now(), traced, head))
			}
		}(w)
	}
	wg.Wait()
	return recs, time.Since(start)
}

// resumeStats collects the resume reader's measurements.
type resumeStats struct {
	mu     sync.Mutex
	first  []float64
	total  []float64
	tried  int
	failed int
}

func (r *resumeStats) add(first, total time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tried++
	if err != nil {
		r.failed++
		fmt.Fprintln(os.Stderr, "perfbench: resume failed:", err)
		return
	}
	r.first = append(r.first, ms(first))
	r.total = append(r.total, ms(total))
}

// resumeReader opens a FromSeq(head−back) stream every period, on the
// patterns other than the live-streamed one in turn, until stop closes.
func resumeReader(ctx context.Context, s *session, period time.Duration, back uint64, head *atomic.Uint64, rs *resumeStats, stop <-chan struct{}) {
	c := writerClient(s.leader.url)
	next := time.Now()
	for k := 0; ; {
		select {
		case <-stop:
			return
		case <-time.After(time.Until(next)):
		}
		next = next.Add(period)
		h := head.Load()
		if h <= back {
			continue
		}
		id := s.in.patterns[1+k%(len(s.in.patterns)-1)].id
		k++
		first, total, err := resumeOnce(ctx, c, id, h, back)
		rs.add(first, total, err)
	}
}

// followerDoc is the part of a follower's /v1/stats that
// gpm.RegistryStats does not carry: its replication block.
type followerDoc struct {
	Follower struct {
		Lag        uint64 `json:"lag"`
		Bootstraps uint64 `json:"bootstraps"`
	} `json:"follower"`
}

func getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// lagSampler reads the follower's replication lag once a second.
func lagSampler(ctx context.Context, url string, stop <-chan struct{}, maxLag *atomic.Uint64) {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		var doc followerDoc
		if getJSON(ctx, url+"/v1/stats", &doc) == nil && doc.Follower.Lag > maxLag.Load() {
			maxLag.Store(doc.Follower.Lag)
		}
	}
}

// traceHarvester pulls the leader's retained traces periodically — the
// ring holds only 256 — keeping the most complete copy of each.
type traceHarvester struct {
	mu     sync.Mutex
	traces map[string]traceSnapshot
	pulls  int
}

func (h *traceHarvester) pull(ctx context.Context, url string) {
	var doc struct {
		Traces []trace.TraceSnapshot `json:"traces"`
	}
	if getJSON(ctx, url+"/v1/tracez?limit=256", &doc) != nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.pulls++
	for _, t := range doc.Traces {
		if old, ok := h.traces[t.TraceID]; !ok || len(t.Spans) >= len(old.Spans) {
			h.traces[t.TraceID] = t
		}
	}
}

func (h *traceHarvester) run(ctx context.Context, url string, every time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			h.pull(ctx, url)
		}
	}
}

type traceSnapshot = trace.TraceSnapshot

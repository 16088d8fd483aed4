package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gpm/client"
	"gpm/internal/rel"
)

// streamRec consumes one SDK match stream: it stamps when each commit's
// event arrived, folds snapshot ⊕ deltas into a relation for the
// correctness gate, and checks the sequence stays contiguous.
type streamRec struct {
	st   *client.Stream
	done chan struct{}

	mu      sync.Mutex
	cond    *sync.Cond
	recv    map[uint64]time.Time
	lagMS   []float64 // receive − publish, for sampled commits only
	rel     pairSet
	lastSeq uint64
	started bool
	err     error
}

func openStream(ctx context.Context, c *client.Client, id string) (*streamRec, error) {
	st, err := c.Stream(ctx, id)
	if err != nil {
		return nil, fmt.Errorf("opening stream on %s: %w", id, err)
	}
	r := &streamRec{st: st, done: make(chan struct{}), recv: make(map[uint64]time.Time, 1<<14)}
	r.cond = sync.NewCond(&r.mu)
	go r.consume()
	return r, nil
}

func (r *streamRec) consume() {
	defer close(r.done)
	for ev := range r.st.C {
		now := time.Now()
		r.mu.Lock()
		switch {
		case ev.Type == client.EventSnapshot:
			if r.started {
				r.err = fmt.Errorf("unexpected snapshot (rebase) at seq %d", ev.Seq)
			}
			r.rel = newPairSet(ev.Pairs)
			r.started = true
		case !r.started || ev.Seq != r.lastSeq+1:
			if r.err == nil {
				r.err = fmt.Errorf("sequence gap: event %d after %d", ev.Seq, r.lastSeq)
			}
		default:
			r.rel.apply(ev.Added, ev.Removed)
			r.recv[ev.Seq] = now
			if !ev.At.IsZero() {
				r.lagMS = append(r.lagMS, ms(now.Sub(ev.At)))
			}
		}
		r.lastSeq = ev.Seq
		r.cond.Broadcast()
		r.mu.Unlock()
	}
	r.mu.Lock()
	if r.err == nil {
		if err := r.st.Err(); err != nil {
			r.err = err
		}
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// waitSeq blocks until the stream has delivered seq (or ended, or the
// timeout passed) and reports whether it got there.
func (r *streamRec) waitSeq(seq uint64, timeout time.Duration) bool {
	timer := time.AfterFunc(timeout, func() {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer timer.Stop()
	deadline := time.Now().Add(timeout)
	r.mu.Lock()
	defer r.mu.Unlock()
	for !(r.started && r.lastSeq >= seq) {
		select {
		case <-r.done:
			return false
		default:
		}
		if time.Now().After(deadline) {
			return false
		}
		r.cond.Wait()
	}
	return true
}

func (r *streamRec) close() {
	r.st.Close()
	<-r.done
}

// received returns when seq's event arrived.
func (r *streamRec) received(seq uint64) (time.Time, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.recv[seq]
	return t, ok
}

func (r *streamRec) state() ([]rel.Pair, uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rel.sorted(), r.lastSeq, r.err
}

// resumeOnce opens a stream FromSeq(head−back) and reads until the event
// at head. It returns the time to the first event and to the head event;
// a snapshot (rebase) or a gap is an error.
func resumeOnce(ctx context.Context, c *client.Client, id string, head, back uint64) (first, total time.Duration, err error) {
	ctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	start := time.Now()
	st, err := c.Stream(ctx, id, client.FromSeq(head-back))
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	next := head - back + 1
	for ev := range st.C {
		if first == 0 {
			first = time.Since(start)
		}
		if ev.Type != client.EventDelta || ev.Seq != next {
			return 0, 0, fmt.Errorf("resume from %d: got %s %d, want delta %d", head-back, ev.Type, ev.Seq, next)
		}
		if ev.Seq >= head {
			return first, time.Since(start), nil
		}
		next++
	}
	if err := st.Err(); err != nil {
		return 0, 0, err
	}
	return 0, 0, fmt.Errorf("resume from %d: stream ended at %d before head %d", head-back, next-1, head)
}

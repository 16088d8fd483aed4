package contq

import (
	"context"
	"fmt"
	"time"

	"gpm/internal/graph"
	"gpm/internal/journal"
)

// This file is the raw-ΔG tail subscription: the commit-level analogue of
// the per-pattern Subscription. A CommitSub receives every committed net
// update batch — not match deltas — in commit order with consecutive
// sequence numbers, which is exactly the stream a follower replica applies
// through its own registry (GET /v1/commits/stream serves it over SSE).

// CommitEvent is one committed net update batch ΔG. Updates is shared
// with the registry's journal — subscribers must not mutate it. At is the
// publish timestamp (zero for backfilled events, which are historical by
// definition). Trace is the W3C traceparent of the commit span that
// produced the batch ("" when unsampled) — the thread a follower's
// ApplyReplicatedTrace continues, so one trace spans the topology.
type CommitEvent struct {
	Seq     uint64
	Updates []graph.Update
	At      time.Time
	Trace   string
}

// CommitSub is one subscriber's view of the commit stream. Every commit
// with sequence greater than Seq arrives on C exactly once, in order, with
// consecutive sequence numbers — including commits whose batch cancelled
// to nothing (Seq still advances, so a follower tracking the stream stays
// seq-aligned with the leader). Events queue in an unbounded mailbox, so
// a slow subscriber never blocks the writer. C closes after Cancel or
// when the registry closes.
type CommitSub struct {
	C <-chan CommitEvent
	// Seq is the sequence the subscription starts after: the first event
	// on C carries Seq+1.
	Seq uint64

	r *Registry
	mailbox[CommitEvent]
}

// newCommitSub builds a commit subscription; a paused one does not
// deliver until start (see mailbox.init).
func newCommitSub(r *Registry, seq uint64, paused bool) *CommitSub {
	s := &CommitSub{Seq: seq, r: r}
	s.C = s.init(r.met.csubsActive, r.met.mailboxHW, paused)
	return s
}

// Cancel detaches the subscription: the registry stops delivering to it,
// queued-but-unread events are discarded, and C closes. Safe to call more
// than once and concurrently with delivery.
func (s *CommitSub) Cancel() {
	s.r.detachCommitSub(s)
	s.close()
}

func (r *Registry) detachCommitSub(s *CommitSub) {
	r.cmu.Lock()
	delete(r.csubs, s)
	r.cmu.Unlock()
}

// publishCommit fans one committed batch out to every commit subscriber's
// mailbox. Called inside the writer's critical section, so subscribers
// observe the same total commit order the journal records.
func (r *Registry) publishCommit(ev CommitEvent) {
	r.cmu.Lock()
	for s := range r.csubs {
		s.push(ev)
	}
	r.cmu.Unlock()
}

// closeCommitSubs ends every commit subscription (registry shutdown).
func (r *Registry) closeCommitSubs() {
	r.cmu.Lock()
	subs := r.csubs
	r.csubs = make(map[*CommitSub]struct{})
	r.cmu.Unlock()
	for s := range subs {
		s.close()
	}
}

// SubscribeCommits opens a raw-ΔG subscription to the commit stream. By
// default it starts at the current head (live tail only); with FromSeq(n)
// the commits in (n, head] are backfilled from the journal first, so the
// subscriber sees one seq-contiguous stream. Fails with ErrSeqFuture when
// n is ahead of the head, ErrNoJournal when backfill is requested on a
// journal-less registry, and an error wrapping journal.ErrCompacted when
// the journal no longer retains the range — the subscriber must re-sync
// from a snapshot (Export) instead.
func (r *Registry) SubscribeCommits(options ...SubscribeOption) (*CommitSub, error) {
	return r.SubscribeCommitsContext(context.Background(), options...) //gpmvet:ignore legacy non-ctx API: this wrapper is the documented detachment point
}

// SubscribeCommitsContext is SubscribeCommits with cancellation: the
// journal backfill — the potentially slow part — stops and the call fails
// with ctx's error as soon as ctx is done.
func (r *Registry) SubscribeCommitsContext(ctx context.Context, options ...SubscribeOption) (*CommitSub, error) {
	var o subscribeOpts
	for _, opt := range options {
		opt(&o)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r.writeMu.Lock()
	if r.closed {
		r.writeMu.Unlock()
		return nil, ErrClosed
	}
	r.mu.RLock()
	head := r.seq
	r.mu.RUnlock()
	from := head
	if o.hasFrom {
		from = o.fromSeq
	}
	if from > head {
		r.writeMu.Unlock()
		return nil, fmt.Errorf("%w: %d > %d", ErrSeqFuture, from, head)
	}
	if from < head {
		if r.journal == nil {
			r.writeMu.Unlock()
			return nil, ErrNoJournal
		}
		// Under writeMu no commit is mid-append, so a journal head behind
		// the registry head is a real stop (failed append): error loudly
		// rather than hand out a silently truncated tail.
		if jhead := r.journal.HeadSeq(); jhead < head {
			r.writeMu.Unlock()
			return nil, fmt.Errorf("contq: journal stopped at seq %d behind head %d: %w",
				jhead, head, journal.ErrCompacted)
		}
	}
	// Attach under writeMu so the mailbox sees every commit > head; the
	// backfill below fills (from, head] ahead of it.
	s := newCommitSub(r, from, from != head)
	r.cmu.Lock()
	r.csubs[s] = struct{}{}
	r.cmu.Unlock()
	r.writeMu.Unlock()
	if from == head {
		return s, nil
	}
	fail := func(err error) (*CommitSub, error) {
		s.Cancel()
		return nil, err
	}
	recs, err := r.journal.Commits(from)
	if err != nil {
		return fail(fmt.Errorf("contq: commit tail from %d: %w", from, err))
	}
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	// Commits that landed after head are already queued in the paused
	// mailbox as live events; backfill must stop exactly at head.
	for len(recs) > 0 && recs[len(recs)-1].Seq > head {
		recs = recs[:len(recs)-1]
	}
	if uint64(len(recs)) != head-from || recs[0].Seq != from+1 || recs[len(recs)-1].Seq != head {
		return fail(fmt.Errorf("contq: journal gap tailing (%d, %d]: %w", from, head, journal.ErrCompacted))
	}
	evs := make([]CommitEvent, 0, len(recs))
	for _, rec := range recs {
		evs = append(evs, CommitEvent{Seq: rec.Seq, Updates: rec.Updates, Trace: rec.Trace})
	}
	s.prepend(evs)
	s.start()
	return s, nil
}

package contq

import (
	"sync"

	"gpm/internal/obs"
)

// mailbox is the queue between the registry's writer and one subscriber,
// shared by both delivery feeds: Subscription (a pattern's match deltas)
// and CommitSub (raw ΔG). push appends under the mailbox lock and never
// waits for the consumer, so a slow consumer never blocks a commit; the
// queue is unbounded, and the memory it holds is proportional to the
// consumer's lag. One pump goroutine drains it to out in push order.
//
// Lifecycle: init, then prepend while paused, then start. close discards
// the queue and closes out exactly once, whichever of start and close
// comes first: through the pump when it runs, directly when it never
// started (a subscription abandoned while paused, or cancelled before its
// backfill finished).
type mailbox[E any] struct {
	out    chan E
	done   chan struct{} // closed by close: unblocks a pump mid-send
	active *obs.Gauge    // open subscriptions of the owner's kind
	hw     *obs.Gauge    // deepest mailbox observed, across both kinds

	mu      sync.Mutex
	cond    sync.Cond
	queue   []E
	closed  bool
	started bool // the pump was launched, or out was closed without one
}

// init readies the mailbox, counts it in active and returns the
// consumer's channel. A paused mailbox collects pushes but delivers
// nothing until start — the window in which a FromSeq resume prepends
// the missed events ahead of the live feed.
func (m *mailbox[E]) init(active, hw *obs.Gauge, paused bool) <-chan E {
	m.out = make(chan E)
	m.done = make(chan struct{})
	m.active, m.hw = active, hw
	m.cond.L = &m.mu
	active.Add(1)
	if !paused {
		m.start()
	}
	return m.out
}

// start launches the pump. It is idempotent, and a no-op after close.
func (m *mailbox[E]) start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return
	}
	m.started = true
	go m.pump()
}

// prepend queues evs ahead of everything already in the mailbox. Valid
// only before start: once the pump runs it may already have taken the
// queue's head, and evs would land behind it.
func (m *mailbox[E]) prepend(evs []E) {
	m.mu.Lock()
	if !m.closed && len(evs) > 0 {
		m.queue = append(append(make([]E, 0, len(evs)+len(m.queue)), evs...), m.queue...)
	}
	m.mu.Unlock()
}

// push enqueues one event; called by the registry's publisher.
func (m *mailbox[E]) push(ev E) {
	m.mu.Lock()
	if !m.closed {
		m.queue = append(m.queue, ev)
		m.hw.SetMax(int64(len(m.queue)))
		m.cond.Signal()
	}
	m.mu.Unlock()
}

// pump drains the mailbox to out in order until close, then closes out.
func (m *mailbox[E]) pump() {
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			close(m.out)
			return
		}
		ev := m.queue[0]
		m.queue = m.queue[1:]
		m.mu.Unlock()
		select {
		case m.out <- ev:
		case <-m.done:
			close(m.out)
			return
		}
	}
}

// close shuts the mailbox down: queued-but-unread events are discarded
// and out closes. It does not detach the owner from the registry; the
// caller has already done that. Safe to call more than once.
func (m *mailbox[E]) close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.queue = nil
	close(m.done)
	if !m.started {
		m.started = true // no pump will ever run to close out
		close(m.out)
	}
	m.cond.Signal()
	m.mu.Unlock()
	m.active.Add(-1)
}

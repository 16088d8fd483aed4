package contq

import (
	"gpm/internal/rel"
)

// Subscription is one subscriber's view of a pattern's match-delta stream.
// Snapshot is the result at subscription time and Seq the commit it
// reflects; every commit after Seq arrives on C exactly once, in commit
// order. Snapshot ⊕ (all deltas received so far) always equals the live
// result as of the last received event.
//
// Events queue in an unbounded mailbox between the registry's writer and
// the consumer, so a slow consumer never blocks a commit (the memory held
// is proportional to its lag). C closes after Cancel or when the pattern
// is unregistered.
type Subscription struct {
	C        <-chan Event
	Snapshot rel.Relation // shared immutable snapshot — Clone before mutating
	Seq      uint64
	Pattern  string

	reg *registration
	mailbox[Event]
}

// newSubscription builds a subscription; a paused one does not deliver
// until start (see mailbox.init).
func newSubscription(id string, snapshot rel.Relation, seq uint64, reg *registration, met *metrics, paused bool) *Subscription {
	s := &Subscription{Snapshot: snapshot, Seq: seq, Pattern: id, reg: reg}
	s.C = s.init(met.subsActive, met.mailboxHW, paused)
	return s
}

// Cancel detaches the subscription: the registry stops delivering to it,
// queued-but-unread events are discarded, and C closes. Safe to call more
// than once and concurrently with delivery.
func (s *Subscription) Cancel() {
	s.reg.detach(s)
	s.close()
}

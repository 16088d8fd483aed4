package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"time"

	"gpm"
)

// EventType discriminates stream events.
type EventType string

const (
	// EventSnapshot carries a pattern's full match relation at Seq — the
	// stream's starting state, and the rebase signal after a resume the
	// server could no longer backfill (journal compacted): discard the
	// accumulated state and start over from Pairs.
	EventSnapshot EventType = "snapshot"
	// EventDelta carries one commit's match change ΔM.
	EventDelta EventType = "delta"
)

// MatchEvent is one typed stream event. For EventSnapshot, Pairs is the
// full relation at Seq; for EventDelta, Added and Removed are the
// commit's ΔM (either may be empty — every commit produces an event, so
// Seq advances by exactly one per delta).
type MatchEvent struct {
	Type    EventType
	Pattern string
	Seq     uint64
	Pairs   []gpm.Pair // snapshot only
	Added   []gpm.Pair // delta only
	Removed []gpm.Pair // delta only
	// Trace is the producing commit span's W3C traceparent and At its
	// publish timestamp; both are zero for snapshots, unsampled commits,
	// and backfilled (resumed) deltas.
	Trace string
	At    time.Time
}

// StreamOption configures a Stream call.
type StreamOption func(*streamOpts)

type streamOpts struct {
	fromSeq uint64
	hasFrom bool
}

// FromSeq resumes the stream from commit sequence n: the caller already
// holds the relation as of n, so no snapshot is sent and delivery starts
// at n+1 (backfilled from the server's journal). If the server no longer
// retains the range it falls back to a snapshot event — handle
// EventSnapshot by rebasing.
func FromSeq(n uint64) StreamOption {
	return func(o *streamOpts) { o.fromSeq = n; o.hasFrom = true }
}

// Stream is a live match-delta subscription. Events arrive on C in
// commit order with consecutive sequence numbers. The stream survives
// disconnects and server restarts: it reconnects with exponential
// backoff, resuming from the last delivered sequence via the SSE
// Last-Event-ID contract, and deduplicates any overlap — consumers never
// see a sequence twice or a gap without an interleaved EventSnapshot.
//
// C closes when the stream ends: context canceled, Close called, or a
// terminal server answer (pattern unregistered → "not_found", resume
// unresumable, or any other non-retryable APIError). Err reports the
// cause (nil after a plain Close or context cancellation).
type Stream struct {
	C <-chan MatchEvent
	streamCore
}

// StreamStats is a point-in-time view of the stream's reconnect machinery
// — how hard the stream is working to stay connected, invisible on C by
// design. Read it via Stats.
type StreamStats struct {
	// Attempts counts connection attempts, including the initial connect
	// and every reconnect try; Connects counts the ones that reached an
	// open SSE stream.
	Attempts uint64 `json:"attempts"`
	Connects uint64 `json:"connects"`
	// Disconnects counts open connections that later dropped (server
	// restart, network). Attempts - Connects is the failed-try count.
	Disconnects uint64 `json:"disconnects"`
	// EventsDelivered counts events delivered on C (after dedup);
	// LastSeq is the newest delivered sequence.
	EventsDelivered uint64 `json:"events_delivered"`
	LastSeq         uint64 `json:"last_seq"`
	// Connected reports whether an SSE connection is open right now.
	Connected bool `json:"connected"`
	// CurrentBackoff is the delay before the next reconnect attempt while
	// disconnected (the floor once a connection delivers again).
	CurrentBackoff time.Duration `json:"current_backoff"`
	// LastDisconnect is the cause of the most recent drop or failed
	// attempt ("" while none has happened); LastDisconnectAt stamps it.
	LastDisconnect   string    `json:"last_disconnect,omitempty"`
	LastDisconnectAt time.Time `json:"last_disconnect_at,omitzero"`
}

// Stream opens a match-delta subscription for pattern id. The first
// connection is established synchronously, so an immediately-broken
// subscription (unknown pattern, unreachable server) fails here rather
// than on C. Events then flow on the returned stream's C until ctx is
// canceled, Close is called, or a terminal server condition ends it.
func (c *Client) Stream(ctx context.Context, id string, options ...StreamOption) (*Stream, error) {
	sc := &sseConn[MatchEvent]{
		c:       c,
		path:    "/v1/patterns/" + url.PathEscape(id) + "/stream",
		parse:   parseMatchFrame,
		spanKey: "pattern",
		spanVal: id,
	}
	st := &Stream{}
	ch, err := sc.open(ctx, &st.streamCore, options)
	if err != nil {
		return nil, err
	}
	st.C = ch
	return st, nil
}

// snapshotFrame and deltaFrame mirror the server's SSE data documents.
type snapshotFrame struct {
	ID    string     `json:"id"`
	Seq   uint64     `json:"seq"`
	Pairs []gpm.Pair `json:"pairs"`
}

type deltaFrame struct {
	ID      string     `json:"id"`
	Seq     uint64     `json:"seq"`
	Added   []gpm.Pair `json:"added"`
	Removed []gpm.Pair `json:"removed"`
	Trace   string     `json:"trace"`
	At      int64      `json:"at"` // publish time, UnixNano; 0 when absent
}

// parseMatchFrame decodes one pattern-stream SSE frame.
func parseMatchFrame(event, data string) (MatchEvent, frame, error) {
	switch EventType(event) {
	case EventSnapshot:
		var f snapshotFrame
		if err := json.Unmarshal([]byte(data), &f); err != nil {
			return MatchEvent{}, frame{}, fmt.Errorf("client: bad snapshot frame: %w", err)
		}
		return MatchEvent{Type: EventSnapshot, Pattern: f.ID, Seq: f.Seq, Pairs: f.Pairs},
			frame{kind: frameRebase, seq: f.Seq}, nil
	case EventDelta:
		var f deltaFrame
		if err := json.Unmarshal([]byte(data), &f); err != nil {
			return MatchEvent{}, frame{}, fmt.Errorf("client: bad delta frame: %w", err)
		}
		fr := newFrame(frameCommit, f.Seq, f.Trace, f.At)
		return MatchEvent{Type: EventDelta, Pattern: f.ID, Seq: f.Seq, Added: f.Added, Removed: f.Removed, Trace: fr.trace, At: fr.at},
			fr, nil
	}
	return MatchEvent{}, frame{kind: frameSkip}, nil
}

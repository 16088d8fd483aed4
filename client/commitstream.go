package client

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"gpm"
)

// CommitEventType discriminates commit-stream events.
type CommitEventType string

const (
	// EventHead is the stream's opening frame: Seq names the sequence the
	// stream starts after (no updates ride on it).
	EventHead CommitEventType = "head"
	// EventCommit carries one committed net update batch ΔG. Every commit
	// produces a frame — empty batches included — so Seq advances by
	// exactly one per event.
	EventCommit CommitEventType = "commit"
)

// CommitStreamEvent is one typed commit-stream event. Trace is the
// commit span's W3C traceparent and At its publish timestamp (both zero
// for head frames, unsampled commits, and backfilled events) — a
// follower passes Trace to ApplyReplicatedTrace so the leader's trace
// continues across the topology.
type CommitStreamEvent struct {
	Type    CommitEventType
	Seq     uint64
	Updates []gpm.Update // commit only
	Trace   string
	At      time.Time
}

// CommitStream is a live raw-ΔG subscription to GET /v1/commits/stream —
// the feed a follower replica applies. Events arrive on C in commit order
// with consecutive sequence numbers. Like Stream, it survives disconnects
// and server restarts by reconnecting with exponential backoff and
// resuming via Last-Event-ID, deduplicating any overlap.
//
// C closes when the stream ends: context canceled, Close called, or a
// terminal server answer. Err reports the cause; an error wrapping
// ErrCompacted means the server's journal no longer retains the range
// after our cursor — re-bootstrap from Snapshot, there is no rebase on
// this endpoint.
type CommitStream struct {
	C <-chan CommitStreamEvent
	streamCore
}

// CommitStream opens a raw-ΔG subscription. With FromSeq(n) the commits
// in (n, head] are backfilled first; without it the stream starts at the
// current head. The first connection is established synchronously, so an
// immediately-terminal condition (compacted resume point, future seq)
// fails here — check errors.Is(err, ErrCompacted) to distinguish the
// re-bootstrap case.
func (c *Client) CommitStream(ctx context.Context, options ...StreamOption) (*CommitStream, error) {
	sc := &sseConn[CommitStreamEvent]{
		c:       c,
		path:    "/v1/commits/stream",
		parse:   parseCommitFrame,
		spanKey: "stream",
		spanVal: "commits",
	}
	st := &CommitStream{}
	ch, err := sc.open(ctx, &st.streamCore, options)
	if err != nil {
		return nil, err
	}
	st.C = ch
	return st, nil
}

// commitFrame mirrors the server's SSE data documents — head frames carry
// only seq.
type commitFrame struct {
	Seq     uint64       `json:"seq"`
	Updates []gpm.Update `json:"updates"`
	Trace   string       `json:"trace"`
	At      int64        `json:"at"` // publish time, UnixNano; 0 when absent
}

// parseCommitFrame decodes one commit-stream SSE frame.
func parseCommitFrame(event, data string) (CommitStreamEvent, frame, error) {
	switch CommitEventType(event) {
	case EventHead:
		var f commitFrame
		if err := json.Unmarshal([]byte(data), &f); err != nil {
			return CommitStreamEvent{}, frame{}, fmt.Errorf("client: bad head frame: %w", err)
		}
		return CommitStreamEvent{Type: EventHead, Seq: f.Seq}, frame{kind: frameHead, seq: f.Seq}, nil
	case EventCommit:
		var f commitFrame
		if err := json.Unmarshal([]byte(data), &f); err != nil {
			return CommitStreamEvent{}, frame{}, fmt.Errorf("client: bad commit frame: %w", err)
		}
		fr := newFrame(frameCommit, f.Seq, f.Trace, f.At)
		return CommitStreamEvent{Type: EventCommit, Seq: f.Seq, Updates: f.Updates, Trace: fr.trace, At: fr.at},
			fr, nil
	}
	return CommitStreamEvent{}, frame{kind: frameSkip}, nil
}

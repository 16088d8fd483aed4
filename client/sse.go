package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// This file is the reconnecting SSE reader behind both streaming feeds:
// Stream (a pattern's match deltas) and CommitStream (raw ΔG). The feeds
// differ only in their URL path, their event type and how a frame
// decodes; connecting, resuming, deduplicating, backoff and the
// reconnect counters are shared.

// streamCore is the state Stream and CommitStream share: the teardown
// handles, the terminal error and the reconnect/delivery counters.
type streamCore struct {
	cancel context.CancelFunc
	done   chan struct{} // closed when the delivery goroutine has exited

	mu    sync.Mutex
	err   error
	stats StreamStats
}

// Stats returns a snapshot of the stream's reconnect/delivery counters.
// Safe to call concurrently with delivery, before and after C closes.
func (s *streamCore) Stats() StreamStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close tears the stream down: the connection drops, the goroutine
// exits and C closes. Safe to call more than once.
func (s *streamCore) Close() {
	s.cancel()
	<-s.done
}

// Err returns the terminal error after C closed (nil for a clean close
// or cancellation).
func (s *streamCore) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *streamCore) setErr(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
}

func (s *streamCore) recordAttempt() {
	s.mu.Lock()
	s.stats.Attempts++
	s.mu.Unlock()
}

func (s *streamCore) recordConnect() {
	s.mu.Lock()
	s.stats.Connects++
	s.stats.Connected = true
	s.mu.Unlock()
}

func (s *streamCore) recordDisconnect(wasOpen bool, cause string) {
	s.mu.Lock()
	if wasOpen {
		s.stats.Disconnects++
	}
	s.stats.Connected = false
	s.stats.LastDisconnect = cause
	s.stats.LastDisconnectAt = time.Now()
	s.mu.Unlock()
}

func (s *streamCore) recordEvent(seq uint64) {
	s.mu.Lock()
	s.stats.EventsDelivered++
	s.stats.LastSeq = seq
	s.mu.Unlock()
}

func (s *streamCore) recordBackoff(d time.Duration) {
	s.mu.Lock()
	s.stats.CurrentBackoff = d
	s.mu.Unlock()
}

// frameKind is a parsed frame's role for the resume cursor.
type frameKind int

const (
	// frameSkip is an unknown event type, ignored for forward compat.
	frameSkip frameKind = iota
	// frameCommit is one commit's event. It is dropped when at or behind
	// the cursor: that is replayed reconnect overlap.
	frameCommit
	// frameRebase is a snapshot. It is always delivered and resets the
	// cursor: on first connect it is the starting state, on reconnect the
	// server's rebase signal (journal compacted past the cursor).
	frameRebase
	// frameHead is a stream's opening frame. It seeds an unset cursor and
	// is delivered once per stream; the ones later reconnects produce are
	// cursor echoes.
	frameHead
)

// frame is what sseConn needs from a parsed SSE frame: its cursor role,
// and the seq, producing commit's traceparent and publish time of its
// event (trace and at are zero when the server sent none).
type frame struct {
	kind  frameKind
	seq   uint64
	trace string
	at    time.Time
}

// newFrame builds a frame from an event's wire fields; at is the publish
// time in UnixNano, 0 when absent.
func newFrame(kind frameKind, seq uint64, trace string, at int64) frame {
	f := frame{kind: kind, seq: seq, trace: trace}
	if at != 0 {
		f.at = time.Unix(0, at)
	}
	return f
}

// sseConn is the reconnect state machine behind one Stream or
// CommitStream, delivering events of type E. It GETs path as SSE,
// resumes via Last-Event-ID from the newest delivered sequence after
// every drop, reconnects with exponential backoff, and hands each parsed
// frame that survives the cursor's dedup to the consumer. parse must
// return frameSkip, not an error, for event types it does not know.
type sseConn[E any] struct {
	c     *Client
	core  *streamCore
	path  string
	parse func(event, data string) (E, frame, error)
	// spanKey and spanVal are the client.deliver span attribute naming
	// the feed.
	spanKey, spanVal string

	lastSeq  uint64 // newest delivered (or resumed-from) sequence
	haveSeq  bool   // lastSeq is meaningful: resume instead of starting fresh
	headSeen bool   // an opening head frame was delivered to the consumer
}

// open makes the first connection and starts the delivery goroutine,
// which reports into core, the owning stream's embedded state. The first
// connect is synchronous so a condition no retry can fix (unknown
// pattern, compacted resume point) fails the caller right here; a down
// server is not such a condition, and the retry loop rides through it.
func (sc *sseConn[E]) open(ctx context.Context, core *streamCore, options []StreamOption) (<-chan E, error) {
	var o streamOpts
	for _, opt := range options {
		opt(&o)
	}
	sc.lastSeq, sc.haveSeq = o.fromSeq, o.hasFrom
	sctx, cancel := context.WithCancel(ctx)
	core.cancel, core.done = cancel, make(chan struct{})
	core.stats.CurrentBackoff = sc.c.backoffMin
	sc.core = core
	resp, err := sc.connect(sctx)
	if err != nil && !sc.retryable(err) {
		cancel()
		return nil, terminalErr(err)
	}
	ch := make(chan E)
	go sc.run(sctx, ch, resp) // resp is nil after a retryable failure
	return ch, nil
}

// retryable reports whether an error is worth a backoff-and-reconnect:
// transport failures and explicitly transient server states are; typed
// client errors (pattern gone, compacted resume point) are terminal,
// because reconnecting would hit the same answer.
func (sc *sseConn[E]) retryable(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		// "closed" is a server shutting down — the restart we are designed
		// to ride through. Everything else typed is terminal.
		return apiErr.Code == CodeClosed || apiErr.Status >= 500
	}
	// Transport-level failure (connection refused/reset, EOF): retry.
	return true
}

// connect opens one SSE request, resuming via Last-Event-ID when a
// sequence is held.
func (sc *sseConn[E]) connect(ctx context.Context) (*http.Response, error) {
	sc.core.recordAttempt()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sc.c.base+sc.path, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if sc.haveSeq {
		req.Header.Set("Last-Event-ID", fmt.Sprintf("%d", sc.lastSeq))
	}
	resp, err := sc.c.hc.Do(req)
	if err != nil {
		sc.core.recordDisconnect(false, err.Error())
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		err := apiError(resp)
		sc.core.recordDisconnect(false, err.Error())
		return nil, err
	}
	sc.core.recordConnect()
	return resp, nil
}

// run is the delivery loop: read frames, deliver deduplicated events,
// reconnect with exponential backoff on drops, stop on ctx or terminal
// errors.
func (sc *sseConn[E]) run(ctx context.Context, ch chan<- E, resp *http.Response) {
	defer close(sc.core.done)
	defer close(ch)
	backoff := sc.c.backoffMin
	for {
		if resp == nil {
			select {
			case <-ctx.Done():
				return
			case <-time.After(backoff):
			}
			var err error
			resp, err = sc.connect(ctx)
			if err != nil {
				if ctx.Err() != nil {
					return
				}
				if !sc.retryable(err) {
					// Typed so consumers can switch on the cause — notably
					// ErrCompacted, the re-sync-from-snapshot signal when no
					// rebase is possible.
					sc.core.setErr(terminalErr(err))
					return
				}
				resp = nil
				if backoff *= 2; backoff > sc.c.backoffMax {
					backoff = sc.c.backoffMax
				}
				sc.core.recordBackoff(backoff)
				continue
			}
		}
		delivered, err := sc.consume(ctx, ch, resp)
		resp.Body.Close()
		resp = nil
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			// consume only errors on protocol violations (unparseable
			// frames); reconnecting would hit the same wire. Terminal.
			sc.core.recordDisconnect(true, err.Error())
			sc.core.setErr(err)
			return
		}
		sc.core.recordDisconnect(true, "connection dropped")
		// The connection dropped (server restart, network): reconnect,
		// resuming after the last delivered sequence. A connection that
		// delivered something resets the backoff.
		if delivered {
			backoff = sc.c.backoffMin
		} else if backoff *= 2; backoff > sc.c.backoffMax {
			backoff = sc.c.backoffMax
		}
		sc.core.recordBackoff(backoff)
	}
}

// consume reads SSE frames off one connection until it drops, delivering
// typed events. It reports whether anything was delivered (for backoff
// reset). A nil error is a plain connection drop.
func (sc *sseConn[E]) consume(ctx context.Context, ch chan<- E, resp *http.Response) (delivered bool, err error) {
	// A dropped connection must unblock the scanner even between frames:
	// closing the body on ctx cancellation does that.
	stop := context.AfterFunc(ctx, func() { resp.Body.Close() })
	defer stop()
	scan := bufio.NewScanner(resp.Body)
	scan.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	var event, data string
	for scan.Scan() {
		line := scan.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if event == "" {
				continue
			}
			ev, f, perr := sc.parse(event, data)
			event, data = "", ""
			if perr != nil {
				return delivered, perr
			}
			if !sc.accept(f) {
				continue
			}
			// Counted before the handoff so a consumer that just received
			// the event already sees it in Stats; at most one in-flight
			// event is over-counted if the stream closes mid-send.
			sc.core.recordEvent(f.seq)
			// The delivery span ends once the consumer has the event, so
			// its duration is the end-to-end event age at this client.
			ds := sc.c.deliverSpan(f.trace, f.at, sc.spanKey, sc.spanVal)
			select {
			case ch <- ev:
				ds.End()
				delivered = true
			case <-ctx.Done():
				return delivered, nil
			}
		}
	}
	if err := scan.Err(); err != nil && errors.Is(err, bufio.ErrTooLong) {
		// Deterministic: the server would resend the same oversized frame
		// on every reconnect, so retrying loops forever. Terminal.
		return delivered, fmt.Errorf("client: SSE frame exceeds the stream buffer: %w", err)
	}
	return delivered, nil // drop (EOF or close); the caller decides retry
}

// accept moves the resume cursor for f and reports whether its event
// goes to the consumer — the dedup that makes reconnect overlap
// invisible.
func (sc *sseConn[E]) accept(f frame) bool {
	switch f.kind {
	case frameCommit:
		if sc.haveSeq && f.seq <= sc.lastSeq {
			return false
		}
		sc.lastSeq, sc.haveSeq = f.seq, true
		return true
	case frameRebase:
		sc.lastSeq, sc.haveSeq = f.seq, true
		return true
	case frameHead:
		if !sc.haveSeq {
			sc.lastSeq, sc.haveSeq = f.seq, true
		}
		first := !sc.headSeen
		sc.headSeen = true
		return first
	}
	return false
}

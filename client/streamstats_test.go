package client

import (
	"context"
	"testing"
	"time"

	"gpm"
)

// statsFeed is one streaming feed under the Stats scenarios: Stream and
// CommitStream share their reconnect machinery, so both must count the
// same lifecycle the same way.
type statsFeed struct {
	name string
	// open subscribes; recv then takes the next event's seq (false once
	// C closed). The first event is the opening snapshot or head frame.
	open func(ctx context.Context, c *Client) (recv func() (uint64, bool), st statsStream, err error)
	// end makes the server end the stream for good: the reconnect attempt
	// gets a terminal answer.
	end func(ctx context.Context, c *Client) error
}

// statsStream is the surface Stream and CommitStream share.
type statsStream interface {
	Stats() StreamStats
	Err() error
	Close()
}

var statsFeeds = []statsFeed{
	{
		name: "pattern",
		open: func(ctx context.Context, c *Client) (func() (uint64, bool), statsStream, error) {
			st, err := c.Stream(ctx, "chain")
			if err != nil {
				return nil, nil, err
			}
			return func() (uint64, bool) { ev, ok := <-st.C; return ev.Seq, ok }, st, nil
		},
		// Unregistering ends the stream server-side; the reconnect gets 404.
		end: func(ctx context.Context, c *Client) error { return c.Unregister(ctx, "chain") },
	},
	{
		name: "commits",
		open: func(ctx context.Context, c *Client) (func() (uint64, bool), statsStream, error) {
			st, err := c.CommitStream(ctx)
			if err != nil {
				return nil, nil, err
			}
			return func() (uint64, bool) { ev, ok := <-st.C; return ev.Seq, ok }, st, nil
		},
		// A new world restarts the sequence at 0, so the reconnect's
		// Last-Event-ID is ahead of the head: 400 seq_future.
		end: func(ctx context.Context, c *Client) error {
			g, _, _ := testWorld()
			_, err := c.LoadGraph(ctx, g)
			return err
		},
	},
}

// recvWithin reads the next event's seq, failing the test on a closed
// stream or after d.
func recvWithin(t *testing.T, recv func() (uint64, bool), d time.Duration) uint64 {
	t.Helper()
	type got struct {
		seq uint64
		ok  bool
	}
	ch := make(chan got, 1)
	go func() { seq, ok := recv(); ch <- got{seq, ok} }()
	select {
	case g := <-ch:
		if !g.ok {
			t.Fatal("stream closed early")
		}
		return g.seq
	case <-time.After(d):
		t.Fatal("timed out waiting for an event")
	}
	panic("unreachable")
}

// TestStreamStats exercises Stats across a stream's whole lifecycle, for
// both feeds: a healthy connection, a server restart (disconnect + failed
// retries with growing backoff + successful resume), and close.
func TestStreamStats(t *testing.T) {
	for _, feed := range statsFeeds {
		t.Run(feed.name, func(t *testing.T) { testStreamStats(t, feed) })
	}
}

func testStreamStats(t *testing.T, feed statsFeed) {
	dir := t.TempDir()
	ctx := context.Background()

	first, addr := startServer(t, dir, "")
	c := New("http://"+addr, WithBackoff(20*time.Millisecond, 200*time.Millisecond))

	g, p, ids := testWorld()
	boss, am2, c2 := ids[0], ids[2], ids[4]
	if _, err := c.LoadGraph(ctx, g); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(ctx, "chain", p, gpm.KindSim); err != nil {
		t.Fatal(err)
	}

	recv, st, err := feed.open(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recvWithin(t, recv, 5*time.Second) // snapshot or head

	s := st.Stats()
	if s.Attempts != 1 || s.Connects != 1 || s.Disconnects != 0 || !s.Connected {
		t.Fatalf("after connect: %+v", s)
	}
	if s.EventsDelivered != 1 {
		t.Fatalf("opening event not counted: %+v", s)
	}

	if _, err := c.Apply(ctx, []gpm.Update{gpm.Insert(boss, am2)}); err != nil {
		t.Fatal(err)
	}
	seq := recvWithin(t, recv, 5*time.Second)
	s = st.Stats()
	if s.EventsDelivered != 2 || s.LastSeq != seq {
		t.Fatalf("after commit: %+v (event seq %d)", s, seq)
	}

	// Kill the server: the stream sees a disconnect ("connection dropped"),
	// then failed dials against the dead address while we hold it down.
	// Wait until one failed dial has fully completed — its cause (a dial
	// error, not the drop message) is on record — before restarting, so
	// the failed-attempt assertion below cannot race an in-flight dial
	// that would succeed against the restarted listener.
	first.stop(t)
	deadline := time.Now().Add(5 * time.Second)
	for {
		s = st.Stats()
		if s.Disconnects >= 1 && !s.Connected &&
			s.Attempts > s.Connects && s.LastDisconnect != "connection dropped" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no completed failed attempt observed: %+v", s)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s.LastDisconnect == "" || s.LastDisconnectAt.IsZero() {
		t.Fatalf("disconnect cause not recorded: %+v", s)
	}
	if s.CurrentBackoff < 20*time.Millisecond || s.CurrentBackoff > 200*time.Millisecond {
		t.Fatalf("backoff %v outside configured [20ms, 200ms]", s.CurrentBackoff)
	}

	// Restart on the same address: the stream reconnects and resumes.
	second, _ := startServer(t, dir, addr)
	defer second.stop(t)
	if _, err := c.Apply(ctx, []gpm.Update{gpm.Insert(am2, c2)}); err != nil {
		t.Fatal(err)
	}
	seq = recvWithin(t, recv, 10*time.Second)
	s = st.Stats()
	if !s.Connected || s.Connects < 2 || s.Disconnects < 1 {
		t.Fatalf("resume not reflected: %+v", s)
	}
	if s.Attempts <= s.Connects {
		t.Fatalf("failed attempts against the dead server not counted: %+v", s)
	}
	if s.LastSeq != seq || s.EventsDelivered != 3 {
		t.Fatalf("post-resume delivery: %+v (seq %d)", s, seq)
	}

	// Stats stay readable after Close, and a plain Close is no error.
	st.Close()
	if got := st.Stats(); got.EventsDelivered != 3 {
		t.Fatalf("stats after close: %+v", got)
	}
	if err := st.Err(); err != nil {
		t.Fatalf("Err after a plain Close = %v, want nil", err)
	}
}

// TestStreamStatsTerminal checks, for both feeds, that a terminal server
// answer on reconnect ends the stream with Err set and the cause recorded
// as the last disconnect.
func TestStreamStatsTerminal(t *testing.T) {
	for _, feed := range statsFeeds {
		t.Run(feed.name, func(t *testing.T) { testStreamStatsTerminal(t, feed) })
	}
}

func testStreamStatsTerminal(t *testing.T, feed statsFeed) {
	dir := t.TempDir()
	ctx := context.Background()
	rs, addr := startServer(t, dir, "")
	defer rs.stop(t)
	c := New("http://"+addr, WithBackoff(10*time.Millisecond, 50*time.Millisecond))

	g, p, ids := testWorld()
	if _, err := c.LoadGraph(ctx, g); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(ctx, "chain", p, gpm.KindSim); err != nil {
		t.Fatal(err)
	}
	recv, st, err := feed.open(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recvWithin(t, recv, 5*time.Second)
	if _, err := c.Apply(ctx, []gpm.Update{gpm.Insert(ids[0], ids[2])}); err != nil {
		t.Fatal(err)
	}
	seq := recvWithin(t, recv, 5*time.Second)

	if err := feed.end(ctx, c); err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := recv(); !ok {
			break
		}
	}
	s := st.Stats()
	if st.Err() == nil {
		t.Fatal("terminal stream has nil Err")
	}
	if s.LastDisconnect == "" || s.Connected {
		t.Fatalf("terminal cause not recorded: %+v", s)
	}
	if s.Disconnects < 1 || s.EventsDelivered != 2 || s.LastSeq != seq {
		t.Fatalf("terminal stream counters: %+v (last event seq %d)", s, seq)
	}
}

package contq

import (
	"testing"

	"gpm/internal/obs"
)

// TestMailboxLifecycle pins the mailbox contract both subscriber kinds
// rely on: a paused mailbox delivers prepended events ahead of pushed
// ones once started; close closes out exactly once whether or not the
// pump ever ran; and every mailbox leaves the active gauge as it found it.
func TestMailboxLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	active, hw := reg.Gauge("active", ""), reg.Gauge("hw", "")

	t.Run("prepend ahead of pushes", func(t *testing.T) {
		var m mailbox[int]
		c := m.init(active, hw, true)
		m.push(3)
		m.push(4)
		m.prepend([]int{1, 2})
		m.start()
		m.start() // idempotent
		for want := 1; want <= 4; want++ {
			if got := <-c; got != want {
				t.Fatalf("event %d, want %d", got, want)
			}
		}
		m.close()
		if _, ok := <-c; ok {
			t.Fatal("close must close out")
		}
	})

	t.Run("close before start", func(t *testing.T) {
		var m mailbox[int]
		c := m.init(active, hw, true)
		m.push(1)
		m.close()
		if _, ok := <-c; ok {
			t.Fatal("closing a never-started mailbox must close out")
		}
		m.start() // no pump, no second close
		m.close()
	})

	t.Run("close mid-send", func(t *testing.T) {
		var m mailbox[int]
		c := m.init(active, hw, false)
		m.push(1)
		m.push(2)
		m.close() // the pump holds 1, blocked on the unread out
		for range c {
		}
	})

	if got := active.Value(); got != 0 {
		t.Fatalf("active gauge = %d after every mailbox closed, want 0", got)
	}
	if got := hw.Value(); got < 2 {
		t.Fatalf("high-water = %d, want >= 2", got)
	}
}

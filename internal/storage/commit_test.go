package storage

import (
	"sync"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
)

func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestCommittedSignalsEveryWritePath: the channel a reader took before a
// write is closed by Put, PutBatch, DeleteAt and Close, and by nothing
// else; a store nobody waits on allocates no channel at all.
func TestCommittedSignalsEveryWritePath(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	a := event(t, "a", [2]string{"domain", "a.example"})
	b := event(t, "b", [2]string{"domain", "b.example"})

	if err := s.Put(a); err != nil {
		t.Fatal(err)
	}
	if s.commit != nil {
		t.Fatal("a write with no waiter allocated a commit channel")
	}

	ch := s.Committed()
	if ch != s.Committed() {
		t.Fatal("two readers between commits got different channels")
	}
	if _, err := s.Get(a.UUID); err != nil || closed(ch) {
		t.Fatalf("a read closed the commit channel (err %v)", err)
	}
	if err := s.DeleteAt("no-such-uuid", time.Now()); err == nil || closed(ch) {
		t.Fatalf("a failed delete closed the commit channel (err %v)", err)
	}

	writes := []struct {
		name string
		do   func() error
	}{
		{"Put", func() error { return s.Put(b) }},
		{"PutBatch", func() error { _, err := s.PutBatch([]*misp.Event{a, b}, nil); return err }},
		{"DeleteAt", func() error { return s.DeleteAt(a.UUID, time.Now()) }},
		{"Close", s.Close},
	}
	for _, w := range writes {
		ch := s.Committed()
		if closed(ch) {
			t.Fatalf("%s: channel closed before the write", w.name)
		}
		if err := w.do(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !closed(ch) {
			t.Fatalf("%s did not close the commit channel", w.name)
		}
	}
	if !closed(s.Committed()) {
		t.Fatal("a closed store handed out an open channel: a reader would park on it for good")
	}
}

// TestCommittedConcurrentWaiters parks 64 readers in the take-then-read
// order the change feed uses while a writer commits: every reader must
// see every commit, under -race.
func TestCommittedConcurrentWaiters(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const waiters, commits = 64, 50
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var after uint64
			for after < commits {
				ch := s.Committed()
				_, next, _, err := s.Changes(after, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if next == after {
					<-ch
					continue
				}
				after = next
			}
		}()
	}
	for i := 0; i < commits; i++ {
		if err := s.Put(event(t, "evt", [2]string{"domain", "h.example"})); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

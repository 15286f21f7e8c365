package subscribe

import (
	"os"
	"path/filepath"
	"testing"
)

func TestPersistRestoresSubscriptionsAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "subscriptions.json")

	e := NewEngine(WithPersistPath(path))
	s1, err := e.Register("alice", `[domain-name:value = 'evil.example']`)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := e.Register("bob", `[ipv4-addr:value = '10.0.0.1']`)
	if err != nil {
		t.Fatal(err)
	}
	e.Close()

	// A fresh engine on the same sidecar is the restarted daemon: the
	// standing patterns come back under their original handles.
	e = NewEngine(WithPersistPath(path))
	defer e.Close()
	if e.Len() != 2 {
		t.Fatalf("restored %d subscriptions, want 2", e.Len())
	}
	for _, orig := range []*Subscription{s1, s2} {
		got, ok := e.Get(orig.ID)
		if !ok {
			t.Fatalf("subscription %s not restored", orig.ID)
		}
		if got.Pattern != orig.Pattern || got.ClientID != orig.ClientID {
			t.Fatalf("restored %+v, want %+v", got, orig)
		}
		if !got.CreatedAt.Equal(orig.CreatedAt) {
			t.Fatalf("creation stamp drifted: %s vs %s", got.CreatedAt, orig.CreatedAt)
		}
	}

	// Restored patterns are live, not just listed.
	if n := e.EvaluateMISP(ciocEvent(t), StageCIoC, -1); n != 1 {
		t.Fatalf("restored pattern matched %d times, want 1", n)
	}
}

func TestPersistTracksUnsubscribe(t *testing.T) {
	path := filepath.Join(t.TempDir(), "subscriptions.json")
	e := NewEngine(WithPersistPath(path))
	s1, err := e.Register("alice", `[domain-name:value = 'a.example']`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register("alice", `[domain-name:value = 'b.example']`); err != nil {
		t.Fatal(err)
	}
	if err := e.Unsubscribe(s1.ID); err != nil {
		t.Fatal(err)
	}
	e.Close()

	e = NewEngine(WithPersistPath(path))
	defer e.Close()
	if e.Len() != 1 {
		t.Fatalf("restored %d subscriptions, want 1 after unsubscribe", e.Len())
	}
	if _, ok := e.Get(s1.ID); ok {
		t.Fatal("unsubscribed pattern came back after restart")
	}
}

func TestPersistToleratesBrokenSidecar(t *testing.T) {
	path := filepath.Join(t.TempDir(), "subscriptions.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A corrupt sidecar must not brick the daemon: boot empty instead.
	e := NewEngine(WithPersistPath(path))
	defer e.Close()
	if e.Len() != 0 {
		t.Fatalf("engine restored %d subscriptions from garbage", e.Len())
	}
	// And the engine still registers + persists over it.
	if _, err := e.Register("alice", `[domain-name:value = 'a.example']`); err != nil {
		t.Fatal(err)
	}
}

func TestPersistSkipsEntriesOverQuota(t *testing.T) {
	path := filepath.Join(t.TempDir(), "subscriptions.json")
	e := NewEngine(WithPersistPath(path))
	for _, v := range []string{"a", "b", "c"} {
		if _, err := e.Register("alice", `[domain-name:value = '`+v+`.example']`); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()

	// The restarted daemon enforces a tighter per-client quota: the
	// overflow is skipped with a warning, the rest still load.
	e = NewEngine(WithPersistPath(path), withMaxPerClient(2))
	defer e.Close()
	if e.Len() != 2 {
		t.Fatalf("restored %d subscriptions under quota 2", e.Len())
	}
}

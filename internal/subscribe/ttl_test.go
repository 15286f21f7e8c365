package subscribe

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/obs"
)

var ttlStart = time.Date(2019, 6, 24, 12, 0, 0, 0, time.UTC)

func TestTTLExpiryStopsMatchingBeforeSweep(t *testing.T) {
	clk := clock.NewFake(ttlStart)
	e := NewEngine(WithClock(clk))
	defer e.Close()
	// No RunSweeper runs, so only the explicit Sweep below removes it.
	ttl, err := e.RegisterTTL("c", "[domain-name:value = 'evil.example']", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ttl.ExpiresAt == nil || !ttl.ExpiresAt.Equal(clk.Now().Add(30*time.Second)) {
		t.Fatalf("ExpiresAt = %v, want now+30s", ttl.ExpiresAt)
	}
	keep := mustRegister(t, e, "c", "[domain-name:value = 'evil.example']")
	if keep.ExpiresAt != nil {
		t.Fatalf("plain Register set ExpiresAt = %v", keep.ExpiresAt)
	}

	o := obsOf(map[string][]string{"domain-name:value": {"evil.example"}})
	if got := len(e.Evaluate(o)); got != 2 {
		t.Fatalf("before expiry: %d matches, want 2", got)
	}
	clk.Advance(30 * time.Second) // deadline is inclusive: now == ExpiresAt is expired
	if got := matchIDs(e.Evaluate(o)); len(got) != 1 || got[0] != keep.ID {
		t.Fatalf("after expiry: matches %v, want only %s", got, keep.ID)
	}
	// The expired record is still registered until a sweep runs.
	if e.Len() != 2 {
		t.Fatalf("Len = %d before sweep, want 2", e.Len())
	}
	if n := e.Sweep(); n != 1 {
		t.Fatalf("Sweep = %d, want 1", n)
	}
	if e.Len() != 1 {
		t.Fatalf("Len = %d after sweep, want 1", e.Len())
	}
	if _, ok := e.Get(ttl.ID); ok {
		t.Fatal("expired subscription still retrievable")
	}
	if n := e.Sweep(); n != 0 {
		t.Fatalf("second Sweep = %d, want 0", n)
	}
}

func TestTTLSweepCounter(t *testing.T) {
	clk := clock.NewFake(ttlStart)
	reg := obs.NewRegistry()
	e := NewEngine(WithClock(clk), WithMetrics(reg))
	defer e.Close()
	for i := 0; i < 3; i++ {
		if _, err := e.RegisterTTL("c", "[domain-name:value = 'evil.example']", 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	mustRegister(t, e, "c", "[url:value = 'http://x/']")
	clk.Advance(20 * time.Second) // no RunSweeper: Sweep below does the work
	if n := e.Sweep(); n != 3 {
		t.Fatalf("Sweep = %d, want 3", n)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "caisp_subs_expired_total 3") {
		t.Fatalf("metrics missing caisp_subs_expired_total 3:\n%s", buf.String())
	}
}

func TestTTLPersistenceRoundTrip(t *testing.T) {
	clk := clock.NewFake(ttlStart)
	path := filepath.Join(t.TempDir(), "subs.json")
	e := NewEngine(WithClock(clk), WithPersistPath(path))
	short, err := e.RegisterTTL("c", "[domain-name:value = 'a.example']", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	long, err := e.RegisterTTL("c", "[domain-name:value = 'b.example']", 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	e.Close()

	// Restart after the short TTL lapsed: only the long one comes back,
	// deadline intact.
	clk.Advance(time.Hour)
	e2 := NewEngine(WithClock(clk), WithPersistPath(path))
	defer e2.Close()
	if _, ok := e2.Get(short.ID); ok {
		t.Fatal("expired subscription resurrected across restart")
	}
	got, ok := e2.Get(long.ID)
	if !ok {
		t.Fatal("unexpired TTL subscription lost across restart")
	}
	if got.ExpiresAt == nil || !got.ExpiresAt.Equal(*long.ExpiresAt) {
		t.Fatalf("ExpiresAt = %v, want %v", got.ExpiresAt, long.ExpiresAt)
	}
}

// TestTTLBackgroundSweeper: RunSweeper sweeps on the engine's clock
// and returns when its context ends.
func TestTTLBackgroundSweeper(t *testing.T) {
	clk := clock.NewFake(ttlStart)
	e := NewEngine(WithClock(clk))
	defer e.Close()
	if _, err := e.RegisterTTL("c", "[domain-name:value = 'a.example']", time.Minute); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.RunSweeper(ctx)
	}()
	clk.BlockUntil(1) // the sweeper is armed
	clk.Advance(2 * time.Minute)
	clk.BlockUntil(1) // the sweep ran and the sweeper re-armed
	cancel()
	<-done
	if e.Len() != 0 {
		t.Fatalf("background sweeper never removed expired subscription; Len = %d", e.Len())
	}
}

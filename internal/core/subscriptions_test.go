package core

// End-to-end coverage of the streaming-detection wiring: patterns
// registered on the platform engine fire when the batch pipeline admits
// matching cIoCs and eIoCs, match frames reach /ws/matches watchers through
// the dashboard-mounted surface, and the analyzer's threat score is visible
// to score-gated patterns.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/subscribe"
	"github.com/caisplatform/caisp/internal/wsock"
)

func TestPlatformStreamsSubscriptionMatches(t *testing.T) {
	p := newPlatform(t, Config{
		Feeds: []feed.Feed{advisoryFeed(strutsAdvisory)},
	})
	engine := p.Subscriptions()

	cveSub, err := engine.Register("siem", "[vulnerability:name = 'CVE-2017-9805']")
	if err != nil {
		t.Fatal(err)
	}
	scoreSub, err := engine.Register("siem", "[x-caisp:threat-score > 0]")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Register("siem", "[domain-name:value = 'unrelated.example']"); err != nil {
		t.Fatal(err)
	}

	// Watch the match stream through the dashboard mux, exactly as an
	// external SIEM would.
	srv := httptest.NewServer(p.Dashboard())
	defer srv.Close()
	conn, err := wsock.Dial("ws" + strings.TrimPrefix(srv.URL, "http") + "/ws/matches")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, _, err := conn.ReadMessage(); err != nil { // hello greeting
		t.Fatal(err)
	}
	frames := make(chan subscribe.EventFrame, 8)
	go func() {
		for {
			_, payload, err := conn.ReadMessage()
			if err != nil {
				close(frames)
				return
			}
			var frame subscribe.EventFrame
			if json.Unmarshal(payload, &frame) == nil {
				frames <- frame
			}
		}
	}()

	if err := p.RunBatch(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The admitted cIoC fires the CVE pattern at the cioc stage; the
	// scored eIoC re-fires it and additionally satisfies the score gate.
	seen := map[string]map[subscribe.Stage]bool{}
	deadline := time.After(5 * time.Second)
	for len(seen[cveSub.ID]) < 2 || !seen[scoreSub.ID][subscribe.StageEIoC] {
		select {
		case frame, ok := <-frames:
			if !ok {
				t.Fatal("match stream closed early")
			}
			for _, m := range frame.Matches {
				if seen[m.SubscriptionID] == nil {
					seen[m.SubscriptionID] = map[subscribe.Stage]bool{}
				}
				seen[m.SubscriptionID][frame.Stage] = true
			}
		case <-deadline:
			t.Fatalf("incomplete match coverage: %v", seen)
		}
	}
	if seen[cveSub.ID][subscribe.StageCIoC] != true {
		t.Fatalf("CVE pattern never fired at the cioc stage: %v", seen)
	}
	if seen[scoreSub.ID][subscribe.StageCIoC] {
		t.Fatalf("score-gated pattern fired before analysis: %v", seen)
	}

	// Per-subscription counters reflect both stages.
	got, ok := engine.Get(cveSub.ID)
	if !ok || got.Matches < 2 {
		t.Fatalf("cve subscription snapshot = %+v, want >= 2 matches", got)
	}
	if st := engine.Stats(); st.Registered != 3 || st.Matches < 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPlatformSubscriptionAPIOnDashboard pins the REST mounting: the
// dashboard listener serves registration and unsubscription.
func TestPlatformSubscriptionAPIOnDashboard(t *testing.T) {
	p := newPlatform(t, Config{})
	srv := httptest.NewServer(p.Dashboard())
	defer srv.Close()

	resp, err := srv.Client().Post(srv.URL+"/subscriptions", "application/json",
		strings.NewReader(`{"client_id": "c", "pattern": "[a:b = 'x']"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 201 {
		t.Fatalf("register via dashboard = %d, want 201", resp.StatusCode)
	}
	var sub subscribe.Subscription
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if p.Subscriptions().Len() != 1 {
		t.Fatal("engine did not register")
	}
}

// TestExpiredTTLSubscriptionsFreeTheClientQuota: the platform sweeps
// TTL-expired subscriptions on its clock, so a client that keeps cycling
// TTL subscriptions is not refused for good once it reached its limit.
func TestExpiredTTLSubscriptionsFreeTheClientQuota(t *testing.T) {
	clk := clock.NewFake(batchTime)
	p := newPlatform(t, Config{Clock: clk, DisableLifecycle: true})
	engine := p.Subscriptions()
	const pattern = "[domain-name:value = 'evil.example']"
	for i := 0; i < subscribe.DefaultMaxPerClient; i++ {
		if _, err := engine.RegisterTTL("siem", pattern, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	var limit *subscribe.ClientLimitError
	if _, err := engine.Register("siem", pattern); !errors.As(err, &limit) {
		t.Fatalf("register past the limit: %v, want ClientLimitError", err)
	}
	blockUntil(t, clk, 1) // the sweeper is armed
	clk.Advance(2 * time.Minute)
	blockUntil(t, clk, 1) // the sweep ran and the sweeper re-armed
	if _, err := engine.Register("siem", pattern); err != nil {
		t.Fatalf("register after the TTLs expired: %v", err)
	}
}

// blockUntil is clk.BlockUntil(n), failing the test instead of hanging
// when fewer than n timers are ever armed.
func blockUntil(t *testing.T, clk *clock.Fake, n int) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		clk.BlockUntil(n)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("fewer than %d timers armed on the clock", n)
	}
}

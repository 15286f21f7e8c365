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
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
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

// matchFrames streams the match frames a /ws/matches watcher on h
// receives, after the greeting.
func matchFrames(t *testing.T, h http.Handler) <-chan subscribe.EventFrame {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	conn, err := wsock.Dial("ws" + strings.TrimPrefix(srv.URL, "http") + "/ws/matches")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, _, err := conn.ReadMessage(); err != nil { // hello greeting
		t.Fatal(err)
	}
	frames := make(chan subscribe.EventFrame, 8)
	go func() {
		defer close(frames)
		for {
			_, payload, err := conn.ReadMessage()
			if err != nil {
				return
			}
			var frame subscribe.EventFrame
			if json.Unmarshal(payload, &frame) == nil {
				frames <- frame
			}
		}
	}()
	return frames
}

// awaitFrame blocks until a match frame for uuid arrives.
func awaitFrame(t *testing.T, frames <-chan subscribe.EventFrame, uuid string) subscribe.EventFrame {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case frame, ok := <-frames:
			if !ok {
				t.Fatal("match stream closed early")
			}
			if frame.Event == uuid {
				return frame
			}
		case <-deadline:
			t.Fatalf("no match frame for %s", uuid)
		}
	}
}

// TestDetectionsMatchAPostedCIoCAsAFlushedOne: an unscorable cluster
// fires a category pattern once whether the flush composed it or it was
// posted to the TIP of a started platform. Detections follow the change
// log, so they see every revision the store commits, whoever stores it.
func TestDetectionsMatchAPostedCIoCAsAFlushedOne(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store func(p *Platform) string // returns the cluster's UUID
	}{{
		name: "flushed",
		store: func(p *Platform) string {
			p.ingest([]normalize.Event{ctxEvent(t, "opaque-token", normalize.CategoryMalwareDomain, nil)})
			return awaitChanges(t, p, 1)[0].UUID
		},
	}, {
		name: "posted",
		store: func(p *Platform) string {
			posted := clusterOf(t, "opaque-token", normalize.CategoryMalwareDomain, nil)
			if _, err := p.TIP().AddEvent(posted); err != nil {
				t.Fatal(err)
			}
			return posted.UUID
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPlatform(t, Config{DisableLifecycle: true})
			sub, err := p.Subscriptions().Register("siem", "[x-caisp:category = 'malware-domain']")
			if err != nil {
				t.Fatal(err)
			}
			frames := matchFrames(t, p.Dashboard())
			if err := p.Start(context.Background(), time.Hour); err != nil {
				t.Fatal(err)
			}
			uuid := tc.store(p)
			if frame := awaitFrame(t, frames, uuid); frame.Stage != subscribe.StageCIoC {
				t.Fatalf("matched at the %s stage, want cioc", frame.Stage)
			}
			p.Stop()
			if got, _ := p.Subscriptions().Get(sub.ID); got.Matches != 1 {
				t.Fatalf("the %s cluster matched %d times, want 1", tc.name, got.Matches)
			}
		})
	}
}

// awaitChanges blocks until the change log holds n live revisions and
// returns them.
func awaitChanges(t *testing.T, p *Platform, n int) []*misp.Event {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		committed := p.store.Committed() // before the read: see Store.Committed
		page, _, _, err := p.TIP().ChangesPage(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) >= n {
			return page
		}
		select {
		case <-committed:
		case <-deadline:
			t.Fatalf("%d of %d revisions committed", len(page), n)
		}
	}
}

// TestRunBatchDetectsWhatWasPostedBetweenBatches: RunBatch evaluates the
// standing patterns against every revision committed since the last
// pass, not only against its own flush, before it returns.
func TestRunBatchDetectsWhatWasPostedBetweenBatches(t *testing.T) {
	p := newPlatform(t, Config{DisableLifecycle: true})
	sub, err := p.Subscriptions().Register("siem", "[vulnerability:name = 'CVE-2017-9805']")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RunBatch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.TIP().AddEvent(clusterOf(t, "CVE-2017-9805", normalize.CategoryVulnExploit, strutsContext)); err != nil {
		t.Fatal(err)
	}
	if err := p.RunBatch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Subscriptions().Get(sub.ID); got.Matches != 1 {
		t.Fatalf("the posted cIoC matched %d times by the end of the batch, want 1", got.Matches)
	}
}

// TestStopDetectsWhatItsFinalFlushLands: a cluster that only Stop's final
// flush stores fires its pattern at both stages before Stop returns.
func TestStopDetectsWhatItsFinalFlushLands(t *testing.T) {
	p := newPlatform(t, Config{DisableLifecycle: true})
	sub, err := p.Subscriptions().Register("siem", "[domain-name:value = 'poll1.example']")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(context.Background(), time.Hour); err != nil {
		t.Fatal(err)
	}
	// Pending without the wake-up, on a clock that never ticks: only the
	// final flush takes it.
	p.mu.Lock()
	p.pending = append(p.pending, poll(t, 1)...)
	p.mu.Unlock()
	p.Stop()
	if st := p.Stats(); st.EIoCs != 1 {
		t.Fatalf("after Stop: %+v, want the pending cluster stored as an eIoC", st)
	}
	if got, _ := p.Subscriptions().Get(sub.ID); got.Matches != 2 {
		t.Fatalf("the final flush's cluster matched %d times, want 2 (cioc and eioc)", got.Matches)
	}
}

package lifecycle

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"strings"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/storage"
)

var t0 = time.Date(2019, 6, 24, 12, 0, 0, 0, time.UTC)

func openStore(t testing.TB) *storage.Store {
	t.Helper()
	s, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// putOne stores e alone, as a one-event PutBatch.
func putOne(s *storage.Store, e *misp.Event) error {
	_, err := s.PutBatch([]*misp.Event{e}, nil)
	return err
}

// eioc builds a scored indicator event: category tag, analyzer
// write-back, last sighting at `seen`.
func eioc(info, category string, base float64, seen time.Time) *misp.Event {
	e := misp.NewEvent(info, seen)
	e.AddTag("caisp:cioc")
	e.AddTag("caisp:eioc")
	e.AddTag("caisp:category=\"" + category + "\"")
	e.AddAttribute("domain", "Network activity", info+".example", seen)
	heuristic.SetBaseScore(e, base, seen)
	return e
}

// withPolicies, withBatchSize and withHistoryDepth replace settings the
// daemons run at their defaults.
func withPolicies(p map[string]Policy) Option { return func(e *Engine) { e.policies = p } }
func withBatchSize(n int) Option              { return func(e *Engine) { e.batch = n } }
func withHistoryDepth(n int) Option           { return func(e *Engine) { e.depth = n } }

func testPolicies() map[string]Policy {
	return map[string]Policy{
		"botnet-c2": {Tau: 100 * time.Hour, Delta: 1},
		"unknown":   {Tau: 200 * time.Hour, Delta: 1},
	}
}

func TestRescoreLandsDecayedScoreWithoutBumpingTimestamp(t *testing.T) {
	s := openStore(t)
	ev := eioc("c2", "botnet-c2", 4.0, t0)
	if err := putOne(s, ev); err != nil {
		t.Fatal(err)
	}
	e := New(s, withPolicies(testPolicies()), WithFloor(0.3))

	now := t0.Add(50 * time.Hour) // linear τ=100h: half decayed
	res, err := e.RunOnce(now)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rescored != 1 || res.Expired != 0 {
		t.Fatalf("result = %+v, want 1 rescore", res)
	}
	got, err := s.Get(ev.UUID)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := heuristic.DecayedScoreOf(got)
	if !ok || d != 2.0 {
		t.Fatalf("decayed score = %v (%v), want 2.0", d, ok)
	}
	if b, _ := heuristic.BaseScoreOf(got); b != 4.0 {
		t.Fatalf("base score mutated to %v", b)
	}
	if !got.Timestamp.Time.Equal(t0) {
		t.Fatalf("re-score bumped the event timestamp to %v", got.Timestamp.Time)
	}
	if hist := e.History(ev.UUID); len(hist) != 1 || hist[0].Score != 2.0 {
		t.Fatalf("history = %+v", hist)
	}

	// A second run at the same instant is a no-op: quantized score is
	// unchanged, so nothing is written.
	res, err = e.RunOnce(now)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rescored != 0 {
		t.Fatalf("idempotent re-run wrote %d edits", res.Rescored)
	}
}

func TestExpiryBelowFloorDeletesAndDropsHistory(t *testing.T) {
	s := openStore(t)
	fresh := eioc("fresh", "botnet-c2", 4.0, t0.Add(90*time.Hour))
	doomed := eioc("doomed", "botnet-c2", 4.0, t0)
	for _, ev := range []*misp.Event{fresh, doomed} {
		if err := putOne(s, ev); err != nil {
			t.Fatal(err)
		}
	}
	e := New(s, withPolicies(testPolicies()), WithFloor(0.3))
	if _, err := e.RunOnce(t0.Add(50 * time.Hour)); err != nil {
		t.Fatal(err) // tracks both while alive
	}
	res, err := e.RunOnce(t0.Add(99 * time.Hour)) // doomed ~0.04 < floor
	if err != nil {
		t.Fatal(err)
	}
	if res.Expired != 1 {
		t.Fatalf("result = %+v, want 1 expiry", res)
	}
	if _, err := s.Get(doomed.UUID); err == nil {
		t.Fatal("expired event still stored")
	}
	if _, err := s.Get(fresh.UUID); err != nil {
		t.Fatal("fresh event expired")
	}
	if e.History(doomed.UUID) != nil {
		t.Fatal("expired event kept its history ring")
	}
	if st := e.Stats(); st.Expired != 1 || st.StoreLen != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestExpireHookRoutesDeletion(t *testing.T) {
	for _, tc := range []struct {
		name string
		hook func(s *storage.Store, uuid string) error
	}{
		{"deletes", func(s *storage.Store, uuid string) error { return s.Delete(uuid) }},
		// Deleted behind the engine's back (a mesh tombstone): already expired.
		{"already gone", func(_ *storage.Store, uuid string) error {
			return fmt.Errorf("delete %s: %w", uuid, storage.ErrNotFound)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := openStore(t)
			doomed := eioc("doomed", "botnet-c2", 4.0, t0)
			if err := putOne(s, doomed); err != nil {
				t.Fatal(err)
			}
			var logs bytes.Buffer
			var hooked []string
			e := New(s, withPolicies(testPolicies()),
				WithLogger(slog.New(slog.NewTextHandler(&logs, nil))),
				WithExpireHook(func(uuid string) error {
					hooked = append(hooked, uuid)
					return tc.hook(s, uuid)
				}))
			if _, err := e.RunOnce(t0.Add(50 * time.Hour)); err != nil {
				t.Fatal(err) // alive: tracked
			}
			if _, err := e.RunOnce(t0.Add(500 * time.Hour)); err != nil {
				t.Fatal(err)
			}
			if len(hooked) != 1 || hooked[0] != doomed.UUID {
				t.Fatalf("hook saw %v", hooked)
			}
			if e.History(doomed.UUID) != nil {
				t.Fatal("expired event kept its history ring")
			}
			if strings.Contains(logs.String(), "expiry failed") {
				t.Fatalf("expiry logged as failed:\n%s", logs.String())
			}
		})
	}
}

// TestStartTicksOnTheClock: Run waits on the injected clock and
// evaluates at its time, not the wall clock's, and returns when its
// context ends.
func TestStartTicksOnTheClock(t *testing.T) {
	s := openStore(t)
	ev := eioc("c2", "botnet-c2", 4.0, t0)
	if err := putOne(s, ev); err != nil {
		t.Fatal(err)
	}
	clk := clock.NewFake(t0)
	e := New(s, withPolicies(testPolicies()), WithClock(clk), WithInterval(50*time.Hour))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run(ctx)
	}()
	clk.BlockUntil(1) // the loop is armed
	clk.Advance(50 * time.Hour)
	clk.BlockUntil(1) // the pass ran and the loop re-armed
	cancel()
	<-done
	if p := e.Stats().Passes; p != 1 {
		t.Fatalf("Passes = %d after one interval, want 1", p)
	}
	got, err := s.Get(ev.UUID)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := heuristic.DecayedScoreOf(got); d != 2.0 {
		t.Fatalf("decayed score = %v, want 2.0 (half of τ=100h elapsed)", d)
	}
}

func TestZeroIntervalAndFloorKeepDefaults(t *testing.T) {
	e := New(openStore(t), WithInterval(0), WithFloor(0))
	if e.interval != defaultInterval || e.floor != defaultFloor {
		t.Fatalf("interval %v floor %v, want the defaults %v and %v",
			e.interval, e.floor, defaultInterval, defaultFloor)
	}
}

func TestSightingRefreshResetsDecay(t *testing.T) {
	s := openStore(t)
	ev := eioc("c2", "botnet-c2", 4.0, t0)
	if err := putOne(s, ev); err != nil {
		t.Fatal(err)
	}
	sighted := t0.Add(80 * time.Hour)
	e := New(s, withPolicies(testPolicies()), WithFloor(0.3),
		WithSightings(func() map[string]time.Time {
			return map[string]time.Time{ev.UUID: sighted}
		}))
	// At t0+99h the unrefreshed score (~0.04) would expire; the sighting
	// at +80h makes the age 19h instead.
	res, err := e.RunOnce(t0.Add(99 * time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if res.Expired != 0 || res.Rescored != 1 || res.Refreshed != 1 {
		t.Fatalf("result = %+v, want a refreshed rescore", res)
	}
	got, err := s.Get(ev.UUID)
	if err != nil {
		t.Fatal(err)
	}
	want := quantize(Score(4.0, 19*time.Hour, testPolicies()["botnet-c2"]))
	if d, _ := heuristic.DecayedScoreOf(got); d != want {
		t.Fatalf("decayed = %v, want %v (age from sighting)", d, want)
	}
}

// TestStatsAgreeWithFamilies: after a pass that expires one indicator
// and rescores a sighted one, Stats reads what the caisp_lifecycle_*
// counters read.
func TestStatsAgreeWithFamilies(t *testing.T) {
	s := openStore(t)
	sighted := eioc("sighted", "botnet-c2", 4.0, t0)
	doomed := eioc("doomed", "botnet-c2", 4.0, t0)
	for _, ev := range []*misp.Event{sighted, doomed} {
		if err := putOne(s, ev); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	e := New(s, withPolicies(testPolicies()), WithFloor(0.3), WithMetrics(reg),
		WithSightings(func() map[string]time.Time {
			return map[string]time.Time{sighted.UUID: t0.Add(80 * time.Hour)}
		}))
	if res, err := e.RunOnce(t0.Add(99 * time.Hour)); err != nil || res.Rescored != 1 || res.Expired != 1 || res.Refreshed != 1 {
		t.Fatalf("result = %+v, %v; want one rescore, one refresh, one expiry", res, err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	for _, line := range []string{
		fmt.Sprintf("caisp_lifecycle_rescored_total %d", st.Rescored),
		fmt.Sprintf("caisp_lifecycle_expired_total %d", st.Expired),
		fmt.Sprintf("caisp_lifecycle_sighting_refreshes_total %d", st.Refreshes),
		fmt.Sprintf("caisp_lifecycle_tracked %d", st.Tracked),
	} {
		if !strings.Contains(sb.String(), "\n"+line+"\n") {
			t.Errorf("exposition lacks %q:\n%s", line, sb.String())
		}
	}
}

func TestUnscoredAndMidPipelineEvents(t *testing.T) {
	s := openStore(t)
	// cioc without eioc: analyzer has not run; skipped until τ.
	cioc := misp.NewEvent("pending cluster", t0)
	cioc.AddTag("caisp:cioc")
	cioc.AddTag("caisp:category=\"botnet-c2\"")
	cioc.AddAttribute("domain", "Network activity", "pending.example", t0)
	// Plain unscored event (REST add): no decay attribute, ages out at τ.
	plain := misp.NewEvent("manual note", t0)
	plain.AddAttribute("comment", "Other", "analyst note", t0)
	for _, ev := range []*misp.Event{cioc, plain} {
		if err := putOne(s, ev); err != nil {
			t.Fatal(err)
		}
	}
	e := New(s, withPolicies(testPolicies()))

	// Young: both survive untouched.
	if _, err := e.RunOnce(t0.Add(50 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d after young scan, want 2", s.Len())
	}
	got, _ := s.Get(plain.UUID)
	if _, ok := heuristic.DecayedScoreOf(got); ok {
		t.Fatal("unscored event got a decayed-score attribute")
	}

	// Past the cluster τ (100h) but inside the unknown τ (200h): the
	// stale cluster expires, the plain event lives on.
	if _, err := e.RunOnce(t0.Add(150 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(cioc.UUID); err == nil {
		t.Fatal("stale unscored cluster survived past its lifetime")
	}
	if _, err := s.Get(plain.UUID); err != nil {
		t.Fatal("plain event expired before the unknown-category lifetime")
	}
	if _, err := e.RunOnce(t0.Add(250 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d past every lifetime, want 0", s.Len())
	}
}

// TestDecayIsPureOverSchedule is the batch-boundary property: however
// the scheduler chops the store into batches — and however often the
// engine is restarted with a fresh cursor — once every indicator has
// been visited at instant T, its decayed score is exactly
// quantize(Score(base, T - lastSighting, policy)).
func TestDecayIsPureOverSchedule(t *testing.T) {
	events := make([]*misp.Event, 60)
	for i := range events {
		base := 1.0 + float64(i%9)*0.45
		seen := t0.Add(time.Duration(i%13) * time.Hour)
		events[i] = eioc(fmt.Sprintf("ind-%03d", i), "botnet-c2", base, seen)
	}
	build := func() *storage.Store {
		s := openStore(t)
		for _, ev := range events {
			if err := putOne(s, ev.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	finalNow := t0.Add(40 * time.Hour)

	// Schedule A: one big batch, single engine.
	sa := build()
	ea := New(sa, withPolicies(testPolicies()), WithFloor(0.01), withBatchSize(1000))
	for i := 0; i < 3; i++ {
		if _, err := ea.RunOnce(finalNow); err != nil {
			t.Fatal(err)
		}
	}

	// Schedule B: batch of 7, clock creeping forward run by run, and an
	// engine restart (fresh cursor, empty history) midway. Finish with
	// full passes at finalNow so every indicator's latest visit is at T.
	sb := build()
	eb := New(sb, withPolicies(testPolicies()), WithFloor(0.01), withBatchSize(7))
	for i := 0; i < 10; i++ {
		if _, err := eb.RunOnce(t0.Add(time.Duration(20+i) * time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	eb = New(sb, withPolicies(testPolicies()), WithFloor(0.01), withBatchSize(7))
	for i := 0; i < 30; i++ {
		if _, err := eb.RunOnce(finalNow); err != nil {
			t.Fatal(err)
		}
	}

	pol := testPolicies()["botnet-c2"]
	for _, orig := range events {
		base, _ := heuristic.BaseScoreOf(orig)
		seen := orig.Timestamp.Time
		want := quantize(Score(base, finalNow.Sub(seen), pol))
		for name, s := range map[string]*storage.Store{"A": sa, "B": sb} {
			got, err := s.Get(orig.UUID)
			if err != nil {
				t.Fatalf("schedule %s lost %s", name, orig.Info)
			}
			d, ok := heuristic.DecayedScoreOf(got)
			if !ok || d != want {
				t.Fatalf("schedule %s: %s decayed=%v ok=%v, want %v",
					name, orig.Info, d, ok, want)
			}
		}
	}
}

func TestHistoryRingBoundedAndOrdered(t *testing.T) {
	s := openStore(t)
	ev := eioc("c2", "botnet-c2", 5.0, t0)
	if err := putOne(s, ev); err != nil {
		t.Fatal(err)
	}
	e := New(s, withPolicies(map[string]Policy{
		"botnet-c2": {Tau: 10000 * time.Hour, Delta: 1},
		"unknown":   {Tau: 10000 * time.Hour, Delta: 1},
	}), WithFloor(0.01), withHistoryDepth(4))
	for i := 1; i <= 12; i++ {
		if _, err := e.RunOnce(t0.Add(time.Duration(i*100) * time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	hist := e.History(ev.UUID)
	if len(hist) != 4 {
		t.Fatalf("ring holds %d samples, want depth 4", len(hist))
	}
	for i := 1; i < len(hist); i++ {
		if !hist[i].At.After(hist[i-1].At) {
			t.Fatalf("ring out of order: %+v", hist)
		}
		if hist[i].Score >= hist[i-1].Score {
			t.Fatalf("scores not decaying in ring: %+v", hist)
		}
	}
}

// TestPassEndsUnderIngestAndReachesLateImports: a pass ends at the
// change-log sequence it began at, so arrivals faster than the batch
// cannot chase it forever, and an indicator imported late with an old
// timestamp is still visited and expired. 64 stored indicators, batch
// 16, and a feed re-sending 32 indicators stamped with the current
// instant before every run; after the third run one indicator already
// past its lifetime arrives with an old timestamp.
func TestPassEndsUnderIngestAndReachesLateImports(t *testing.T) {
	s := openStore(t)
	note := func(info string, at time.Time) *misp.Event {
		ev := misp.NewEvent(info, at)
		ev.AddAttribute("comment", "Other", info, at)
		return ev
	}
	for i := 0; i < 64; i++ {
		if err := putOne(s, note(fmt.Sprintf("stored-%02d", i), t0)); err != nil {
			t.Fatal(err)
		}
	}
	feed := make([]*misp.Event, 32)
	for i := range feed {
		feed[i] = note(fmt.Sprintf("feed-%02d", i), t0)
	}
	late := note("late import", t0.Add(-300*time.Hour)) // unknown τ is 200h
	e := New(s, withPolicies(testPolicies()), withBatchSize(16))

	const runs = 5
	wrapped := 0
	for run := 1; run <= runs; run++ {
		now := t0.Add(time.Duration(run) * time.Minute)
		for _, ev := range feed {
			rev := ev.Clone()
			rev.Timestamp = misp.UnixTime{Time: now}
			if err := putOne(s, rev); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.RunOnce(now)
		if err != nil {
			t.Fatal(err)
		}
		if res.Wrapped {
			wrapped = run
			break
		}
		if run == 3 {
			if err := putOne(s, late); err != nil {
				t.Fatal(err)
			}
		}
	}
	if wrapped == 0 {
		t.Fatalf("no pass wrapped in %d runs under 32 arrivals per run and batch 16", runs)
	}
	if s.Has(late.UUID) {
		t.Fatalf("pass wrapped at run %d, but the late import past its lifetime is still stored", wrapped)
	}
}

// TestDecayedScoreWriteLogsAPatch: a re-score of a 200-attribute cluster
// on a durable store changes one attribute, and the WAL frame it appends
// is a patch on the stored revision, under 1 KB, both when the
// decayed-score attribute is added and when it is changed in place.
func TestDecayedScoreWriteLogsAPatch(t *testing.T) {
	s, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ev := eioc("cluster", "botnet-c2", 4.0, t0)
	for i := 0; i < 200; i++ {
		ev.AddAttribute("domain", "Network activity", fmt.Sprintf("member-%03d.example", i), t0)
	}
	if err := putOne(s, ev); err != nil {
		t.Fatal(err)
	}
	e := New(s, withPolicies(testPolicies()))
	for _, hours := range []time.Duration{20, 40} {
		before := s.Durability().WALBytes
		res, err := e.RunOnce(t0.Add(hours * time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rescored != 1 {
			t.Fatalf("after %dh: %+v, want one re-score", hours, res)
		}
		if n := s.Durability().WALBytes - before; n >= 1024 {
			t.Errorf("after %dh the re-score appended %d WAL bytes, want under 1024", hours, n)
		}
	}
}

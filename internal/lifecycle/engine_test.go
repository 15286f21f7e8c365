package lifecycle

import (
	"fmt"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/misp"
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

func testPolicies() map[string]Policy {
	return map[string]Policy{
		"botnet-c2": {Tau: 100 * time.Hour, Delta: 1},
		"unknown":   {Tau: 200 * time.Hour, Delta: 1},
	}
}

func TestRescoreLandsDecayedScoreWithoutBumpingTimestamp(t *testing.T) {
	s := openStore(t)
	ev := eioc("c2", "botnet-c2", 4.0, t0)
	if err := s.Put(ev); err != nil {
		t.Fatal(err)
	}
	e := New(s, WithPolicies(testPolicies()), WithFloor(0.3))

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
		if err := s.Put(ev); err != nil {
			t.Fatal(err)
		}
	}
	e := New(s, WithPolicies(testPolicies()), WithFloor(0.3))
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
	s := openStore(t)
	doomed := eioc("doomed", "botnet-c2", 4.0, t0)
	if err := s.Put(doomed); err != nil {
		t.Fatal(err)
	}
	var hooked []string
	e := New(s, WithPolicies(testPolicies()),
		WithExpireHook(func(uuid string) error {
			hooked = append(hooked, uuid)
			return s.Delete(uuid)
		}))
	if _, err := e.RunOnce(t0.Add(500 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if len(hooked) != 1 || hooked[0] != doomed.UUID {
		t.Fatalf("hook saw %v", hooked)
	}
}

func TestSightingRefreshResetsDecay(t *testing.T) {
	s := openStore(t)
	ev := eioc("c2", "botnet-c2", 4.0, t0)
	if err := s.Put(ev); err != nil {
		t.Fatal(err)
	}
	sighted := t0.Add(80 * time.Hour)
	e := New(s, WithPolicies(testPolicies()), WithFloor(0.3),
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
		if err := s.Put(ev); err != nil {
			t.Fatal(err)
		}
	}
	e := New(s, WithPolicies(testPolicies()))

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
			if err := s.Put(ev.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	finalNow := t0.Add(40 * time.Hour)

	// Schedule A: one big batch, single engine.
	sa := build()
	ea := New(sa, WithPolicies(testPolicies()), WithFloor(0.01), WithBatchSize(1000))
	for i := 0; i < 3; i++ {
		if _, err := ea.RunOnce(finalNow); err != nil {
			t.Fatal(err)
		}
	}

	// Schedule B: batch of 7, clock creeping forward run by run, and an
	// engine restart (fresh cursor, empty history) midway. Finish with
	// full passes at finalNow so every indicator's latest visit is at T.
	sb := build()
	eb := New(sb, WithPolicies(testPolicies()), WithFloor(0.01), WithBatchSize(7))
	for i := 0; i < 10; i++ {
		if _, err := eb.RunOnce(t0.Add(time.Duration(20+i) * time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	eb = New(sb, WithPolicies(testPolicies()), WithFloor(0.01), WithBatchSize(7))
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
	if err := s.Put(ev); err != nil {
		t.Fatal(err)
	}
	e := New(s, WithPolicies(map[string]Policy{
		"botnet-c2": {Tau: 10000 * time.Hour, Delta: 1},
		"unknown":   {Tau: 10000 * time.Hour, Delta: 1},
	}), WithFloor(0.01), WithHistoryDepth(4))
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

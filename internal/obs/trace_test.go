package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
)

func newTestTracer(t *testing.T) (*Tracer, *clock.Fake, *Registry) {
	t.Helper()
	clk := clock.NewFake(time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC))
	reg := NewRegistry()
	tr := NewTracer(reg, WithClock(clk))
	if tr == nil {
		t.Fatal("NewTracer returned nil for non-nil registry")
	}
	return tr, clk, reg
}

func TestTracerNilRegistry(t *testing.T) {
	if tr := NewTracer(nil); tr != nil {
		t.Fatal("nil registry should yield nil tracer")
	}
}

func TestTracerEndToEnd(t *testing.T) {
	tr, clk, _ := newTestTracer(t)

	tr.Start("evt")
	clk.Advance(10 * time.Millisecond)
	tr.Mark("evt", StageIngest)
	clk.Advance(20 * time.Millisecond)
	tr.Adopt("cluster", StageCorrelate, []string{"evt", "ghost"})
	clk.Advance(30 * time.Millisecond)
	tr.Mark("cluster", StageStore)
	clk.Advance(40 * time.Millisecond)
	tr.Mark("cluster", StageAnalyze)
	clk.Advance(50 * time.Millisecond)
	tr.Finish("cluster", StagePublish)

	if tr.Active() != 0 {
		t.Fatalf("active = %d after finish", tr.Active())
	}
	recs := tr.Slowest()
	if len(recs) != 1 {
		t.Fatalf("slowest = %d records", len(recs))
	}
	rec := recs[0]
	if rec.ID != "cluster" {
		t.Fatalf("trace finished under %q", rec.ID)
	}
	if rec.TotalMS != 150 {
		t.Fatalf("total = %gms, want 150", rec.TotalMS)
	}
	wantSpans := map[string]float64{
		StageIngest:    10,
		StageCorrelate: 20,
		StageStore:     30,
		StageAnalyze:   40,
		StagePublish:   50,
	}
	if len(rec.Stages) != len(wantSpans) {
		t.Fatalf("stages = %v", rec.Stages)
	}
	for _, s := range rec.Stages {
		if wantSpans[s.Stage] != s.MS {
			t.Fatalf("stage %s = %gms, want %g", s.Stage, s.MS, wantSpans[s.Stage])
		}
	}
}

func TestTracerAdoptKeepsEarliestMember(t *testing.T) {
	tr, clk, _ := newTestTracer(t)
	tr.Start("old")
	clk.Advance(time.Second)
	tr.Start("young")
	clk.Advance(time.Second)
	tr.Adopt("cluster", StageCorrelate, []string{"young", "old"})
	if tr.Active() != 1 {
		t.Fatalf("active = %d, want 1 (members merged)", tr.Active())
	}
	clk.Advance(time.Second)
	tr.Finish("cluster", StagePublish)
	recs := tr.Slowest()
	if len(recs) != 1 || recs[0].TotalMS != 3000 {
		t.Fatalf("adopted trace = %+v, want the 3s journey of the oldest member", recs)
	}
}

func TestTracerDropAndUnknownMarks(t *testing.T) {
	tr, clk, reg := newTestTracer(t)
	tr.Start("a")
	tr.Drop("a")
	if tr.Active() != 0 {
		t.Fatal("drop left trace active")
	}
	// Marks and finishes of unknown ids are ignored.
	tr.Mark("ghost", StageIngest)
	tr.Finish("ghost", StagePublish)
	clk.Advance(time.Millisecond)
	if got := tr.Slowest(); len(got) != 0 {
		t.Fatalf("slowest = %v", got)
	}
	_ = reg
}

func TestTracerEviction(t *testing.T) {
	tr, _, _ := newTestTracer(t)
	tr.maxActive = 2
	tr.Start("a")
	tr.Start("b")
	tr.Start("c") // evicts a
	if tr.Active() != 2 {
		t.Fatalf("active = %d, want 2", tr.Active())
	}
	tr.Mark("a", StageIngest) // ignored: evicted
	tr.Finish("a", StagePublish)
	if got := tr.Slowest(); len(got) != 0 {
		t.Fatalf("evicted trace finished: %v", got)
	}
}

func TestTracerKeepSlowest(t *testing.T) {
	tr, clk, _ := newTestTracer(t)
	tr.keep = 2
	for i, d := range []time.Duration{30, 10, 20, 40} {
		id := string(rune('a' + i))
		tr.Start(id)
		clk.Advance(d * time.Millisecond)
		tr.Finish(id, StagePublish)
	}
	recs := tr.Slowest()
	if len(recs) != 2 {
		t.Fatalf("kept %d records", len(recs))
	}
	if recs[0].TotalMS != 40 || recs[1].TotalMS != 30 {
		t.Fatalf("slowest = %g, %g; want 40, 30", recs[0].TotalMS, recs[1].TotalMS)
	}
}

func TestTracerHistogramsPopulated(t *testing.T) {
	tr, clk, reg := newTestTracer(t)
	tr.Start("x")
	clk.Advance(5 * time.Millisecond)
	tr.Mark("x", StageIngest)
	clk.Advance(5 * time.Millisecond)
	tr.Finish("x", StagePublish)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`caisp_trace_stage_seconds_count{stage="ingest"} 1`,
		`caisp_trace_stage_seconds_count{stage="publish"} 1`,
		"caisp_trace_end_to_end_seconds_count 1",
		"caisp_trace_finished_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestTracesHandler(t *testing.T) {
	tr, clk, _ := newTestTracer(t)
	tr.Start("j")
	clk.Advance(7 * time.Millisecond)
	tr.Finish("j", StagePublish)

	srv := httptest.NewServer(tr.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var recs []TraceRecord
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "j" || recs[0].TotalMS != 7 {
		t.Fatalf("traces = %+v", recs)
	}

	// A nil tracer's handler serves an empty array, not an error.
	var nilTr *Tracer
	srv2 := httptest.NewServer(nilTr.Handler())
	defer srv2.Close()
	resp2, err := srv2.Client().Get(srv2.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var empty []TraceRecord
	if err := json.NewDecoder(resp2.Body).Decode(&empty); err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatalf("nil tracer served %+v", empty)
	}
}

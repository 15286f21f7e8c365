package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestProvTableRecordAndLookupCopies(t *testing.T) {
	tab := NewProvTable(8)
	at := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	tab.RecordLocal("u1", "node0", at)

	got := tab.Lookup("u1")
	if got == nil || got.Origin != "node0" || got.IngestUnixNano != at.UnixNano() {
		t.Fatalf("local provenance = %+v", got)
	}
	// Lookup hands back a copy: mutating it must not leak into the table.
	got.Origin = "tampered"
	got.Hops = append(got.Hops, Hop{Node: "x"})
	if fresh := tab.Lookup("u1"); fresh.Origin != "node0" || len(fresh.Hops) != 0 {
		t.Fatalf("lookup aliases table state: %+v", fresh)
	}

	// Record replaces wholesale (the mesh import path) and clones its
	// input, so the caller may keep appending hops afterwards.
	fwd := &Provenance{Origin: "node0", OriginSeq: 42, IngestUnixNano: at.UnixNano(),
		Hops: []Hop{{Node: "node1", PulledUnixNano: at.Add(time.Second).UnixNano()}}}
	tab.Record("u1", fwd)
	fwd.Hops[0].Node = "tampered"
	stored := tab.Lookup("u1")
	if stored.OriginSeq != 42 || len(stored.Hops) != 1 || stored.Hops[0].Node != "node1" {
		t.Fatalf("record aliases caller slice: %+v", stored)
	}

	if tab.Lookup("unknown") != nil {
		t.Fatal("unknown uuid yielded provenance")
	}
}

func TestProvTableFIFOEviction(t *testing.T) {
	tab := NewProvTable(3)
	at := time.Unix(0, 0)
	for _, u := range []string{"a", "b", "c"} {
		tab.RecordLocal(u, "n", at)
	}
	// Re-recording an existing uuid must not evict anyone.
	tab.Record("a", &Provenance{Origin: "other"})
	if tab.Len() != 3 || tab.Lookup("a") == nil {
		t.Fatalf("replacement evicted: len=%d", tab.Len())
	}
	// A fourth distinct uuid evicts the oldest insertion (a).
	tab.RecordLocal("d", "n", at)
	if tab.Len() != 3 {
		t.Fatalf("len = %d, want 3", tab.Len())
	}
	if tab.Lookup("a") != nil {
		t.Fatal("oldest entry survived eviction")
	}
	for _, u := range []string{"b", "c", "d"} {
		if tab.Lookup(u) == nil {
			t.Fatalf("entry %q lost", u)
		}
	}
}

func TestProvTableNilSafe(t *testing.T) {
	var tab *ProvTable
	tab.RecordLocal("u", "n", time.Unix(0, 0))
	tab.Record("u", &Provenance{Origin: "n"})
	if tab.Lookup("u") != nil || tab.Len() != 0 {
		t.Fatal("nil table not inert")
	}
	var p *Provenance
	if p.Clone() != nil {
		t.Fatal("nil provenance clone not nil")
	}
}

func TestRecordImportHopLatencies(t *testing.T) {
	tr, clk, _ := newTestTracer(t)
	ingest := clk.Now()
	clk.Advance(5 * time.Second) // "now" on the terminal node

	p := &Provenance{
		Origin:         "node0",
		OriginSeq:      7,
		IngestUnixNano: ingest.UnixNano(),
		Hops: []Hop{
			{Node: "node1", PulledUnixNano: ingest.Add(2 * time.Second).UnixNano()},
			{Node: "node2", PulledUnixNano: ingest.Add(3500 * time.Millisecond).UnixNano()},
		},
	}
	tr.RecordImport("uuid-1", p)

	imports := tr.Imports()
	if len(imports) != 1 {
		t.Fatalf("imports = %d", len(imports))
	}
	rec := imports[0]
	if rec.ID != "uuid-1" || rec.Origin != "node0" || rec.OriginSeq != 7 {
		t.Fatalf("record identity = %+v", rec)
	}
	if rec.TotalMS != 5000 {
		t.Fatalf("total = %gms, want 5000", rec.TotalMS)
	}
	// First hop dwells since origin ingest, second since the first pull.
	if len(rec.Hops) != 2 || rec.Hops[0].MS != 2000 || rec.Hops[1].MS != 1500 {
		t.Fatalf("hop spans = %+v", rec.Hops)
	}
}

func TestRecordImportWithoutTimestamps(t *testing.T) {
	tr, _, _ := newTestTracer(t)
	// Pre-table upstream: no ingest time. Dwell is unknown, not zero.
	tr.RecordImport("uuid-2", &Provenance{Origin: "old-node",
		Hops: []Hop{{Node: "here", PulledUnixNano: 0}}})
	rec := tr.Imports()[0]
	if rec.TotalMS != 0 {
		t.Fatalf("fabricated e2e latency: %g", rec.TotalMS)
	}
	if len(rec.Hops) != 1 || rec.Hops[0].MS != -1 {
		t.Fatalf("hop spans = %+v, want unknown (-1)", rec.Hops)
	}
}

func TestImportsRingNewestFirst(t *testing.T) {
	tr, _, _ := newTestTracer(t)
	tr.keep = 2
	for _, id := range []string{"a", "b", "c"} {
		tr.RecordImport(id, &Provenance{Origin: "o"})
	}
	imports := tr.Imports()
	if len(imports) != 2 || imports[0].ID != "c" || imports[1].ID != "b" {
		t.Fatalf("ring = %+v, want [c b]", imports)
	}
}

func TestTracesHandlerServesImports(t *testing.T) {
	tr, clk, _ := newTestTracer(t)
	ingest := clk.Now()
	clk.Advance(time.Second)
	tr.RecordImport("uuid-3", &Provenance{Origin: "node0", OriginSeq: 9,
		IngestUnixNano: ingest.UnixNano(),
		Hops:           []Hop{{Node: "node1", PulledUnixNano: clk.Now().UnixNano()}}})

	srv := httptest.NewServer(tr.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var recs []TraceRecord
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range recs {
		if r.ID == "uuid-3" && r.Origin == "node0" && len(r.Hops) == 1 && r.Hops[0].Node == "node1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("import trace not served: %+v", recs)
	}
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		t.Fatalf("content type = %q", resp.Header.Get("Content-Type"))
	}
}

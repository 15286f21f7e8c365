package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
)

// walPayloads returns the payload of every committed frame in dir's WAL,
// oldest first.
func walPayloads(t *testing.T, dir string) [][]byte {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for i, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		frames, _, err := scanSegment(data, i == len(segs)-1)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			out = append(out, f.payload)
		}
	}
	return out
}

// formatEvent is an event with every part the encoder writes: loose and
// object attributes, tags, an organisation and strings json.Marshal
// escapes.
func formatEvent(t *testing.T, info string) *misp.Event {
	e := event(t, info+` <&> "quoted" naïve`, [2]string{"domain", info + ".example"}, [2]string{"ip-dst", "203.0.113.7"})
	e.AddTag(`caisp:category="malware-domain"`)
	e.Orgc = &misp.Org{UUID: "11111111-1111-4111-8111-111111111111", Name: "CAISP"}
	obj := e.AddObject("file", "file")
	obj.AddAttribute("filename", "Payload delivery", info+"\u2028.exe", now)
	return e
}

// wirePage encodes events as one change-feed page, the way a peer's
// server frames it.
func wirePage(t *testing.T, events ...*misp.Event) []byte {
	var buf bytes.Buffer
	buf.WriteByte('[')
	for i, e := range events {
		if i > 0 {
			buf.WriteByte(',')
		}
		data, err := misp.MarshalWrapped(e)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
	}
	buf.WriteByte(']')
	return buf.Bytes()
}

// importPage decodes a page and puts its events with the spans the
// decoder kept, as a mesh import does. fast says whether the page must
// take the decoder's fast path (spans) or its encoding/json fallback.
func importPage(t *testing.T, s *Store, page []byte, fast bool) []*misp.Event {
	t.Helper()
	items, err := misp.DecodeList(page)
	if err != nil {
		t.Fatal(err)
	}
	events := make([]*misp.Event, len(items))
	raw := make([][]byte, len(items))
	for i, it := range items {
		if (it.EventJSON != nil) != fast {
			t.Fatalf("page %.60q: span kept = %v, want %v", page, it.EventJSON != nil, fast)
		}
		events[i], raw[i] = it.Event, it.EventJSON
	}
	if _, err := s.PutBatch(events, raw); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestWALPutFrameFormat pins what a put frame holds. For a local Put, a
// local PutBatch and a page in the canonical wire encoding the payload is
// byte for byte json.Marshal of the walRecord — the format the log has
// always had. For a page the decoder takes through encoding/json, or one
// it accepts with foreign spacing, the payload decodes to the applied
// event. Reopening the store restores every event.
func TestWALPutFrameFormat(t *testing.T) {
	s, dir := openTemp(t)
	canonical := map[string]bool{}
	put := formatEvent(t, "put")
	if err := putOne(s, put); err != nil {
		t.Fatal(err)
	}
	batch := []*misp.Event{formatEvent(t, "batch-a"), formatEvent(t, "batch-b")}
	if _, err := s.PutBatch(batch, nil); err != nil {
		t.Fatal(err)
	}
	imported := importPage(t, s, wirePage(t, formatEvent(t, "page-a"), formatEvent(t, "page-b")), true)
	for _, e := range append(append([]*misp.Event{put}, batch...), imported...) {
		canonical[e.UUID] = true
	}

	// Foreign encodings: an unknown key sends the page to encoding/json;
	// indentation keeps it on the fast path with a non-canonical span.
	foreign := formatEvent(t, "foreign")
	wrapped, _ := misp.MarshalWrapped(foreign)
	importPage(t, s, []byte(`[`+string(bytes.Replace(wrapped, []byte(`{"Event":{`), []byte(`{"Event":{"extra":1,`), 1))+`]`), false)
	spaced := formatEvent(t, "spaced")
	indented, err := json.MarshalIndent(spaced, "\t", "  ")
	if err != nil {
		t.Fatal(err)
	}
	importPage(t, s, []byte("[ {\"Event\" :\n"+string(indented)+"\n} ]"), true)

	payloads := walPayloads(t, dir)
	if len(payloads) != 7 {
		t.Fatalf("%d WAL frames, want 7", len(payloads))
	}
	applied := map[string]*misp.Event{}
	for _, p := range payloads {
		var rec walRecord
		if err := json.Unmarshal(p, &rec); err != nil || rec.Op != "put" || rec.Event == nil {
			t.Fatalf("frame %q: %+v, %v", p, rec, err)
		}
		got, err := s.Get(rec.Event.UUID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rec.Event, got) {
			t.Errorf("frame of %s decodes to %+v, applied %+v", got.Info, rec.Event, got)
		}
		applied[got.UUID] = got
		if !canonical[got.UUID] {
			continue
		}
		want, err := json.Marshal(&walRecord{Seq: rec.Seq, Op: "put", Event: got})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, want) {
			t.Errorf("frame of %s:\n got %s\nwant %s", got.Info, p, want)
		}
	}
	if !canonical[put.UUID] || len(applied) != 7 {
		t.Fatalf("frames cover %d events, want 7", len(applied))
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for uuid, want := range applied {
		if got, err := r.Get(uuid); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("reopened %s = %+v, %v; want %+v", uuid, got, err, want)
		}
	}

	// A revision of a stored event is a patch on it: its frame carries
	// the base's sequence, the runs of attributes kept from it and the
	// event with only the others, here one inserted and one changed.
	p, pdir := openTemp(t)
	base := &misp.Event{UUID: "22222222-2222-4222-8222-222222222222", Info: "cluster", Date: "2019-06-24", ThreatLevelID: 4, Timestamp: misp.UT(now)}
	for i, v := range []string{"a.example", "b.example", "c.example"} {
		a := misp.NewAttribute("domain", "Network activity", v, now)
		a.UUID = fmt.Sprintf("33333333-3333-4333-8333-33333333333%d", i)
		base.Attributes = append(base.Attributes, a)
	}
	rev := base.Clone()
	rev.Attributes[2].Value = "d.example"
	added := misp.NewAttribute("ip-dst", "Network activity", "198.51.100.1", now)
	added.UUID = "44444444-4444-4444-8444-444444444444"
	rev.Attributes = slices.Insert(rev.Attributes, 1, added)
	for _, e := range []*misp.Event{base, rev} {
		if err := putOne(p, e); err != nil {
			t.Fatal(err)
		}
	}
	const patch = `{"seq":2,"op":"patch","base":1,"runs":[[0,0,1],[2,1,1]],"event":{"uuid":"22222222-2222-4222-8222-222222222222","info":"cluster","date":"2019-06-24","threat_level_id":4,"analysis":0,"distribution":0,"published":false,"timestamp":"1561377600","Attribute":[` +
		`{"uuid":"44444444-4444-4444-8444-444444444444","type":"ip-dst","category":"Network activity","value":"198.51.100.1","to_ids":true,"timestamp":"1561377600"},` +
		`{"uuid":"33333333-3333-4333-8333-333333333332","type":"domain","category":"Network activity","value":"d.example","to_ids":true,"timestamp":"1561377600"}]}}`
	if payloads := walPayloads(t, pdir); len(payloads) != 2 || string(payloads[1]) != patch {
		t.Fatalf("patch frame:\n got %s\nwant %s", payloads[len(payloads)-1], patch)
	}
	partial := *rev
	partial.Attributes = []misp.Attribute{rev.Attributes[1], rev.Attributes[3]}
	if want, err := json.Marshal(&walRecord{Seq: 2, Op: "patch", Base: 1, Runs: [][3]int{{0, 0, 1}, {2, 1, 1}}, Event: &partial}); err != nil || string(want) != patch {
		t.Fatalf("json.Marshal of the record = %s, %v", want, err)
	}
}

// TestPutBatchRefusesStaleRevision: a revision stamped at or before a
// deletion of its UUID that stood before the batch is neither installed,
// returned nor logged, while the rest of its batch is — a newer revision
// of the same UUID in the batch included.
func TestPutBatchRefusesStaleRevision(t *testing.T) {
	s, dir := openTemp(t)
	dead := event(t, "dead", [2]string{"domain", "dead.example"})
	back := event(t, "back", [2]string{"domain", "back.example"})
	if _, err := s.PutBatch([]*misp.Event{dead, back}, nil); err != nil {
		t.Fatal(err)
	}
	for _, e := range []*misp.Event{dead, back} {
		if err := s.DeleteAt(e.UUID, now.Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	frames := len(walPayloads(t, dir))
	fresh := event(t, "fresh", [2]string{"domain", "fresh.example"})
	revived := back.Clone()
	revived.Timestamp = misp.UT(now.Add(2 * time.Hour))
	seqs, err := s.PutBatch([]*misp.Event{dead, fresh, revived, back}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seqs[0] != 0 || seqs[1] == 0 || seqs[2] != seqs[1]+1 || seqs[3] != 0 {
		t.Fatalf("installed at %v, want fresh and revived at consecutive sequences", seqs)
	}
	if _, seq, err := s.GetSeq(fresh.UUID); err != nil || seq != seqs[1] {
		t.Fatalf("GetSeq(fresh) = %d, %v; want %d", seq, err, seqs[1])
	}
	if n := len(walPayloads(t, dir)); n != frames+2 {
		t.Fatalf("batch logged %d frames, want 2", n-frames)
	}
	if _, err := s.Get(dead.UUID); err == nil {
		t.Fatal("stale revision resurrected a deleted event")
	}
	if got, err := s.Get(back.UUID); err != nil || got.Timestamp != revived.Timestamp {
		t.Fatalf("back = %+v, %v; want the revived revision", got, err)
	}
	if seqs, err := s.PutBatch([]*misp.Event{dead}, nil); err != nil || seqs[0] != 0 {
		t.Fatalf("all-stale batch installed at %v, %v", seqs, err)
	}
	if n := len(walPayloads(t, dir)); n != frames+2 {
		t.Fatalf("all-stale batch logged %d frames", n-frames-2)
	}
}

// FuzzScanSegment feeds the WAL scanner arbitrary segment bytes, as a
// sealed and as the final segment. It must never panic; a final segment
// scans to a committed prefix within the data; and framing the frames it
// returns again reproduces exactly that prefix.
func FuzzScanSegment(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir, withSegmentSize(1<<30))
	if err != nil {
		f.Fatal(err)
	}
	e := event(f, "seed", [2]string{"domain", "seed.example"})
	if err := putOne(s, e); err != nil {
		f.Fatal(err)
	}
	if _, err := s.PutBatch([]*misp.Event{event(f, "a"), event(f, "b")}, nil); err != nil {
		f.Fatal(err)
	}
	if err := s.Delete(e.UUID); err != nil {
		f.Fatal(err)
	}
	s.Close()
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		f.Fatalf("segments %v, %v", segs, err)
	}
	seg, err := os.ReadFile(segs[0].path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-3])  // torn final frame
	f.Add(seg[:frameHdrLen]) // header only
	flipped := bytes.Clone(seg)
	flipped[frameHdrLen+2] ^= 0x20 // corrupt first payload, intact data after
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if frames, end, err := scanSegment(data, false); err == nil {
			if end != int64(len(data)) || !bytes.Equal(reframe(frames), data) {
				t.Fatalf("sealed scan of %q accepted %d of %d bytes", data, end, len(data))
			}
		}
		frames, end, err := scanSegment(data, true)
		if err != nil {
			return
		}
		if end < 0 || end > int64(len(data)) {
			t.Fatalf("committed end %d outside %d bytes", end, len(data))
		}
		if got := reframe(frames); !bytes.Equal(got, data[:end]) {
			t.Fatalf("re-framed %q, committed prefix %q", got, data[:end])
		}
	})
}

// reframe writes frames back out in the segment format.
func reframe(frames []walFrame) []byte {
	var out []byte
	for _, f := range frames {
		var flags byte
		if f.commit {
			flags = frameCommit
		}
		var hdr [frameHdrLen]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(f.payload)))
		binary.LittleEndian.PutUint32(hdr[4:], frameCRC(flags, f.payload))
		hdr[8] = flags
		out = append(append(out, hdr[:]...), f.payload...)
	}
	return out
}

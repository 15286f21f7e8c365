package misp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// pageEvent is one event shaped like those the platform stores: escaped
// tag, score comment, string-encoded timestamps.
func pageEvent(i int) *Event {
	at := time.Unix(1700000000+int64(i), 0)
	e := &Event{
		UUID:          fmt.Sprintf("00000000-0000-4000-8000-%012x", i),
		Info:          fmt.Sprintf("indicator %d", i),
		Date:          at.UTC().Format("2006-01-02"),
		ThreatLevelID: ThreatLevelUndefined,
		Distribution:  DistributionCommunity,
		Timestamp:     UT(at),
		Tags:          []Tag{{Name: `caisp:category="malware-domain"`}, {Name: "caisp:cioc", Colour: "#ff0000"}},
	}
	e.AddAttribute("domain", "Network activity", fmt.Sprintf("host-%d.example", i), at)
	e.AddAttribute("sha256", "Payload delivery", strings.Repeat("ab", 32), at)
	e.AddAttribute("comment", "Other", "threat-score: 2.5", at).Comment = "wrote by heuristic"
	e.Attributes[0].Tags = []Tag{{Name: "tlp:green"}}
	return e
}

// marshalPage encodes items the way the server frames a list.
func marshalPage(t testing.TB, items ...any) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteByte('[')
	for i, it := range items {
		if i > 0 {
			buf.WriteByte(',')
		}
		data, err := json.Marshal(it)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
	}
	buf.WriteString("]\n")
	return buf.Bytes()
}

type testTombstone struct {
	UUID      string `json:"uuid"`
	DeletedAt int64  `json:"deleted_at"`
}

// canonicalPages are pages as our own server emits them; every one must
// take the fast path.
func canonicalPages(t testing.TB) map[string][]byte {
	withObject := pageEvent(3)
	withObject.Orgc = &Org{UUID: "11111111-1111-4111-8111-111111111111", Name: "CAISP"}
	obj := withObject.AddObject("file", "file")
	obj.AddAttribute("filename", "Payload delivery", "naïve \u2028 \"quoted\".exe", time.Unix(1700000003, 0))
	zero := pageEvent(4)
	zero.Timestamp = UnixTime{}
	zero.Attributes, zero.Tags = nil, nil
	var hundred []any
	for i := 0; i < 100; i++ {
		hundred = append(hundred, Wrapped{Event: pageEvent(i)})
	}
	prov := map[string]any{"origin": "node-a", "origin_seq": 7, "hops": []map[string]any{{"node": "b", "pulled_unix_nano": 12}}}
	return map[string][]byte{
		"empty":     []byte("[]\n"),
		"events":    marshalPage(t, hundred...),
		"objects":   marshalPage(t, Wrapped{Event: withObject}, Wrapped{Event: zero}),
		"tombstone": marshalPage(t, Wrapped{Event: pageEvent(1)}, map[string]any{"EventTombstone": testTombstone{UUID: pageEvent(2).UUID, DeletedAt: 1700000100}}),
		"provenance": marshalPage(t,
			map[string]any{"Event": pageEvent(1), "Provenance": prov},
			map[string]any{"Event": pageEvent(2), "Provenance": nil}),
		"spaced": []byte(" [ { \"Event\" : { \"uuid\" : \"u\" , \"Attribute\" : [ ] , \"Tag\" : [ { } ] , \"published\" : true } } ] "),
	}
}

func stdlibList(data []byte) ([]ListItem, error) {
	var items []ListItem
	err := json.Unmarshal(data, &items)
	return items, err
}

func TestDecodeListAgreesWithStdlib(t *testing.T) {
	for name, page := range canonicalPages(t) {
		got, ok := decodeList(page, false)
		if !ok {
			t.Errorf("%s: fast path declined a canonical page", name)
			continue
		}
		checkSpans(t, got, true)
		want, err := stdlibList(page)
		if err != nil {
			t.Fatalf("%s: stdlib: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fast path and stdlib disagree:\n got %+v\nwant %+v", name, got, want)
		}
		viaAPI, err := DecodeList(page)
		checkSpans(t, viaAPI, true)
		if err != nil || !reflect.DeepEqual(viaAPI, want) {
			t.Errorf("%s: DecodeList = %v, disagrees with stdlib", name, err)
		}
	}
}

// foreignPages are inputs the fast path must decline or decode exactly
// as encoding/json does; DecodeList must answer as encoding/json does.
var foreignPages = []string{
	`[{"event":{"uuid":"u"}}]`,                              // lower-cased key
	`[{"Event":{"UUID":"u"}}]`,                              // upper-cased key
	`[{"Event":{"uuid":"a","uuid":"b"}}]`,                   // duplicate key
	`[{"Event":{"uuid":"a"},"Event":{"info":"b"}}]`,         // duplicate Event
	`[{"Event":{"uuid":7}}]`,                                // number for string
	`[{"Event":{"threat_level_id":"3"}}]`,                   // string for number
	`[{"Event":{"threat_level_id":3.0}}]`,                   // float for int
	`[{"Event":{"threat_level_id":1e2}}]`,                   // exponent
	`[{"Event":{"threat_level_id":01}}]`,                    // leading zero
	`[{"Event":{"threat_level_id":12345678901}}]`,           // more digits than the fast path reads
	`[{"Event":{"timestamp":1700000000}}]`,                  // bare timestamp
	`[{"Event":{"timestamp":""}}]`,                          // empty timestamp
	`[{"Event":{"timestamp":"00"}}]`,                        // not the zero time
	`[{"Event":{"timestamp":"-5"}}]`,                        // signed timestamp
	`[{"Event":{"timestamp":"12x"}}]`,                       // bad timestamp
	`[{"Event":{"published":"true"}}]`,                      // string for bool
	`[{"Event":{"published":truely}}]`,                      // bad literal
	`[{"Event":null}]`,                                      // null event
	`[{"Event":{"uuid":null}}]`,                             // null string
	`[{"Event":{"Attribute":null,"Tag":null}}]`,             // null lists
	`[{"Event":{"uuid":"u","extra":1}}]`,                    // unknown key
	`[{"Event":{"uuid":"u"},"Other":1}]`,                    // unknown sibling
	`[{"Event":{"uuid":"u"}},]`,                             // trailing comma
	`[{"Event":{"uuid":"u",}}]`,                             // trailing comma in object
	`[{"Event":{"uuid":"u"}}] x`,                            // trailing bytes
	`[{"Event":{"uuid":"u"}}][]`,                            // trailing value
	`null`,                                                  // no list
	`{"Event":{"uuid":"u"}}`,                                // not a list
	`[1,"a",null]`,                                          // scalars for items
	`[{"Event":{"info":"tab\there"}}]`,                      // escape
	"[{\"Event\":{\"info\":\"raw\x01control\"}}]",           // control byte
	"[{\"Event\":{\"info\":\"bad\xffutf8 \xe2\x80\xa8\"}}]", // invalid UTF-8, U+2028
	`[{"Event":{"info":"\ud800 lone surrogate \u00e9"}}]`,
	`[{"Event":{"info":"bad \x escape"}}]`,
	`[{"Event":{"uu\u0069d":"escaped key"}}]`,
	`[{"Event":{"uuid":"u"},"Provenance":{"origin":"a",}}]`, // invalid raw sibling
	`[{"Event":{"uuid":"u"},"Provenance":}]`,                // missing raw sibling
	`[{"Event":{"uuid":"u"},"Provenance": 12 }]`,            // scalar raw sibling
	`[{"EventTombstone":"x","Provenance":[1,{"a":"]"}]}]`,   // closers inside strings
	`[{"Event":{"Orgc":{"uuid":1}}}]`,                       // wrong type below Orgc
	`[{"Event":{"Orgc":null,"Object":[]}}]`,
	`[{"Event":{"Object":[{"uuid":"o","Attribute":[{"uuid":"a","uuid":"b"}]}]}}]`,
	`[{"Provenance":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}]`,
	`[{"Provenance":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}]`,
}

func TestDecodeListForeignInput(t *testing.T) {
	for _, in := range foreignPages {
		checkAgainstStdlib(t, []byte(in))
	}
	// Every truncation of a valid page.
	page := canonicalPages(t)["objects"]
	for n := range page {
		checkAgainstStdlib(t, page[:n])
	}
}

// checkAgainstStdlib is the decoder's contract: what the fast path
// accepts, encoding/json accepts with an equal result, and each item's
// event span decodes to its Event; DecodeList answers as encoding/json
// does either way, with spans only where the fast path took the page.
func checkAgainstStdlib(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := stdlibList(data)
	got, fast := decodeList(data, false)
	if fast {
		if wantErr != nil {
			t.Fatalf("fast path accepted %q, stdlib says %v", data, wantErr)
		}
		checkSpans(t, got, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fast path disagrees on %q:\n got %+v\nwant %+v", data, got, want)
		}
	}
	got, err := DecodeList(data)
	checkSpans(t, got, fast)
	if (err != nil) != (wantErr != nil) || err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeList(%q) = %+v, %v; stdlib %+v, %v", data, got, err, want, wantErr)
	}
}

// checkSpans asserts that every item's event span decodes, by
// encoding/json, to an Event equal to its own — what recovery relies on
// when it replays a WAL frame spliced from the span — and then clears the
// spans, which encoding/json never sets, so the items compare with its
// answer. fast says whether the items came off the fast path: those carry
// a span with every event, stdlib-decoded items carry none.
func checkSpans(t testing.TB, items []ListItem, fast bool) {
	t.Helper()
	for i := range items {
		it := &items[i]
		if (it.EventJSON != nil) != (fast && it.Event != nil) {
			t.Fatalf("item %d: span %q with event %+v on the fast path = %v", i, it.EventJSON, it.Event, fast)
		}
		if it.EventJSON == nil {
			continue
		}
		var e *Event
		if err := json.Unmarshal(it.EventJSON, &e); err != nil || !reflect.DeepEqual(e, it.Event) {
			t.Fatalf("item %d: span %q decodes to %+v, %v; want %+v", i, it.EventJSON, e, err, it.Event)
		}
		it.EventJSON = nil
	}
}

func FuzzDecodeList(f *testing.F) {
	for _, page := range canonicalPages(f) {
		if len(page) < 4096 {
			f.Add(page)
		}
	}
	for _, in := range foreignPages {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstStdlib(t, data)
		// The same contract for the single-event entry point.
		e, err := UnmarshalWrapped(data)
		want, wantErr := stdlibWrapped(data)
		if (err != nil) != (wantErr != nil) || !reflect.DeepEqual(e, want) {
			t.Fatalf("UnmarshalWrapped(%q) = %+v, %v; stdlib %+v, %v", data, e, err, want, wantErr)
		}
	})
}

// stdlibWrapped is UnmarshalWrapped as encoding/json alone defines it.
func stdlibWrapped(data []byte) (*Event, error) {
	var w Wrapped
	if err := json.Unmarshal(data, &w); err == nil && w.Event != nil {
		return w.Event, nil
	}
	var e Event
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, err
	}
	if e.UUID == "" {
		return nil, fmt.Errorf("no uuid")
	}
	return &e, nil
}

func TestUnmarshalWrappedShapes(t *testing.T) {
	e := pageEvent(1)
	wrapped, _ := MarshalWrapped(e)
	bare, _ := json.Marshal(e)
	for _, tc := range []struct {
		name, in string
		want     *Event
		fast     bool
	}{
		{"wrapped", string(wrapped), e, true},
		{"bare", string(bare), e, true},
		{"wrapped with sibling", `{"Provenance":{"origin":"a"},"Event":` + string(bare) + `}`, e, true},
		{"wrapped, foreign casing", `{"event":` + string(bare) + `}`, e, false},
		{"bare, unknown key", `{"uuid":"` + e.UUID + `","x":1}`, &Event{UUID: e.UUID}, false},
		{"wrapped without uuid", `{"Event":{"info":"i"}}`, &Event{Info: "i"}, false},
		{"neither", `{"Provenance":{}}`, nil, false},
		{"empty object", `{}`, nil, false},
		{"tombstone only", `{"EventTombstone":{"uuid":"u"}}`, nil, false},
		{"not an object", `[]`, nil, false},
		{"string threat level", `{"uuid":"u","threat_level_id":"3"}`, nil, false},
		{"truncated", string(wrapped[:len(wrapped)-1]), nil, false},
	} {
		got, err := UnmarshalWrapped([]byte(tc.in))
		if (tc.want == nil) != (err != nil) || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: UnmarshalWrapped = %+v, %v; want %+v", tc.name, got, err, tc.want)
		}
		d := decoder{data: []byte(tc.in)}
		if ev := d.wrappedOrBare(); (d.atEnd() && ev.UUID != "") != tc.fast {
			t.Errorf("%s: fast path taken = %v, want %v", tc.name, !tc.fast, tc.fast)
		}
	}
}

func TestUnmarshalWrappedList(t *testing.T) {
	a, b := pageEvent(1), pageEvent(2)
	wrappedA, _ := MarshalWrapped(a)
	bareB, _ := json.Marshal(b)
	mixed := "[" + string(wrappedA) + "," + string(bareB) + "]"
	if _, ok := decodeList([]byte(mixed), true); !ok {
		t.Error("fast path declined a canonical batch")
	}
	events, rejected, err := UnmarshalWrappedList([]byte(mixed))
	if err != nil || len(rejected) != 0 || !reflect.DeepEqual(events, []*Event{a, b}) {
		t.Fatalf("mixed batch = %+v, %v, %v", events, rejected, err)
	}
	// One bad element is rejected on its own; the rest still decode.
	events, rejected, err = UnmarshalWrappedList([]byte(`[` + string(wrappedA) + `,{},{"uuid":"u","threat_level_id":"3"},` + string(bareB) + `]`))
	if err != nil || len(rejected) != 2 || !reflect.DeepEqual(events, []*Event{a, b}) {
		t.Fatalf("batch with rejects = %+v, %v, %v", events, rejected, err)
	}
	if _, _, err := UnmarshalWrappedList([]byte(`{"Event":{}}`)); err == nil {
		t.Error("a non-array batch decoded")
	}
}

// BenchmarkDecodeList is the client's cost of one 100-event change-feed
// page: the fast path against encoding/json on the same bytes.
func BenchmarkDecodeList(b *testing.B) {
	page := canonicalPages(b)["events"]
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(len(page)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := decodeList(page, false); !ok {
				b.Fatal("declined")
			}
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.SetBytes(int64(len(page)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := stdlibList(page); err != nil {
				b.Fatal(err)
			}
		}
	})
}

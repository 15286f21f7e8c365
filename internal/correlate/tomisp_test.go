package correlate

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/uuid"
)

// TestAttributeType: every normalized IoC type maps onto the MISP
// attribute type it is stored as, and a type without one onto "text".
func TestAttributeType(t *testing.T) {
	for typ, want := range map[normalize.IoCType]string{
		normalize.TypeIPv4:      "ip-dst",
		normalize.TypeIPv6:      "ip-dst",
		normalize.TypeCIDR:      "ip-dst",
		normalize.TypeDomain:    "domain",
		normalize.TypeURL:       "url",
		normalize.TypeEmail:     "email-dst",
		normalize.TypeMD5:       "md5",
		normalize.TypeSHA1:      "sha1",
		normalize.TypeSHA256:    "sha256",
		normalize.TypeSHA512:    "sha512",
		normalize.TypeCVE:       "vulnerability",
		normalize.TypeFilename:  "filename",
		normalize.TypeUnknown:   "text",
		normalize.IoCType(""):   "text",
		normalize.IoCType("as"): "text",
	} {
		if got := AttributeType(typ); got != want {
			t.Errorf("AttributeType(%q) = %q, want %q", typ, got, want)
		}
	}
}

// script hands out the fuzzer's choices one byte at a time, then zeros.
type script []byte

func (s *script) pick(n int) int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b) % n
}

// scriptedEvent builds a member from the script: an indicator of one of
// several types on a few shared hosts and networks, with or without
// LastSeen, description, merged sources, a classifier verdict, and an
// advisory's publication date, vector, OS, products and references.
func scriptedEvent(t *testing.T, s *script, n int) normalize.Event {
	values := []string{
		fmt.Sprintf("h%d.dom%d.example", n, s.pick(3)),
		fmt.Sprintf("198.51.%d.%d", s.pick(2), n%250+1),
		fmt.Sprintf("http://h%d.dom%d.example/p", n, s.pick(3)),
		fmt.Sprintf("CVE-2017-%d", 1000+n),
		fmt.Sprintf("%032x", n),
	}
	seen := time.Date(2019, 6, 1, 0, 0, 0, s.pick(3)*500_000_000, time.UTC).Add(time.Duration(s.pick(48)) * time.Hour)
	e, err := normalize.New(values[s.pick(len(values))], normalize.CategoryMalwareDomain, "feed-a", normalize.SourceOSINT, seen)
	if err != nil {
		t.Fatal(err)
	}
	if s.pick(4) == 0 {
		e.LastSeen = time.Time{}
	}
	e.Context = map[string]string{}
	for k, v := range map[string]string{
		"description":           "seen in the wild",
		"sources":               "feed-a,feed-b",
		"classified_as":         "malware-domain",
		"classifier_confidence": "0.91",
		"published":             []string{"2017-09-13", "not-a-date"}[s.pick(2)],
		"cvss-vector":           "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H",
		"os":                    "debian",
		"products":              "apache struts",
		"references":            "https://a.example/1, ,https://b.example/2",
	} {
		if s.pick(2) == 0 {
			e.Context[k] = v
		}
	}
	return e
}

// FuzzToMISPSplice grows, merges and re-stamps random clusters and
// splices each revision from the one stored before it: as the flush
// left it, reloaded from its JSON (second timestamps), scored, or
// replaced through REST with an altered, inserted or dropped attribute.
// The splice must equal the full ToMISP with attribute UUIDs blanked,
// leave the stored revision untouched, keep a UUID only on an attribute
// the stored revision carries field for field, and keep every UUID of a
// member it carries unaltered.
func FuzzToMISPSplice(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte("grow, merge and re-stamp a few clusters, then replace them"))
	f.Add([]byte{3, 200, 7, 7, 7, 1, 2, 250, 9, 64, 33, 5, 5, 5, 0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := script(data)
		inc := NewIncremental()
		stored := make(map[string]*misp.Event)
		composed := make(map[string]ComposedIoC) // what each stored revision rendered
		stamps := make(map[string]time.Time)
		now := time.Date(2019, 6, 24, 12, 0, 0, 0, time.UTC)
		n := 0
		for step := 0; step < 8; step++ {
			var batch []normalize.Event
			for k := 1 + s.pick(3); k > 0; k-- {
				batch = append(batch, scriptedEvent(t, &s, n))
				n++
			}
			now = now.Add(time.Duration(s.pick(2)) * 1500 * time.Millisecond)
			d := inc.Add(batch)
			for _, id := range d.Removed {
				delete(stored, id)
			}
			for _, c := range append(d.New, d.Updated...) {
				prev, mode := stored[c.ID], s.pick(6)
				if prev != nil {
					prev = storedAs(t, &s, prev, mode)
				}
				frozen := prev.Clone()
				got, err := Splice(&c, prev, now)
				if err != nil {
					t.Fatal(err)
				}
				// One allocation: a slot for the score is always left, and
				// where every member renders one attribute the render
				// never regrew the slice.
				had := 0
				if prev != nil {
					had = len(prev.Attributes)
				}
				if n := len(got.Attributes); cap(got.Attributes) == n ||
					n == len(c.Events) && cap(got.Attributes) != max(n, had)+1 {
					t.Fatalf("Splice sized %d for %d attributes (%d stored)", cap(got.Attributes), n, had)
				}
				want, err := ToMISP(&c, now)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(prev, frozen) {
					t.Fatal("Splice modified the stored revision")
				}
				if a, b := blankAttributeUUIDs(got), blankAttributeUUIDs(want); !reflect.DeepEqual(a, b) {
					t.Fatalf("splice differs from ToMISP:\n%+v\n%+v", a, b)
				}
				kept := make(map[string]bool)
				for _, a := range got.Attributes {
					kept[a.UUID] = true
				}
				if prev != nil {
					for _, b := range prev.Attributes {
						for _, a := range got.Attributes {
							if a.UUID == b.UUID && !sameAttribute(a, b) {
								t.Fatalf("kept the UUID of an attribute it re-rendered:\n%+v\n%+v", a, b)
							}
						}
					}
				}
				if prev != nil && mode <= 2 { // untouched by REST
					checkStable(t, &c, composed[c.ID], prev, stamps[c.ID], kept, mode == 1)
				}
				stored[c.ID], composed[c.ID], stamps[c.ID] = got, c, now
			}
		}
	})
}

// storedAs returns the revision the store would hold for prev after the
// given mode: 0 as the flush stored it, 1 reloaded from its JSON, 2 with
// a threat score appended, 3 to 5 replaced through REST with an altered,
// an inserted or a dropped attribute.
func storedAs(t *testing.T, s *script, prev *misp.Event, mode int) *misp.Event {
	switch mode {
	case 0:
		return prev
	case 1:
		data, err := misp.MarshalWrapped(prev)
		if err != nil {
			t.Fatal(err)
		}
		var w misp.Wrapped
		if err := json.Unmarshal(data, &w); err != nil {
			t.Fatal(err)
		}
		return w.Event
	}
	e := prev.Clone()
	at := s.pick(len(e.Attributes))
	switch mode {
	case 2:
		e.AddAttribute("comment", "Other", "threat-score:3.50", e.Timestamp.Time)
	case 3:
		a := &e.Attributes[at]
		switch s.pick(7) {
		case 0:
			a.Value += "x"
		case 1:
			a.Comment += "x"
		case 2:
			a.Timestamp = misp.UT(a.Timestamp.Add(time.Second))
		case 3:
			a.Type = "text"
		case 4:
			a.Category = "Other"
		case 5:
			a.ToIDS = !a.ToIDS
		default:
			a.Tags = []misp.Tag{{Name: "tlp:amber"}}
		}
	case 4:
		extra := e.Attributes[s.pick(len(e.Attributes))]
		extra.UUID = uuid.NewV4().String()
		e.Attributes = append(e.Attributes[:at:at], append([]misp.Attribute{extra}, e.Attributes[at:]...)...)
	default:
		e.Attributes = append(e.Attributes[:at:at], e.Attributes[at+1:]...)
	}
	return e
}

// checkStable: every member of the stored revision that c still holds
// keeps its attributes' UUIDs, unless it has no LastSeen or (reloaded)
// a timestamp the JSON cut to the second.
func checkStable(t *testing.T, c *ComposedIoC, before ComposedIoC, prev *misp.Event, at time.Time, kept map[string]bool, reloaded bool) {
	members := make(map[string]bool, len(c.Events))
	for _, ev := range c.Events {
		members[ev.ID] = true
	}
	off := 0
	for _, ev := range before.Events {
		span := appendMember(nil, ev, at, "")
		stable := members[ev.ID] && !ev.LastSeen.IsZero()
		for k := range span {
			if reloaded && span[k].Timestamp.Nanosecond() != 0 {
				stable = false
			}
		}
		for k := range span {
			if uuid := prev.Attributes[off+k].UUID; stable && !kept[uuid] {
				t.Fatalf("member %s (%s) lost attribute UUID %s", ev.ID, ev.Value, uuid)
			}
		}
		off += len(span)
	}
}

func blankAttributeUUIDs(e *misp.Event) *misp.Event {
	e = e.Clone()
	for i := range e.Attributes {
		e.Attributes[i].UUID = ""
	}
	return e
}

func sameAttribute(a, b misp.Attribute) bool {
	same := a.Timestamp.Equal(b.Timestamp.Time)
	a.UUID, b.UUID = "", ""
	a.Timestamp, b.Timestamp = misp.UnixTime{}, misp.UnixTime{}
	return same && reflect.DeepEqual(a, b)
}

// TestSpliceSharesUnchangedComments: the comment of a member the stored
// revision carries unchanged is checked against the stored one, not
// built again.
func TestSpliceSharesUnchangedComments(t *testing.T) {
	e := ev(t, "a.evil.example", normalize.CategoryMalwareDomain)
	e.Context = map[string]string{"description": "seen in the wild", "sources": "feed-a,feed-b"}
	c := ComposedIoC{ID: "cluster", Category: e.Category, Events: []*normalize.Event{&e}}
	prev, err := ToMISP(&c, seen)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Splice(&c, prev, seen)
	if err != nil {
		t.Fatal(err)
	}
	a, b := got.Attributes[0].Comment, prev.Attributes[0].Comment
	if a != b || unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatalf("comment %q built again beside the stored %q", a, b)
	}
}

// TestMemberTypeInvertsAttributeType: every indicator type reads back from
// the attribute type it is stored as, with a value of its shape.
func TestMemberTypeInvertsAttributeType(t *testing.T) {
	for typ, value := range map[normalize.IoCType]string{
		normalize.TypeIPv4:     "198.51.100.7",
		normalize.TypeIPv6:     "2001:db8::1",
		normalize.TypeCIDR:     "198.51.100.0/24",
		normalize.TypeDomain:   "evil.example",
		normalize.TypeURL:      "http://evil.example/p",
		normalize.TypeEmail:    "a@evil.example",
		normalize.TypeMD5:      strings.Repeat("a", 32),
		normalize.TypeSHA1:     strings.Repeat("a", 40),
		normalize.TypeSHA256:   strings.Repeat("a", 64),
		normalize.TypeSHA512:   strings.Repeat("a", 128),
		normalize.TypeCVE:      "CVE-2017-9805",
		normalize.TypeFilename: "dropper.exe",
	} {
		if got, ok := MemberType(&misp.Attribute{Type: AttributeType(typ), Value: value}); !ok || got != typ {
			t.Errorf("MemberType(%s %q) = %q, %v; want %q", AttributeType(typ), value, got, ok, typ)
		}
	}
	if _, ok := MemberType(&misp.Attribute{Type: "text", Value: "os:debian"}); ok {
		t.Error("a context text attribute read back as a member")
	}
}

// TestSpliceHeadsTheEventAsNewEvent: the composed event's header is the
// one misp.NewEvent builds, under the cluster's UUID.
func TestSpliceHeadsTheEventAsNewEvent(t *testing.T) {
	e := ev(t, "a.evil.example", normalize.CategoryMalwareDomain)
	c := ComposedIoC{ID: uuid.NewV4().String(), Category: e.Category, Events: []*normalize.Event{&e}}
	got, err := ToMISP(&c, seen)
	if err != nil {
		t.Fatal(err)
	}
	want := misp.NewEvent(composedInfo(&c), seen)
	want.UUID, want.Tags, want.Attributes = c.ID, got.Tags, got.Attributes
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("composed event\n%+v\nwant NewEvent's\n%+v", got, want)
	}
}

// TestSpliceAllocatesOnce: a revision of one-attribute members is
// allocated once, one slot per member plus the score's, and the
// analyzer's score attribute lands in that slot without a regrowth.
func TestSpliceAllocatesOnce(t *testing.T) {
	c := ComposedIoC{ID: clusterUUID(normalize.CategoryMalwareDomain, "seed"), Category: normalize.CategoryMalwareDomain}
	for i := 0; i < 10; i++ {
		e, err := normalize.New(fmt.Sprintf("m%d.example", i), normalize.CategoryMalwareDomain, "feed-a", normalize.SourceOSINT, seen)
		if err != nil {
			t.Fatal(err)
		}
		c.Events = append(c.Events, &e)
	}
	me, err := ToMISP(&c, seen)
	if err != nil {
		t.Fatal(err)
	}
	if len(me.Attributes) != 10 || cap(me.Attributes) != 11 {
		t.Fatalf("ToMISP sized %d for %d attributes, want 11 for 10", cap(me.Attributes), len(me.Attributes))
	}
	first := &me.Attributes[0]
	me.AddAttribute("text", "Other", "threat-score:0.5", seen)
	if &me.Attributes[0] != first {
		t.Fatal("the score attribute regrew the revision's attributes")
	}
}

package correlate

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
)

// carriedMember is scriptedEvent, sometimes of no known type with a value
// that decorates a vulnerability (os:, products:), and sometimes in one of
// two campaigns, which merges clusters.
func carriedMember(t *testing.T, s *script, n int) normalize.Event {
	e := scriptedEvent(t, s, n)
	if s.pick(5) == 0 {
		e.Type = normalize.TypeUnknown
		e.Value = []string{"os:debian ", "products:apache "}[s.pick(2)] + fmt.Sprint(n)
	}
	if s.pick(2) == 0 {
		e.Context["campaign"] = fmt.Sprintf("c%d", s.pick(2))
	}
	return e
}

// FuzzRenderCarried grows and merges random clusters as the flush does:
// each revision is rendered from the base the correlator handed out with
// the cluster, against the revision committed last (its score attribute
// appended or not), and then becomes the cluster's base. The carried
// render must equal the full one (no base) attribute for attribute, with
// the same attributes keeping the stored revision's UUIDs and the same
// member starts, and every range it reports copied must be a verbatim
// copy of the stored revision's.
func FuzzRenderCarried(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte("grow clusters one member at a time and merge them by campaign"))
	f.Add([]byte{2, 0, 1, 3, 0, 0, 1, 1, 2, 2, 0, 3, 1, 0, 4, 0, 0, 2, 1, 1, 3, 0, 2, 2, 4, 1, 0, 0, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := script(data)
		inc := NewIncremental()
		stored := make(map[string]*misp.Event)
		now := time.Date(2019, 6, 24, 12, 0, 0, 0, time.UTC)
		n := 0
		for step := 0; step < 10; step++ {
			var batch []normalize.Event
			for k := 1 + s.pick(3); k > 0; k-- {
				batch = append(batch, carriedMember(t, &s, n))
				n++
			}
			now = now.Add(time.Duration(s.pick(2)) * 1500 * time.Millisecond)
			d := inc.Add(batch)
			for _, id := range d.Removed {
				delete(stored, id)
			}
			for _, c := range append(d.New, d.Updated...) {
				prev := stored[c.ID]
				if c.Base != nil && prev == nil {
					t.Fatalf("cluster %s handed out a base with no revision stored", c.ID)
				}
				full := c
				full.Base = nil
				want, err := Render(&full, prev, now)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Render(&c, prev, now)
				if err != nil {
					t.Fatal(err)
				}
				checkCarried(t, prev, got, want)
				me := got.Event
				if s.pick(2) == 0 {
					me.AddAttribute("text", "Other", "threat-score:3.50", now)
				}
				stored[c.ID] = me
				inc.Rebase(&c, &Base{Seq: 1, Events: c.Events, Starts: got.Starts})
			}
		}
	})
}

// checkCarried compares a carried render with the full one of the same
// cluster against the same stored revision prev.
func checkCarried(t *testing.T, prev *misp.Event, got, want Revision) {
	t.Helper()
	if a, b := blankAttributeUUIDs(got.Event), blankAttributeUUIDs(want.Event); !reflect.DeepEqual(a, b) {
		t.Fatalf("carried render differs from the full one:\n%+v\n%+v", a, b)
	}
	if !reflect.DeepEqual(got.Starts, want.Starts) {
		t.Fatalf("member starts %v, want %v", got.Starts, want.Starts)
	}
	stored := make(map[string]bool)
	if prev != nil {
		for _, a := range prev.Attributes {
			stored[a.UUID] = true
		}
	}
	for i, a := range want.Event.Attributes {
		g := got.Event.Attributes[i].UUID
		if stored[a.UUID] != stored[g] || stored[a.UUID] && a.UUID != g {
			t.Fatalf("attribute %d (%s %s): carried UUID %s, full %s (kept from the stored revision: %v, %v)",
				i, a.Type, a.Value, g, a.UUID, stored[g], stored[a.UUID])
		}
	}
	carried := 0
	for _, r := range got.Copied {
		for j := 0; j < r.Len; j++ {
			if !reflect.DeepEqual(got.Event.Attributes[r.At+j], prev.Attributes[r.From+j]) {
				t.Fatalf("copied attribute %d differs from stored attribute %d", r.At+j, r.From+j)
			}
		}
		carried += r.Len
	}
	if got.Carried > carried || got.Carried > 0 && len(got.Copied) == 0 {
		t.Fatalf("%d members carried in %d copied attributes", got.Carried, carried)
	}
}

package storage

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"github.com/caisplatform/caisp/internal/misp"
)

// correlatedAllValues is the reference the table test compares against:
// correlation over every attribute value of the query event, bookkeeping
// included, by a full scan.
func correlatedAllValues(s *Store, e *misp.Event) []string {
	var values []string
	for _, a := range allAttributes(e) {
		values = append(values, a.Value)
	}
	return correlatedScan(s, e, values)
}

// correlatedScan is the full-scan reference for Correlated: the UUIDs of
// stored events other than e that carry any of values, in order.
func correlatedScan(s *Store, e *misp.Event, values []string) []string {
	seen := make(map[string]bool)
	s.mu.RLock()
	s.forEach(func(uuid string, se *storedEvent) {
		if uuid == e.UUID {
			return
		}
		for _, oa := range allAttributes(se.event) {
			if slices.Contains(values, oa.Value) {
				seen[uuid] = true
				return
			}
		}
	})
	s.mu.RUnlock()
	var out []string
	for uuid := range seen {
		out = append(out, uuid)
	}
	sort.Strings(out)
	return out
}

// scored returns an event the way the analyzer re-stores an eIoC: the
// given indicator attributes plus the score write-back and context text.
func scored(t testing.TB, info string, attrs ...[2]string) *misp.Event {
	t.Helper()
	e := event(t, info, attrs...)
	e.AddAttribute("text", "Other", "os:linux", now)
	e.AddAttribute("text", "Other", "products:apache", now)
	e.AddAttribute("text", "Other", "classification:phishing confidence:0.91", now)
	e.AddAttribute("cvss-vector", "External analysis", "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", now)
	e.AddAttribute("comment", "Other", "threat-score:0.6250", now)
	e.AddAttribute("comment", "Other", "decayed-score:0.3125", now)
	return e
}

func TestCorrelatedIgnoresBookkeeping(t *testing.T) {
	domain := scored(t, "domain", [2]string{"domain", "shared.example"})
	host := scored(t, "host", [2]string{"hostname", "shared.example"}, [2]string{"ip-dst", "198.51.100.7"})
	ip := scored(t, "ip", [2]string{"ip-dst", "198.51.100.7"})
	object := misp.NewEvent("object", now)
	object.AddObject("vulnerability", "vulnerability").
		AddAttribute("vulnerability", "External analysis", "CVE-2021-44228", now)
	freeText := event(t, "free text", [2]string{"text", "ET TROJAN beacon"})
	lonely := scored(t, "lonely", [2]string{"domain", "lonely.example"})
	stored := []*misp.Event{domain, host, ip, object, freeText, lonely}

	tests := []struct {
		name  string
		query *misp.Event
		want  []*misp.Event
		// was lists what the all-values lookup answered when it differs.
		was []*misp.Event
	}{
		{name: "shared domain, self excluded", query: domain,
			want: []*misp.Event{host}, was: []*misp.Event{host, ip, lonely}},
		{name: "two shared values, one answer each", query: host,
			want: []*misp.Event{domain, ip}, was: []*misp.Event{domain, ip, lonely}},
		{name: "unscored query with indicators only",
			query: event(t, "q", [2]string{"domain", "shared.example"}, [2]string{"ip-dst", "198.51.100.7"}),
			want:  []*misp.Event{domain, host, ip}},
		{name: "loose attribute meets object attribute",
			query: event(t, "q", [2]string{"vulnerability", "CVE-2021-44228"}),
			want:  []*misp.Event{object}},
		{name: "free text is an indicator of unknown type",
			query: event(t, "q", [2]string{"text", "ET TROJAN beacon"}),
			want:  []*misp.Event{freeText}},
		{name: "threat-score comment only",
			query: event(t, "q", [2]string{"comment", "threat-score:0.6250"}),
			was:   []*misp.Event{domain, host, ip, lonely}},
		{name: "os text only",
			query: event(t, "q", [2]string{"text", "os:linux"}),
			was:   []*misp.Event{domain, host, ip, lonely}},
		{name: "cvss vector only",
			query: event(t, "q", [2]string{"cvss-vector", "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"}),
			was:   []*misp.Event{domain, host, ip, lonely}},
		{name: "nothing but bookkeeping in common", query: lonely,
			was: []*misp.Event{domain, host, ip}},
	}
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.PutBatch(stored, nil); err != nil {
		t.Fatal(err)
	}
	for _, indexed := range []bool{true, false} {
		correlated := s.Correlated
		if !indexed {
			// The full-scan reference over the same correlating values.
			correlated = func(q *misp.Event) []string { return correlatedScan(s, q, correlatingValues(q)) }
		}
		for _, tt := range tests {
			t.Run(fmt.Sprintf("indexing=%v/%s", indexed, tt.name), func(t *testing.T) {
				if got, want := correlated(tt.query), uuidsOf(tt.want); !slices.Equal(got, want) {
					t.Errorf("Correlated = %v, want %v", got, want)
				}
				was := tt.was
				if was == nil {
					was = tt.want
				}
				if got, want := correlatedAllValues(s, tt.query), uuidsOf(was); !slices.Equal(got, want) {
					t.Errorf("all-values reference = %v, want %v", got, want)
				}
			})
		}
	}
}

func uuidsOf(events []*misp.Event) []string {
	var out []string
	for _, e := range events {
		out = append(out, e.UUID)
	}
	sort.Strings(out)
	return out
}

// TestCorrelatedWalkIndependentOfHistory counts, instead of timing, what
// an eIoC write-back makes Correlated walk: the postings of the values it
// looks up. 5 000 unrelated scored events must not add one entry to that
// walk, although each of them shares the write-back's score comment and
// context text.
func TestCorrelatedWalkIndependentOfHistory(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	eioc := scored(t, "eioc", [2]string{"domain", "c2.example"}, [2]string{"ip-dst", "203.0.113.9"})
	related := scored(t, "related", [2]string{"ip-dst", "203.0.113.9"})
	if _, err := s.PutBatch([]*misp.Event{eioc, related}, nil); err != nil {
		t.Fatal(err)
	}
	walked := func(values []string) int {
		s.mu.RLock()
		defer s.mu.RUnlock()
		n := 0
		for _, v := range values {
			if p := s.byValue[v]; p != nil {
				n += len(p.set)
			}
		}
		return n
	}
	var every []string
	for _, a := range allAttributes(eioc) {
		every = append(every, a.Value)
	}
	before, beforeEvery := walked(correlatingValues(eioc)), walked(every)

	const unrelated = 5000
	batch := make([]*misp.Event, unrelated)
	for i := range batch {
		batch[i] = scored(t, "unrelated", [2]string{"domain", fmt.Sprintf("host-%d.example", i)})
	}
	if _, err := s.PutBatch(batch, nil); err != nil {
		t.Fatal(err)
	}
	if after := walked(correlatingValues(eioc)); after != before {
		t.Errorf("postings walked grew with history: %d before, %d after %d unrelated events", before, after, unrelated)
	}
	if got := s.Correlated(eioc); !slices.Equal(got, []string{related.UUID}) {
		t.Errorf("Correlated = %v, want [%s]", got, related.UUID)
	}
	// What the walk would be if bookkeeping values were looked up too.
	if afterEvery := walked(every); afterEvery < beforeEvery+unrelated {
		t.Errorf("test has no teeth: all-values walk %d -> %d", beforeEvery, afterEvery)
	}
}

package correlate

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
)

// partition renders a cluster set as sorted member-ID signatures, the
// identity-free view two correlators must agree on.
func partition(cs []ComposedIoC) []string {
	out := make([]string, 0, len(cs))
	for _, c := range cs {
		ids := make([]string, 0, len(c.Events))
		for _, e := range c.Events {
			ids = append(ids, e.ID)
		}
		sort.Strings(ids)
		out = append(out, c.Category+"|"+strings.Join(ids, ","))
	}
	sort.Strings(out)
	return out
}

// randomStream generates a deduplicated event stream with heavy key
// overlap (shared registered domains, /24 neighbours, shared campaigns)
// across a few categories and spread-out sighting times.
func randomStream(t testing.TB, rng *rand.Rand, n int) []normalize.Event {
	t.Helper()
	categories := []string{normalize.CategoryMalwareDomain, normalize.CategoryBotnetC2}
	seenIDs := make(map[string]bool)
	var out []normalize.Event
	for len(out) < n {
		cat := categories[rng.Intn(len(categories))]
		var value string
		switch rng.Intn(3) {
		case 0:
			value = fmt.Sprintf("h%d.dom%d.example", rng.Intn(50), rng.Intn(8))
		case 1:
			value = fmt.Sprintf("203.0.%d.%d", rng.Intn(3), 1+rng.Intn(200))
		default:
			value = fmt.Sprintf("http://h%d.dom%d.example/p%d", rng.Intn(50), rng.Intn(8), rng.Intn(9))
		}
		at := seen.Add(time.Duration(rng.Intn(72)) * time.Hour)
		e, err := normalize.New(value, cat, "feed", normalize.SourceOSINT, at)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(4) == 0 {
			e.Context = map[string]string{"campaign": fmt.Sprintf("op-%d", rng.Intn(4))}
		}
		if seenIDs[e.ID] {
			continue // the platform dedups by event ID before correlation
		}
		seenIDs[e.ID] = true
		out = append(out, e)
	}
	return out
}

// TestIncrementalMatchesBatchPartition is the tentpole property: any
// stream, fed one-at-a-time or in random batch splits, must end in the
// same cluster partition the batch Correlator computes over the whole
// stream.
func TestIncrementalMatchesBatchPartition(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		stream := randomStream(t, rng, 40+rng.Intn(80))
		want := partition(New().Correlate(stream))

		// One event per Add.
		single := NewIncremental()
		for _, e := range stream {
			single.Add([]normalize.Event{e})
		}
		if got := partition(single.Clusters()); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: one-at-a-time partition diverged\ngot  %v\nwant %v", trial, got, want)
		}

		// Random batch splits.
		batched := NewIncremental()
		for lo := 0; lo < len(stream); {
			hi := lo + 1 + rng.Intn(10)
			if hi > len(stream) {
				hi = len(stream)
			}
			batched.Add(stream[lo:hi])
			lo = hi
		}
		if got := partition(batched.Clusters()); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: batched partition diverged\ngot  %v\nwant %v", trial, got, want)
		}
	}
}

func TestIncrementalStableUUIDAcrossGrowth(t *testing.T) {
	inc := NewIncremental()
	d1 := inc.Add([]normalize.Event{ev(t, "a.evil.example", normalize.CategoryMalwareDomain)})
	if len(d1.New) != 1 || len(d1.Updated) != 0 || len(d1.Removed) != 0 {
		t.Fatalf("first add delta = %+v", d1)
	}
	id := d1.New[0].ID
	hash := d1.New[0].ContentHash
	if id == "" || hash == "" {
		t.Fatal("cluster emitted without ID or content hash")
	}

	d2 := inc.Add([]normalize.Event{ev(t, "b.evil.example", normalize.CategoryMalwareDomain)})
	if len(d2.New) != 0 || len(d2.Updated) != 1 || len(d2.Removed) != 0 {
		t.Fatalf("growth delta = %+v", d2)
	}
	grown := d2.Updated[0]
	if grown.ID != id {
		t.Fatalf("cluster identity changed on growth: %s → %s", id, grown.ID)
	}
	if grown.ContentHash == hash {
		t.Fatal("content hash unchanged although membership grew")
	}
	if len(grown.Events) != 2 {
		t.Fatalf("grown cluster has %d members, want 2", len(grown.Events))
	}

	// Replaying a known event is a no-op delta.
	d3 := inc.Add([]normalize.Event{ev(t, "a.evil.example", normalize.CategoryMalwareDomain)})
	if !d3.Empty() {
		t.Fatalf("duplicate add produced delta %+v", d3)
	}
}

func TestIncrementalMergeRetractsAbsorbed(t *testing.T) {
	inc := NewIncremental()
	dA := inc.Add([]normalize.Event{ev(t, "a.x.example", normalize.CategoryMalwareDomain)})
	older := dA.New[0].ID
	b := ev(t, "c.y.example", normalize.CategoryMalwareDomain)
	b.Context = map[string]string{"campaign": "op"}
	dB := inc.Add([]normalize.Event{b})
	younger := dB.New[0].ID

	// The bridge shares the registered domain with A and the campaign
	// with B, so the two emitted clusters must merge.
	bridge := ev(t, "d.x.example", normalize.CategoryMalwareDomain)
	bridge.Context = map[string]string{"campaign": "op"}
	d := inc.Add([]normalize.Event{bridge})
	if len(d.Updated) != 1 || len(d.Removed) != 1 || len(d.New) != 0 {
		t.Fatalf("merge delta = %+v", d)
	}
	if d.Updated[0].ID != older {
		t.Fatalf("survivor = %s, want the older cluster %s", d.Updated[0].ID, older)
	}
	if d.Removed[0] != younger {
		t.Fatalf("removed = %s, want the younger cluster %s", d.Removed[0], younger)
	}
	if len(d.Updated[0].Events) != 3 {
		t.Fatalf("survivor has %d members, want 3", len(d.Updated[0].Events))
	}
	st := inc.Stats()
	if st.Clusters != 1 || st.Merges != 1 {
		t.Fatalf("stats = %+v, want 1 live cluster and 1 merge", st)
	}
}

func TestIncrementalSeedMergesPostRestartSighting(t *testing.T) {
	// Simulate recovery: a pre-crash cluster is seeded under its persisted
	// identity, then a new sighting sharing its registered domain arrives.
	pre := []normalize.Event{
		ev(t, "a.evil.example", normalize.CategoryMalwareDomain),
		ev(t, "b.evil.example", normalize.CategoryMalwareDomain),
	}
	inc := NewIncremental()
	if absorbed := inc.Seed("persisted-uuid-1", pre); len(absorbed) != 0 {
		t.Fatalf("clean seed absorbed %v", absorbed)
	}
	d := inc.Add([]normalize.Event{ev(t, "c.evil.example", normalize.CategoryMalwareDomain)})
	if len(d.New) != 0 || len(d.Updated) != 1 {
		t.Fatalf("post-restart sighting delta = %+v", d)
	}
	if d.Updated[0].ID != "persisted-uuid-1" {
		t.Fatalf("sighting merged into %s, want the pre-crash identity", d.Updated[0].ID)
	}
	if len(d.Updated[0].Events) != 3 {
		t.Fatalf("cluster has %d members, want 3", len(d.Updated[0].Events))
	}
}

func TestIncrementalSeedRetractsStaleDuplicate(t *testing.T) {
	members := []normalize.Event{ev(t, "dup.evil.example", normalize.CategoryMalwareDomain)}
	inc := NewIncremental()
	if absorbed := inc.Seed("older-uuid", members); len(absorbed) != 0 {
		t.Fatalf("first seed absorbed %v", absorbed)
	}
	// A second persisted cluster with the same members is a stale
	// duplicate (e.g. crash mid-retraction): seeding it must retract it.
	absorbed := inc.Seed("stale-uuid", members)
	if len(absorbed) != 1 || absorbed[0] != "stale-uuid" {
		t.Fatalf("stale duplicate seed absorbed %v, want [stale-uuid]", absorbed)
	}
	if st := inc.Stats(); st.Clusters != 1 {
		t.Fatalf("live clusters = %d, want 1", st.Clusters)
	}
}

// TestRecorrelateAllConvergesWithIncremental feeds a split stream through
// the streaming correlator and applies its delta sequence to a simulated
// store: the surviving membership sets must equal the partition the batch
// Correlator computes over the whole stream at once (identities may
// differ — the batch path derives them from membership).
func TestRecorrelateAllConvergesWithIncremental(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		stream := randomStream(t, rng, 60)
		var splits [][]normalize.Event
		for lo := 0; lo < len(stream); {
			hi := lo + 1 + rng.Intn(8)
			if hi > len(stream) {
				hi = len(stream)
			}
			splits = append(splits, stream[lo:hi])
			lo = hi
		}
		apply := func(inc *Incremental) []ComposedIoC {
			store := make(map[string]ComposedIoC)
			for _, batch := range splits {
				d := inc.Add(batch)
				for _, id := range d.Removed {
					delete(store, id)
				}
				for _, c := range d.New {
					if _, dup := store[c.ID]; dup {
						t.Fatalf("trial %d: cluster %s added twice", trial, c.ID)
					}
					store[c.ID] = c
				}
				for _, c := range d.Updated {
					if _, known := store[c.ID]; !known {
						t.Fatalf("trial %d: update for unknown cluster %s", trial, c.ID)
					}
					store[c.ID] = c
				}
			}
			var cs []ComposedIoC
			for _, c := range store {
				cs = append(cs, c)
			}
			return cs
		}
		got := partition(apply(NewIncremental()))
		want := partition(New().Correlate(stream))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: deltas diverged from batch\nincremental %v\nbatch       %v", trial, got, want)
		}
	}
}

func TestMembersFromMISPRoundTrip(t *testing.T) {
	events := []normalize.Event{
		ev(t, "evil.example", normalize.CategoryMalwareDomain),
		ev(t, "http://evil.example/mal", normalize.CategoryMalwareDomain),
	}
	inc := NewIncremental()
	d := inc.Add(events)
	me, err := ToMISP(&d.New[0], seen)
	if err != nil {
		t.Fatal(err)
	}
	if got := ClusterContentOf(me); got != d.New[0].ContentHash {
		t.Fatalf("ClusterContentOf = %q, want %q", got, d.New[0].ContentHash)
	}
	if got := CategoryOf(me); got != normalize.CategoryMalwareDomain {
		t.Fatalf("CategoryOf = %q", got)
	}
	members := MembersFromMISP(me)
	if len(members) != 2 {
		t.Fatalf("reconstructed %d members, want 2", len(members))
	}
	wantIDs := map[string]bool{events[0].ID: true, events[1].ID: true}
	for _, m := range members {
		if !wantIDs[m.ID] {
			t.Fatalf("reconstructed member %s (%s) not in original set", m.ID, m.Value)
		}
		if m.Source != "feed" {
			t.Fatalf("reconstructed source = %q, want feed", m.Source)
		}
		if !m.LastSeen.Equal(seen) {
			t.Fatalf("reconstructed sighting time = %v, want %v", m.LastSeen, seen)
		}
	}
	// Non-cIoC events reconstruct to nothing.
	plain := misp.NewEvent("infrastructure sighting", seen)
	plain.AddAttribute("domain", "Network activity", "x.example", seen)
	if got := MembersFromMISP(plain); got != nil {
		t.Fatalf("non-cIoC reconstructed %v", got)
	}
}

package correlate

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
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
	hash := d1.New[0].ContentHash()
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
	if grown.ContentHash() == hash {
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
	if got := ClusterContentOf(me); got != d.New[0].ContentHash() {
		t.Fatalf("ClusterContentOf = %q, want %q", got, d.New[0].ContentHash())
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

// countedSharedKeys is the count-based recomputation compose used before
// clusters kept their shared keys: every key CorrelationKeys yields for
// two or more member sightings, sorted.
func countedSharedKeys(events []*normalize.Event) []string {
	keySet := make(map[string]int)
	for _, e := range events {
		for _, k := range CorrelationKeys(*e) {
			keySet[k]++
		}
	}
	var out []string
	for k, n := range keySet {
		if n >= 2 {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// TestSharedKeysMatchCountedRecomputation drives random Add and Seed
// sequences — overlapping keys that grow and merge clusters, seeded
// clusters with members already indexed, and events that yield one key
// twice — and checks every composed cluster's CorrelationKeys against
// the count over its members.
func TestSharedKeysMatchCountedRecomputation(t *testing.T) {
	check := func(where string, cs []ComposedIoC) {
		t.Helper()
		for _, c := range cs {
			if want := countedSharedKeys(c.Events); !reflect.DeepEqual(c.CorrelationKeys, want) {
				t.Fatalf("%s: cluster %s keys = %q, want %q", where, c.ID, c.CorrelationKeys, want)
			}
		}
	}
	// twice builds an event whose value and context yield the same
	// correlation key: a lower-case CVE value and a cve context entry.
	twice := func(n int, cat string) normalize.Event {
		v := fmt.Sprintf("cve-2019-%04d", n)
		return normalize.Event{
			ID: "twice-" + cat + v, Type: normalize.TypeCVE, Value: v, Category: cat,
			FirstSeen: seen, LastSeen: seen, Context: map[string]string{"cve": v},
		}
	}
	if keys := CorrelationKeys(twice(1, "c")); len(keys) != 2 || keys[0] != keys[1] {
		t.Fatalf("twice yields %q, want one key twice", keys)
	}
	merges := 0
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		stream := randomStream(t, rng, 120)
		for i := 0; i < 6; i++ {
			stream = append(stream, twice(rng.Intn(4), stream[rng.Intn(len(stream))].Category))
		}
		rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
		inc := NewIncremental()
		seeded := 0
		for len(stream) > 0 {
			n := 1 + rng.Intn(8)
			if n > len(stream) {
				n = len(stream)
			}
			batch := stream[:n]
			if rng.Intn(4) == 0 {
				// A persisted cluster: one category, possibly repeating a
				// member an earlier cluster already holds.
				var members []normalize.Event
				for _, e := range batch {
					if e.Category == batch[0].Category {
						members = append(members, e)
					}
				}
				if rng.Intn(2) == 0 {
					members = append(members, batch[0])
				}
				seeded++
				inc.Seed(fmt.Sprintf("seed-%d-%d", trial, seeded), members)
			} else {
				d := inc.Add(batch)
				merges += len(d.Removed)
				check("delta", append(d.New, d.Updated...))
			}
			stream = stream[n:]
			check("clusters", inc.Clusters())
		}
	}
	if merges == 0 {
		t.Fatal("no trial merged two emitted clusters")
	}
}

// TestComposedMembersSorted: a cluster keeps its members sorted through
// Seed (given them in any order), growth and merges, so compose emits
// them by ID and hashes them in that order.
func TestComposedMembersSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	stream := randomStream(t, rng, 120)
	inc := NewIncremental()
	seeded := stream[:20]
	sort.Slice(seeded, func(i, j int) bool { return seeded[i].ID > seeded[j].ID })
	for lo := 0; lo < len(seeded); lo += 5 {
		byCategory := make(map[string][]normalize.Event)
		for _, e := range seeded[lo : lo+5] {
			byCategory[e.Category] = append(byCategory[e.Category], e)
		}
		for cat, events := range byCategory {
			inc.Seed(fmt.Sprintf("seeded-%s-%d", cat, lo), events)
		}
	}
	check := func(cs []ComposedIoC) {
		t.Helper()
		for _, c := range cs {
			ids := make([]string, len(c.Events))
			for i, e := range c.Events {
				ids[i] = e.ID
			}
			if !sort.StringsAreSorted(ids) {
				t.Fatalf("cluster %s emits members out of order: %v", c.ID, ids)
			}
			if c.ContentHash() != composedID(ids) {
				t.Fatalf("cluster %s hash %s, want %s", c.ID, c.ContentHash(), composedID(ids))
			}
		}
	}
	for lo := 20; lo < len(stream); lo += 7 {
		d := inc.Add(stream[lo:min(lo+7, len(stream))])
		check(d.New)
		check(d.Updated)
	}
	check(inc.Clusters())
}

// fuzzEvent builds an event from the script: a few hosts, networks and
// hashes in two categories, so events link, grow and merge clusters; a
// shared campaign now and then; spread sighting times, some unset.
func fuzzEvent(t *testing.T, s *script) normalize.Event {
	values := []string{
		fmt.Sprintf("h%d.d%d.example", s.pick(6), s.pick(3)),
		fmt.Sprintf("203.0.%d.%d", s.pick(2), 1+s.pick(6)),
		fmt.Sprintf("http://h%d.d%d.example/p%d", s.pick(6), s.pick(3), s.pick(2)),
		fmt.Sprintf("%032x", s.pick(8)),
	}
	categories := []string{normalize.CategoryMalwareDomain, normalize.CategoryBotnetC2}
	at := seen.Add(time.Duration(s.pick(96)) * time.Hour)
	e, err := normalize.New(values[s.pick(len(values))], categories[s.pick(2)], "feed", normalize.SourceOSINT, at)
	if err != nil {
		t.Fatal(err)
	}
	e.LastSeen = e.LastSeen.Add(time.Duration(s.pick(48)) * time.Hour)
	switch s.pick(8) {
	case 0:
		e.FirstSeen = time.Time{}
	case 1:
		e.LastSeen = time.Time{}
	}
	if s.pick(4) == 0 {
		e.Context = map[string]string{"campaign": fmt.Sprintf("op-%d", s.pick(3))}
	}
	return e
}

// memberIDs lists the IDs of c's members in order.
func memberIDs(c *ComposedIoC) []string {
	ids := make([]string, len(c.Events))
	for i, e := range c.Events {
		ids[i] = e.ID
	}
	return ids
}

// FuzzIncrementalAgainstBatch splits random events into random Add
// batches, and now and then restarts: a new correlator is seeded with the
// clusters emitted so far, as recovery seeds them from the store. After
// every Add each emitted cluster must be the batch Correlator's component
// holding its members: the same members in ID order, bounds, shared keys
// and content hash, and LastSightings must read its LastSeen. No cIoC
// handed out earlier may change: the correlator never writes a member
// list it has handed out.
func FuzzIncrementalAgainstBatch(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 48; i++ {
		data := make([]byte, 64+rng.Intn(448))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := script(data)
		inc := NewIncremental()
		var all []normalize.Event // each event's first sighting, as the index keeps it
		known := make(map[string]bool)
		emitted := make(map[string]ComposedIoC) // the live cluster set
		var order []string                      // live cluster IDs by first emission
		type handout struct {
			c    ComposedIoC
			ids  []string
			hash string
		}
		var handed []handout
		check := func(where string, cs []ComposedIoC) {
			t.Helper()
			component := make(map[string]ComposedIoC)
			for _, b := range New().Correlate(all) {
				for _, e := range b.Events {
					component[e.ID] = b
				}
			}
			sightings := inc.LastSightings()
			for _, c := range cs {
				b := component[c.Events[0].ID]
				if got, want := memberIDs(&c), memberIDs(&b); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: cluster %s members\n%v\nwant the batch component's\n%v", where, c.ID, got, want)
				}
				if !c.FirstSeen.Equal(b.FirstSeen) || !c.LastSeen.Equal(b.LastSeen) {
					t.Fatalf("%s: cluster %s bounds [%v, %v], want [%v, %v]", where, c.ID, c.FirstSeen, c.LastSeen, b.FirstSeen, b.LastSeen)
				}
				if !reflect.DeepEqual(c.CorrelationKeys, b.CorrelationKeys) {
					t.Fatalf("%s: cluster %s keys %q, want %q", where, c.ID, c.CorrelationKeys, b.CorrelationKeys)
				}
				if h := c.ContentHash(); h != b.ID || b.ContentHash() != b.ID {
					t.Fatalf("%s: cluster %s content hash %s, want %s", where, c.ID, h, b.ID)
				}
				var last time.Time
				for _, e := range c.Events {
					if e.LastSeen.After(last) {
						last = e.LastSeen
					}
				}
				if got := sightings[c.ID]; !got.Equal(last) || !got.Equal(c.LastSeen) {
					t.Fatalf("%s: cluster %s last sighting %v, want %v", where, c.ID, got, last)
				}
			}
		}
		for step := 0; step < 10; step++ {
			if step > 0 && s.pick(5) == 0 {
				inc = NewIncremental()
				for _, id := range order {
					var members []normalize.Event
					for _, e := range emitted[id].Events {
						members = append(members, *e)
					}
					if absorbed := inc.Seed(id, members); len(absorbed) != 0 {
						t.Fatalf("step %d: re-seeding the emitted clusters absorbed %v", step, absorbed)
					}
				}
				check(fmt.Sprintf("step %d: seeded", step), inc.Clusters())
			}
			var batch []normalize.Event
			for k := 1 + s.pick(6); k > 0; k-- {
				e := fuzzEvent(t, &s)
				batch = append(batch, e)
				if !known[e.ID] {
					known[e.ID] = true
					all = append(all, e)
				}
			}
			d := inc.Add(batch)
			for _, id := range d.Removed {
				delete(emitted, id)
			}
			order = slices.DeleteFunc(order, func(id string) bool { return slices.Contains(d.Removed, id) })
			for _, c := range d.New {
				order = append(order, c.ID)
			}
			for _, c := range append(d.New, d.Updated...) {
				emitted[c.ID] = c
				handed = append(handed, handout{c: c, ids: memberIDs(&c), hash: c.ContentHash()})
			}
			check(fmt.Sprintf("step %d", step), append(d.New, d.Updated...))
			for _, h := range handed {
				if got := memberIDs(&h.c); !reflect.DeepEqual(got, h.ids) || h.c.ContentHash() != h.hash {
					t.Fatalf("step %d: cluster %s handed out as\n%v\nnow reads\n%v", step, h.c.ID, h.ids, got)
				}
			}
		}
		check("end", inc.Clusters())
		if got := len(inc.Clusters()); got != len(emitted) {
			t.Fatalf("%d live clusters, want the %d emitted", got, len(emitted))
		}
	})
}

// TestHandedOutListsReadWhileAdding: a flush splices the clusters one Add
// handed out on other goroutines while the next Add grows and merges
// them. Under -race this holds that the correlator never writes a member
// list or member it has handed out.
func TestHandedOutListsReadWhileAdding(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	stream := randomStream(t, rng, 400)
	inc := NewIncremental()
	var wg sync.WaitGroup
	for lo := 0; lo < len(stream); lo += 20 {
		d := inc.Add(stream[lo : lo+20])
		for _, c := range append(d.New, d.Updated...) {
			wg.Add(1)
			go func(c ComposedIoC) {
				defer wg.Done()
				if _, err := ToMISP(&c, seen); err != nil {
					t.Error(err)
				}
			}(c)
		}
	}
	wg.Wait()
}

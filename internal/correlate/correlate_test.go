package correlate

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/uuid"
)

var seen = time.Date(2019, 6, 24, 10, 0, 0, 0, time.UTC)

func ev(t testing.TB, value, category string) normalize.Event {
	t.Helper()
	e, err := normalize.New(value, category, "feed", normalize.SourceOSINT, seen)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestUnionFindBasics(t *testing.T) {
	uf := newUnionFind()
	uf.union("a", "b")
	uf.union("c", "d")
	if !uf.connected("a", "b") || !uf.connected("c", "d") {
		t.Fatal("direct unions not connected")
	}
	if uf.connected("a", "c") {
		t.Fatal("independent sets connected")
	}
	uf.union("b", "c")
	if !uf.connected("a", "d") {
		t.Fatal("transitive union not connected")
	}
	comps := uf.components()
	if len(comps) != 1 {
		t.Fatalf("components = %d, want 1", len(comps))
	}
}

func TestUnionFindQuickInvariants(t *testing.T) {
	// Property: after a random sequence of unions, connectivity is an
	// equivalence relation consistent with components().
	f := func(pairs []struct{ A, B uint8 }) bool {
		uf := newUnionFind()
		for _, p := range pairs {
			uf.union(fmt.Sprint(p.A%16), fmt.Sprint(p.B%16))
		}
		comps := uf.components()
		for root, members := range comps {
			for _, m := range members {
				if uf.find(m) != root {
					return false
				}
			}
		}
		// Reflexive + symmetric spot check.
		for _, p := range pairs {
			a, b := fmt.Sprint(p.A%16), fmt.Sprint(p.B%16)
			if !uf.connected(a, a) || uf.connected(a, b) != uf.connected(b, a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrelateGroupsByCategory(t *testing.T) {
	events := []normalize.Event{
		ev(t, "a.example", normalize.CategoryMalwareDomain),
		ev(t, "b.example", normalize.CategoryPhishing),
	}
	out := New().Correlate(events)
	if len(out) != 2 {
		t.Fatalf("got %d cIoCs, want 2 (different categories never merge)", len(out))
	}
	if out[0].Category == out[1].Category {
		t.Fatal("categories collapsed")
	}
}

func TestCorrelateConnectsSharedHost(t *testing.T) {
	events := []normalize.Event{
		ev(t, "evil.example", normalize.CategoryMalwareDomain),
		ev(t, "http://evil.example/dropper", normalize.CategoryMalwareDomain),
		ev(t, "unrelated.other", normalize.CategoryMalwareDomain),
	}
	out := New().Correlate(events)
	if len(out) != 2 {
		t.Fatalf("got %d cIoCs, want 2", len(out))
	}
	var big ComposedIoC
	for _, c := range out {
		if len(c.Events) == 2 {
			big = c
		}
	}
	if len(big.Events) != 2 {
		t.Fatalf("no 2-member cluster found: %+v", out)
	}
	if len(big.CorrelationKeys) == 0 {
		t.Fatal("cluster has no explaining correlation keys")
	}
	found := false
	for _, k := range big.CorrelationKeys {
		if k == "host:evil.example" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected host key, got %v", big.CorrelationKeys)
	}
}

func TestCorrelateConnectsSubdomainsViaRegisteredDomain(t *testing.T) {
	events := []normalize.Event{
		ev(t, "c2.evil.example", normalize.CategoryBotnetC2),
		ev(t, "drop.evil.example", normalize.CategoryBotnetC2),
	}
	out := New().Correlate(events)
	if len(out) != 1 || len(out[0].Events) != 2 {
		t.Fatalf("subdomains not correlated: %+v", out)
	}
}

func TestCorrelateConnectsSameSubnet(t *testing.T) {
	events := []normalize.Event{
		ev(t, "203.0.113.7", normalize.CategoryScanner),
		ev(t, "203.0.113.200", normalize.CategoryScanner),
		ev(t, "198.51.100.1", normalize.CategoryScanner),
	}
	out := New().Correlate(events)
	if len(out) != 2 {
		t.Fatalf("got %d cIoCs, want 2 (two /24 groups)", len(out))
	}
}

func TestCorrelateContextKeys(t *testing.T) {
	a := ev(t, "alpha.example", normalize.CategoryMalwareDomain)
	a.Context = map[string]string{"malware": "Emotet"}
	b, err := normalize.New("deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef",
		normalize.CategoryMalwareDomain, "feed2", normalize.SourceOSINT, seen)
	if err != nil {
		t.Fatal(err)
	}
	b.Context = map[string]string{"malware": "emotet"} // case-insensitive
	out := New().Correlate([]normalize.Event{a, b})
	if len(out) != 1 || len(out[0].Events) != 2 {
		t.Fatalf("context correlation failed: %+v", out)
	}
}

func TestCorrelateDeterministic(t *testing.T) {
	events := []normalize.Event{
		ev(t, "a.example", normalize.CategoryMalwareDomain),
		ev(t, "http://a.example/1", normalize.CategoryMalwareDomain),
		ev(t, "203.0.113.9", normalize.CategoryScanner),
		ev(t, "203.0.113.77", normalize.CategoryScanner),
	}
	first := New().Correlate(events)
	// Same events, different order.
	shuffled := []normalize.Event{events[3], events[1], events[0], events[2]}
	second := New().Correlate(shuffled)
	if !reflect.DeepEqual(ids(first), ids(second)) {
		t.Fatalf("correlation not order-independent:\n%v\n%v", ids(first), ids(second))
	}
}

func ids(cs []ComposedIoC) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.ID
	}
	return out
}

func TestComposedIoCWindowAndAccessors(t *testing.T) {
	a := ev(t, "evil.example", normalize.CategoryMalwareDomain)
	a.FirstSeen = seen.Add(-time.Hour)
	a.LastSeen = seen.Add(-time.Hour)
	b := ev(t, "http://evil.example/x", normalize.CategoryMalwareDomain)
	b.FirstSeen = seen.Add(2 * time.Hour)
	b.LastSeen = seen.Add(2 * time.Hour)
	out := New().Correlate([]normalize.Event{a, b})
	if len(out) != 1 {
		t.Fatalf("want single cluster, got %d", len(out))
	}
	c := out[0]
	if !c.FirstSeen.Equal(seen.Add(-time.Hour)) || !c.LastSeen.Equal(seen.Add(2*time.Hour)) {
		t.Fatalf("window wrong: %v – %v", c.FirstSeen, c.LastSeen)
	}
	if got := c.Values(normalize.TypeDomain); len(got) != 1 || got[0] != "evil.example" {
		t.Fatalf("Values(domain) = %v", got)
	}
	if got := c.Sources(); len(got) != 1 || got[0] != "feed" {
		t.Fatalf("Sources() = %v", got)
	}
}

func TestCorrelationKeysPerType(t *testing.T) {
	tests := []struct {
		value   string
		wantKey string
	}{
		{value: "evil.example", wantKey: "host:evil.example"},
		{value: "203.0.113.7", wantKey: "ip:203.0.113.7"},
		{value: "203.0.113.7", wantKey: "net24:203.0.113.0"},
		{value: "http://evil.example/x", wantKey: "host:evil.example"},
		{value: "user@evil.example", wantKey: "host:evil.example"},
		{value: "CVE-2017-9805", wantKey: "cve:CVE-2017-9805"},
		{value: "dropper.exe", wantKey: "filename:dropper.exe"},
	}
	for _, tt := range tests {
		e := ev(t, tt.value, normalize.CategoryUnknown)
		keys := CorrelationKeys(e)
		found := false
		for _, k := range keys {
			if k == tt.wantKey {
				found = true
			}
		}
		if !found {
			t.Errorf("CorrelationKeys(%q) = %v, missing %q", tt.value, keys, tt.wantKey)
		}
	}
}

func TestToMISP(t *testing.T) {
	events := []normalize.Event{
		ev(t, "evil.example", normalize.CategoryMalwareDomain),
		ev(t, "http://evil.example/mal", normalize.CategoryMalwareDomain),
	}
	out := New().Correlate(events)
	if len(out) != 1 {
		t.Fatalf("want single cluster, got %d", len(out))
	}
	me, err := ToMISP(&out[0], seen)
	if err != nil {
		t.Fatal(err)
	}
	if err := me.Validate(); err != nil {
		t.Fatalf("composed MISP event invalid: %v", err)
	}
	if me.UUID != out[0].ID {
		t.Fatalf("event uuid %s, want cIoC id %s", me.UUID, out[0].ID)
	}
	if !me.HasTag("caisp:cioc") || !me.HasTag("caisp:category=\""+normalize.CategoryMalwareDomain+"\"") {
		t.Fatalf("tags missing: %+v", me.Tags)
	}
	if got := me.FindAttribute("domain"); got == nil || got.Value != "evil.example" {
		t.Fatalf("domain attribute missing: %+v", me.Attributes)
	}
	if got := me.FindAttribute("url"); got == nil {
		t.Fatal("url attribute missing")
	}
}

func TestToMISPCVEWithVector(t *testing.T) {
	e := ev(t, "CVE-2017-9805", normalize.CategoryVulnExploit)
	e.Context = map[string]string{"cvss-vector": "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H"}
	out := New().Correlate([]normalize.Event{e})
	me, err := ToMISP(&out[0], seen)
	if err != nil {
		t.Fatal(err)
	}
	if got := me.FindAttribute("vulnerability"); got == nil || got.Value != "CVE-2017-9805" {
		t.Fatalf("vulnerability attribute missing: %+v", me.Attributes)
	}
	if got := me.FindAttribute("cvss-vector"); got == nil {
		t.Fatal("cvss vector attribute missing")
	}
}

func TestToMISPEmptyFails(t *testing.T) {
	if _, err := ToMISP(&ComposedIoC{ID: "x"}, seen); err == nil {
		t.Fatal("empty cIoC converted")
	}
}

// TestComposedIDIsTheJoinedName: hashing the member IDs in pieces gives
// every cluster the UUID of "cioc\x00" and its comma-joined member IDs,
// the name composedID hashed when it joined them first.
func TestComposedIDIsTheJoinedName(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 200; n += 1 + n/8 {
		ids := make([]string, n)
		for i := range ids {
			ids[i] = normalize.EventID(normalize.TypeDomain, fmt.Sprintf("m%d.example", rng.Int()), normalize.CategoryMalwareDomain)
		}
		joined := uuid.NewV5(uuid.NamespaceCAISP, "cioc\x00"+strings.Join(ids, ","), "").String()
		if got := composedID(ids); got != joined {
			t.Fatalf("%d members: %s, joined name %s", n, got, joined)
		}
	}
}

// TestContentHashStreamsTheMemberIDs: the hash of a cluster of any size is
// composedID over its member IDs, and taking it allocates only the
// returned string (outside -race builds).
func TestContentHashStreamsTheMemberIDs(t *testing.T) {
	for _, n := range []int{1, 2, 3, 56, 400} {
		c := &ComposedIoC{}
		var ids []string
		for i := 0; i < n; i++ {
			e := ev(t, fmt.Sprintf("10.%d.%d.1", i/250, i%250), "malware")
			c.Events = append(c.Events, &e)
			ids = append(ids, e.ID)
		}
		if got, want := c.ContentHash(), composedID(ids); got != want {
			t.Fatalf("%d members: ContentHash %s, want composedID %s", n, got, want)
		}
		if allocs := testing.AllocsPerRun(50, func() { _ = c.ContentHash() }); allocs != 1 && !raceEnabled {
			t.Errorf("%d members: ContentHash made %v allocations, want 1 (its result)", n, allocs)
		}
	}
}

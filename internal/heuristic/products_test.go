package heuristic

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/stix"
	"github.com/caisplatform/caisp/internal/stixpattern"
)

// joinedProducts is the keyword fallback of extractProducts as it was
// before it lowered its text in a stack buffer: one lower-cased string
// concatenation per object.
func joinedProducts(ctx *Context, obj stix.Object) []string {
	desc := strings.ToLower(objectName(obj) + " " + objectDescription(obj))
	var out []string
	for _, keyword := range ctx.Infra.ApplicationKeywords() {
		if strings.Contains(desc, keyword) {
			out = append(out, keyword)
		}
	}
	return out
}

// TestExtractProductsMatchesJoinedText holds the buffer-lowered search to
// the string one on keywords with and without spaces (including ones
// that only match across the joint), mixed case, non-ASCII, input that
// is not valid UTF-8 and text longer than the stack buffer.
func TestExtractProductsMatchesJoinedText(t *testing.T) {
	inv := &infra.Inventory{
		Nodes: []infra.Node{{ID: "n1", Applications: []string{
			"apache struts", "struts", "x y", "é", "\xff", " lead", "trail ", "a\xc3", "owncloud", "zookeeper",
		}}},
		CommonKeywords: []string{"linux", "rce in"},
	}
	collector, err := infra.NewCollector(inv)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{Infra: collector}
	cases := [][2]string{
		{"Apache", "Struts REST plugin"},   // "apache struts" only across the joint
		{"Apache Struts", "RCE in plugin"}, // both sides
		{"x", "y"},                         // "x y" across the joint
		{"RCE", "in OwnCloud"},             // "rce in" across the joint
		{"trail", ""},                      // "trail " ends at the joint
		{"", "lead"},                       // " lead" starts at it
		{"", ""},
		{"CAFÉ", "ÉTÉ"},
		{"bad \xff utf8", "\xc3"},
		{"a\xc3", "\xa9"}, // a split two-byte sequence
		{"LINUX kernel", "no match here"},
		{"Apache ZooKeeper", ""},
		{strings.Repeat("Apache ", 40), "STRUTS OwnCloud"},
		{strings.Repeat("x", 250), strings.Repeat("É", 10) + " Linux"},
	}
	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"a", "A", "x", "y", " ", "é", "É", "\xff", "\xc3", "\xa9", "struts", "Apache", "rce", "in", "linux", "ZOO", "Keeper"}
	random := func() string {
		var sb strings.Builder
		for n := rng.Intn(6); n > 0; n-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	for i := 0; i < 3000; i++ {
		cases = append(cases, [2]string{random(), random()})
	}
	for _, c := range cases {
		obj := stix.NewVulnerability(stix.NewID(stix.TypeVulnerability), c[0], c[1], evalTime)
		if got, want := extractProducts(ctx, obj), joinedProducts(ctx, obj); !reflect.DeepEqual(got, want) {
			t.Fatalf("name %q, description %q: products %q, want %q", c[0], c[1], got, want)
		}
	}
}

var benchScore float64

// BenchmarkEvaluateIndicator scores one indicator the way the analyzer
// does after ToSTIX, with the infrastructure holding no alarms and 1000.
func BenchmarkEvaluateIndicator(b *testing.B) {
	for _, alarms := range []int{0, 1000} {
		b.Run(fmt.Sprintf("alarms=%d", alarms), func(b *testing.B) {
			collector, err := infra.NewCollector(infra.PaperInventory())
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < alarms; i++ {
				if _, err := collector.AddAlarm(infra.Alarm{
					NodeID: "node1", Severity: infra.SeverityLow,
					SrcIP: fmt.Sprintf("10.0.%d.%d", i/250, 1+i%250), DstIP: "192.0.2.10",
					At: evalTime,
				}); err != nil {
					b.Fatal(err)
				}
			}
			e := NewEngine(WithInfrastructure(collector), WithClock(clock.NewFake(evalTime)))
			pattern := stixpattern.Equality("ipv4-addr:value", "203.0.113.7")
			ind := stix.NewIndicator(stix.DeterministicID(stix.TypeIndicator, "ip-dst:203.0.113.7"),
				pattern.Source, []string{"malicious-activity"}, evalTime)
			ind.Compiled = pattern
			ind.Name = "203.0.113.7"
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := e.Evaluate(ind)
				if err != nil {
					b.Fatal(err)
				}
				benchScore = res.Score
			}
		})
	}
}

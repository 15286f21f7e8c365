package subscribe

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/correlate"
	"github.com/caisplatform/caisp/internal/feedgen"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/stixpattern"
)

// observationFromMembers is the reference ObservationFromMISP is held to:
// the cluster members are rebuilt with correlate.MembersFromMISP, which
// re-normalizes every member value (refang, type inference,
// canonicalization, deterministic ID), and each rebuilt member contributes
// its observation fields.
func observationFromMembers(me *misp.Event, threatScore float64) stixpattern.Observation {
	fields := make(map[string][]string, 8)
	members := correlate.MembersFromMISP(me)
	if members == nil {
		for i := range me.Attributes {
			a := &me.Attributes[i]
			if a.Type == "comment" {
				continue
			}
			ev, err := normalize.New(a.Value, "", "", normalize.SourceOSINT, a.Timestamp.Time)
			if err != nil {
				continue
			}
			members = append(members, ev)
		}
	}
	for _, m := range members {
		for path, vals := range m.ObservationFields() {
			fields[path] = append(fields[path], vals...)
		}
	}
	if cat := correlate.CategoryOf(me); cat != "" {
		fields[PathCategory] = []string{cat}
	}
	if threatScore < 0 {
		threatScore, _ = ThreatScoreOf(me)
	}
	if threatScore >= 0 {
		fields[PathThreatScore] = []string{strconv.FormatFloat(threatScore, 'f', -1, 64)}
	}
	return stixpattern.Observation{At: me.Timestamp.Time, Fields: fields}
}

// composed runs raw feed values through the collector's path (normalize,
// correlate, ToMISP) and returns the stored form of every cluster.
func composed(t *testing.T, category string, context map[string]string, raw ...string) []*misp.Event {
	t.Helper()
	at := time.Date(2019, 6, 24, 12, 0, 0, 0, time.UTC)
	var events []normalize.Event
	for _, v := range raw {
		ev, err := normalize.New(v, category, "test-feed", normalize.SourceOSINT, at)
		if err != nil {
			t.Fatalf("normalize %q: %v", v, err)
		}
		if context != nil {
			ev.Context = context
		}
		events = append(events, ev)
	}
	return toMISP(t, correlate.NewIncremental().Add(events).New, at)
}

func toMISP(t *testing.T, ciocs []correlate.ComposedIoC, at time.Time) []*misp.Event {
	t.Helper()
	var out []*misp.Event
	for i := range ciocs {
		me, err := correlate.ToMISP(&ciocs[i], at)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, me)
	}
	return out
}

// TestObservationDirectAgreesWithMembers holds the direct projection to
// the member-rebuild reference, field for field, for the cIoC revision and
// for the scored eIoC revision of every cluster.
func TestObservationDirectAgreesWithMembers(t *testing.T) {
	cases := map[string][]*misp.Event{}

	// Every feedgen feed format, through its own parser.
	gen := feedgen.New(feedgen.Config{Seed: 7, Items: 40, DuplicationRate: 0.2, OverlapRate: 0.3, DefangRate: 0.5})
	feeds, err := gen.Feeds(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	docs, err := gen.Documents()
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2019, 6, 24, 12, 0, 0, 0, time.UTC)
	for _, f := range feeds {
		records, err := f.Parser.Parse(docs[f.Name])
		if err != nil {
			t.Fatalf("parse %s: %v", f.Name, err)
		}
		var events []normalize.Event
		for _, rec := range records {
			category := f.Category
			if rec.Category != "" {
				category = rec.Category
			}
			ev, err := normalize.New(rec.Value, category, f.Name, normalize.SourceOSINT, at)
			if err != nil {
				continue
			}
			ev.Context = rec.Context
			events = append(events, ev)
		}
		if len(events) == 0 {
			t.Fatalf("feed %s yields no events", f.Name)
		}
		cases["feed "+f.Name] = toMISP(t, correlate.NewIncremental().Add(events).New, at)
	}

	// Hand-written edge cases.
	cases["defanged"] = composed(t, normalize.CategoryMalwareDomain, nil,
		"evil[.]example[.]com", "hxxp://Evil.Example.com:80/a/b?q=1#frag", "admin[@]Evil.example.com", "<sub(dot)evil.example.com>")
	cases["ipv6"] = composed(t, normalize.CategoryBotnetC2, nil,
		"2001:DB8:0:0:0:0:0:1", "::ffff:192.0.2.33", "198.51.100.7")
	cases["cidr"] = composed(t, normalize.CategoryScanner, nil,
		"198.51.100.77/24", "2001:db8::1/32")
	cases["upper-case hashes"] = composed(t, normalize.CategoryMalwareHash, nil,
		"D41D8CD98F00B204E9800998ECF8427E",
		"DA39A3EE5E6B4B0D3255BFEF95601890AFD80709",
		"E3B0C44298FC1C149AFBF4C8996FB92427AE41E4649B934CA495991B7852B855",
		"CF83E1357EEFB8BDF1542850D66D8007D620E4050B5715DC83F4A921D36CE9CE47D0D13C5D85F2B0FF8318D2877EEC2F63B931BD47417A81A538327AF927DA3E")
	cases["e-mail"] = composed(t, normalize.CategoryPhishing, nil, "Phisher@Mail.Example.ORG")
	cases["filename vs domain"] = composed(t, normalize.CategoryMalwareHash, nil,
		"dropper.exe", "Invoice.PDF", "dropper.example")
	cases["cve with context"] = composed(t, normalize.CategoryVulnExploit, map[string]string{
		"cvss-vector": "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", "os": "debian",
		"products": "apache,struts", "references": "https://nvd.nist.gov/vuln/detail/CVE-2017-9805",
		"classified_as": normalize.CategoryVulnExploit, "classifier_confidence": "0.91",
		"published": "2017-09-15", "description": "RCE in the REST plugin",
	}, "cve-2017-9805")
	cases["unknown type only"] = composed(t, normalize.CategoryUnknown, nil, "ET TROJAN beacon", "not an indicator")
	cases["unknown type beside a member"] = composed(t, normalize.CategoryMalwareDomain, nil,
		"ET TROJAN beacon", "evil.example.com", "sub.evil.example.com")
	fifty := make([]string, 50)
	for i := range fifty {
		fifty[i] = fmt.Sprintf("n%d.cluster.example", i)
	}
	cases["50 members"] = composed(t, normalize.CategoryMalwareDomain, nil, fifty...)
	if n := len(cases["50 members"]); n != 1 || len(cases["50 members"][0].Attributes) < 50 {
		t.Fatalf("50-member case composed %d clusters", n)
	}

	// Events the correlator did not write keep the normalising path.
	raw := misp.NewEvent("posted to tipd", at)
	raw.AddAttribute("domain", "Network activity", "Raw[.]Example.COM", at)
	raw.AddAttribute("sha256", "Payload delivery", "E3B0C44298FC1C149AFBF4C8996FB92427AE41E4649B934CA495991B7852B855", at)
	raw.AddAttribute("comment", "Other", "analyst note", at)
	cases["raw event"] = []*misp.Event{raw}
	untagged := composed(t, normalize.CategoryMalwareDomain, nil, "evil.example.com")[0]
	untagged.Tags = untagged.Tags[:1] // category tag only, no caisp:cioc
	cases["category without cioc tag"] = []*misp.Event{untagged}

	paths := map[string]bool{}
	for name, events := range cases {
		if len(events) == 0 {
			t.Errorf("%s: no events", name)
		}
		for _, me := range events {
			for path := range ObservationFromMISP(me, -1).Fields {
				paths[path] = true
			}
			// The admitted cIoC, then the scored eIoC the analyzer re-stores,
			// each as core dispatches it and as tipd's detections see it.
			check(t, name+" cioc", me, -1)
			heuristic.SetBaseScore(me, 0.625, at)
			me.AddTag("caisp:eioc")
			check(t, name+" eioc in-core", me, 0.625)
			check(t, name+" eioc stored", me, -1)
			heuristic.SetDecayedScore(me, 0.3125, at)
			check(t, name+" eioc decayed", me, -1)
		}
	}
	// The cases between them reach every path a member can project onto.
	for _, typ := range []normalize.IoCType{
		normalize.TypeIPv4, normalize.TypeIPv6, normalize.TypeDomain, normalize.TypeURL,
		normalize.TypeEmail, normalize.TypeMD5, normalize.TypeSHA1, normalize.TypeSHA256,
		normalize.TypeSHA512, normalize.TypeFilename, normalize.TypeCVE, normalize.TypeUnknown,
	} {
		if path := normalize.ObservationPath(typ); !paths[path] {
			t.Errorf("no case projects onto %s", path)
		}
	}
}

func check(t *testing.T, name string, me *misp.Event, score float64) {
	t.Helper()
	got, want := ObservationFromMISP(me, score), observationFromMembers(me, score)
	if !got.At.Equal(want.At) {
		t.Errorf("%s: At = %v, want %v", name, got.At, want.At)
	}
	if !reflect.DeepEqual(got.Fields, want.Fields) {
		t.Errorf("%s (%s):\n got %v\nwant %v", name, me.Info, got.Fields, want.Fields)
	}
}

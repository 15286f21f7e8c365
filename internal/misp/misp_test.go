package misp

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/stix"
)

var now = time.Date(2017, 9, 13, 10, 0, 0, 0, time.UTC)

func sampleEvent(t *testing.T) *Event {
	t.Helper()
	e := NewEvent("OSINT - Apache Struts RCE campaign", now)
	e.ThreatLevelID = ThreatLevelHigh
	e.Orgc = &Org{UUID: "6ba7b810-9dad-11d1-80b4-00c04fd430c8", Name: "CAISP"}
	e.AddAttribute("vulnerability", "External analysis", "CVE-2017-9805", now).Comment = "Apache Struts REST plugin RCE"
	e.AddAttribute("cvss-vector", "External analysis", "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H", now)
	e.AddAttribute("domain", "Network activity", "struts-exploit.example", now)
	e.AddAttribute("ip-dst", "Network activity", "203.0.113.7", now)
	e.AddAttribute("sha256", "Payload delivery", strings.Repeat("ab", 32), now)
	e.AddTag("tlp:white")
	return e
}

func TestEventJSONRoundTrip(t *testing.T) {
	e := sampleEvent(t)
	data, err := MarshalWrapped(e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"Event"`) {
		t.Fatalf("wrapped encoding missing Event envelope: %s", data)
	}
	back, err := UnmarshalWrapped(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.UUID != e.UUID || back.Info != e.Info || len(back.Attributes) != len(e.Attributes) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, e)
	}
	if !back.Timestamp.Equal(now) {
		t.Fatalf("timestamp = %v, want %v", back.Timestamp, now)
	}
}

func TestUnmarshalWrappedBareForm(t *testing.T) {
	e := sampleEvent(t)
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalWrapped(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.UUID != e.UUID {
		t.Fatalf("bare decode uuid = %q, want %q", back.UUID, e.UUID)
	}
}

func TestUnmarshalWrappedRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalWrapped([]byte(`{"neither":"thing"}`)); err == nil {
		t.Fatal("decode of non-event succeeded")
	}
	if _, err := UnmarshalWrapped([]byte(`not json`)); err == nil {
		t.Fatal("decode of non-JSON succeeded")
	}
}

func TestUnixTimeIntegerForm(t *testing.T) {
	var ts UnixTime
	if err := json.Unmarshal([]byte(`1505296800`), &ts); err != nil {
		t.Fatal(err)
	}
	if ts.Unix() != 1505296800 {
		t.Fatalf("unix = %d", ts.Unix())
	}
	if err := json.Unmarshal([]byte(`"0"`), &ts); err != nil {
		t.Fatal(err)
	}
	if !ts.IsZero() {
		t.Fatal("zero timestamp not zero")
	}
	if err := json.Unmarshal([]byte(`"forever"`), &ts); err == nil {
		t.Fatal("bad timestamp decoded")
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Event)
		want   string
	}{
		{name: "bad uuid", mutate: func(e *Event) { e.UUID = "nope" }, want: "invalid uuid"},
		{name: "empty info", mutate: func(e *Event) { e.Info = "" }, want: "empty info"},
		{name: "bad date", mutate: func(e *Event) { e.Date = "13/09/2017" }, want: "bad date"},
		{name: "bad threat level", mutate: func(e *Event) { e.ThreatLevelID = 9 }, want: "threat_level_id"},
		{name: "bad analysis", mutate: func(e *Event) { e.Analysis = -1 }, want: "bad analysis"},
		{name: "empty attribute value", mutate: func(e *Event) { e.Attributes[0].Value = "" }, want: "empty type or value"},
		{name: "bad attribute uuid", mutate: func(e *Event) { e.Attributes[0].UUID = "x" }, want: "invalid uuid"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := sampleEvent(t)
			tt.mutate(e)
			err := e.Validate()
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("Validate() = %v, want mention of %q", err, tt.want)
			}
		})
	}
	if err := sampleEvent(t).Validate(); err != nil {
		t.Fatalf("valid event rejected: %v", err)
	}
}

func TestEventHelpers(t *testing.T) {
	e := sampleEvent(t)
	if got := e.FindAttribute("vulnerability"); got == nil || got.Value != "CVE-2017-9805" {
		t.Fatalf("FindAttribute = %+v", got)
	}
	if got := e.FindAttribute("yara"); got != nil {
		t.Fatalf("FindAttribute(yara) = %+v, want nil", got)
	}
	if got := e.FindAttribute("domain"); got == nil || got.Value != "struts-exploit.example" {
		t.Fatalf("FindAttribute(domain) = %+v", got)
	}
	e.AddTag("tlp:white") // duplicate must be ignored
	count := 0
	for _, tag := range e.Tags {
		if tag.Name == "tlp:white" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("duplicate tag stored %d times", count)
	}
	if !e.HasTag("tlp:white") || e.HasTag("tlp:red") {
		t.Fatal("HasTag misbehaves")
	}
}

func TestToSTIXProducesExpectedSDOs(t *testing.T) {
	e := sampleEvent(t)
	b, err := ToSTIX(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := stix.ValidateBundle(b); err != nil {
		t.Fatalf("converted bundle invalid: %v", err)
	}
	vulns := b.ByType(stix.TypeVulnerability)
	if len(vulns) != 1 {
		t.Fatalf("got %d vulnerabilities, want 1", len(vulns))
	}
	v := vulns[0].(*stix.Vulnerability)
	if v.Name != "CVE-2017-9805" {
		t.Fatalf("vulnerability name = %q", v.Name)
	}
	if vec, ok := v.ExtraString("x_caisp_cvss_vector"); !ok || !strings.HasPrefix(vec, "CVSS:3.0/") {
		t.Fatalf("cvss vector not preserved: %q %v", vec, ok)
	}
	if uuidProp, ok := v.ExtraString("x_misp_event_uuid"); !ok || uuidProp != e.UUID {
		t.Fatalf("x_misp_event_uuid = %q, want %q", uuidProp, e.UUID)
	}
	wantRef := false
	for _, ref := range v.ExternalReferences {
		if ref.SourceName == "cve" && ref.ExternalID == "CVE-2017-9805" {
			wantRef = true
		}
	}
	if !wantRef {
		t.Fatalf("missing cve external reference: %+v", v.ExternalReferences)
	}

	inds := b.ByType(stix.TypeIndicator)
	if len(inds) != 3 {
		t.Fatalf("got %d indicators, want 3 (domain, ip, sha256)", len(inds))
	}
	var patterns []string
	for _, o := range inds {
		patterns = append(patterns, o.(*stix.Indicator).Pattern)
	}
	joined := strings.Join(patterns, "\n")
	for _, want := range []string{
		"[domain-name:value = 'struts-exploit.example']",
		"[ipv4-addr:value = '203.0.113.7']",
		"[file:hashes.'SHA-256' = '" + strings.Repeat("ab", 32) + "']",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing pattern %q in:\n%s", want, joined)
		}
	}

	idents := b.ByType(stix.TypeIdentity)
	if len(idents) != 1 || idents[0].(*stix.Identity).Name != "CAISP" {
		t.Fatalf("identity conversion wrong: %+v", idents)
	}
}

func TestToSTIXDeterministicIDs(t *testing.T) {
	e := sampleEvent(t)
	b1, err := ToSTIX(e)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := ToSTIX(e)
	if err != nil {
		t.Fatal(err)
	}
	v1 := b1.ByType(stix.TypeVulnerability)[0].GetCommon().ID
	v2 := b2.ByType(stix.TypeVulnerability)[0].GetCommon().ID
	if v1 != v2 {
		t.Fatalf("vulnerability ids differ across conversions: %s vs %s", v1, v2)
	}
}

func TestToSTIXMalwareTag(t *testing.T) {
	e := NewEvent("Emotet drop", now)
	e.AddTag(tagMalware)
	e.AddAttribute("domain", "Network activity", "emotet-c2.example", now)
	b, err := ToSTIX(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.ByType(stix.TypeMalware)) != 1 {
		t.Fatalf("malware SDO missing")
	}
	rels := b.ByType(stix.TypeRelationship)
	if len(rels) != 1 {
		t.Fatalf("got %d relationships, want 1", len(rels))
	}
	rel := rels[0].(*stix.Relationship)
	if rel.RelationshipType != "indicates" {
		t.Fatalf("relationship type = %q", rel.RelationshipType)
	}
}

func TestToSTIXEmptyEventFails(t *testing.T) {
	e := NewEvent("empty", now)
	if _, err := ToSTIX(e); err == nil {
		t.Fatal("empty event converted successfully")
	}
}

func TestFromSTIXRoundTrip(t *testing.T) {
	e := sampleEvent(t)
	b, err := ToSTIX(e)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromSTIX(b, now)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.FindAttribute("vulnerability"); got == nil || got.Value != "CVE-2017-9805" {
		t.Fatalf("vulnerability attribute lost: %+v", got)
	}
	if got := back.FindAttribute("domain"); got == nil || got.Value != "struts-exploit.example" {
		t.Fatalf("domain attribute lost: %+v", got)
	}
	if got := back.FindAttribute("ip-dst"); got == nil || got.Value != "203.0.113.7" {
		t.Fatalf("ip attribute lost: %+v", got)
	}
	if got := back.FindAttribute("sha256"); got == nil {
		t.Fatal("sha256 attribute lost")
	}
	if got := back.FindAttribute("cvss-vector"); got == nil {
		t.Fatal("cvss vector lost")
	}
	if back.Orgc == nil || back.Orgc.Name != "CAISP" {
		t.Fatalf("orgc lost: %+v", back.Orgc)
	}
}

func TestFromSTIXUnrecognisedPatternKept(t *testing.T) {
	ind := stix.NewIndicator("[x:y > 5 AND a:b = 'c']", []string{"malicious-activity"}, now)
	b := stix.NewBundle(ind)
	e, err := FromSTIX(b, now)
	if err != nil {
		t.Fatal(err)
	}
	got := e.FindAttribute("stix2-pattern")
	if got == nil || got.Value != "[x:y > 5 AND a:b = 'c']" {
		t.Fatalf("complex pattern not preserved: %+v", got)
	}
}

func TestFromSTIXEmptyBundleFails(t *testing.T) {
	if _, err := FromSTIX(stix.NewBundle(), now); err == nil {
		t.Fatal("empty bundle converted successfully")
	}
}

func TestPatternToAttribute(t *testing.T) {
	tests := []struct {
		give      string
		wantType  string
		wantValue string
		wantOK    bool
	}{
		{give: "[domain-name:value = 'evil.example']", wantType: "domain", wantValue: "evil.example", wantOK: true},
		{give: "[ipv4-addr:value = '10.0.0.1']", wantType: "ip-dst", wantValue: "10.0.0.1", wantOK: true},
		{give: "[url:value = 'http://x.example/a']", wantType: "url", wantValue: "http://x.example/a", wantOK: true},
		{give: "[file:hashes.'SHA-256' = 'abcd']", wantType: "sha256", wantValue: "abcd", wantOK: true},
		{give: "[x:y != 'v']", wantOK: false},
		{give: "[x:y > 5]", wantOK: false},
		{give: "[a:b = 'x' AND c:d = 'y']", wantOK: false},
		{give: "not a pattern", wantOK: false},
	}
	for _, tt := range tests {
		typ, val, ok := patternToAttribute(tt.give)
		if ok != tt.wantOK {
			t.Errorf("patternToAttribute(%q) ok = %v, want %v", tt.give, ok, tt.wantOK)
			continue
		}
		if ok && (typ != tt.wantType || val != tt.wantValue) {
			t.Errorf("patternToAttribute(%q) = %q,%q want %q,%q", tt.give, typ, val, tt.wantType, tt.wantValue)
		}
	}
}

func TestVulnerabilityObjectConversion(t *testing.T) {
	e := NewEvent("advisory with MISP object", now)
	obj := e.AddObject("vulnerability", "vulnerability")
	obj.AddAttribute("vulnerability", "External analysis", "CVE-2017-9805", now).Comment = "struts RCE"
	obj.AddAttribute("cvss-vector", "External analysis", "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H", now)
	obj.AddAttribute("text", "Other", "os:debian", now)
	obj.AddAttribute("text", "Other", "products:apache struts,apache", now)
	obj.AddAttribute("link", "External analysis", "https://capec.mitre.example/248", now)

	b, err := ToSTIX(e)
	if err != nil {
		t.Fatal(err)
	}
	vulns := b.ByType(stix.TypeVulnerability)
	if len(vulns) != 1 {
		t.Fatalf("vulnerabilities = %d", len(vulns))
	}
	v := vulns[0].(*stix.Vulnerability)
	if v.Name != "CVE-2017-9805" || v.Description != "struts RCE" {
		t.Fatalf("sdo = %+v", v)
	}
	if vec, _ := v.ExtraString("x_caisp_cvss_vector"); !strings.HasPrefix(vec, "CVSS:3.0/") {
		t.Fatalf("cvss lost: %q", vec)
	}
	if osName, _ := v.ExtraString("x_caisp_os"); osName != "debian" {
		t.Fatalf("os lost: %q", osName)
	}
	if products, _ := v.ExtraString("x_caisp_products"); products == "" {
		t.Fatal("products lost")
	}
	known := 0
	for _, ref := range v.ExternalReferences {
		if ref.SourceName == "cve" || ref.SourceName == "capec" {
			known++
		}
	}
	if known < 2 {
		t.Fatalf("references = %+v", v.ExternalReferences)
	}
	// Objects without a vulnerability id are skipped.
	e2 := NewEvent("empty object", now)
	e2.AddObject("vulnerability", "vulnerability")
	e2.AddAttribute("domain", "Network activity", "x.example", now)
	b2, err := ToSTIX(e2)
	if err != nil {
		t.Fatal(err)
	}
	if len(b2.ByType(stix.TypeVulnerability)) != 0 {
		t.Fatal("id-less object converted")
	}
}

func TestObjectValidation(t *testing.T) {
	e := sampleEvent(t)
	obj := e.AddObject("vulnerability", "vulnerability")
	obj.AddAttribute("vulnerability", "External analysis", "CVE-2020-0001", now)
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	e.Objects[0].UUID = "broken"
	if err := e.Validate(); err == nil {
		t.Fatal("bad object uuid accepted")
	}
	e.Objects[0].UUID = e.UUID // valid uuid again
	e.Objects[0].Name = ""
	if err := e.Validate(); err == nil {
		t.Fatal("empty object name accepted")
	}
}

func TestTLPMarkingApplied(t *testing.T) {
	e := sampleEvent(t) // carries tlp:white
	b, err := ToSTIX(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range b.Objects {
		refs := obj.GetCommon().ObjectMarkingRefs
		if len(refs) != 1 || refs[0] != stix.TLPWhiteID {
			t.Fatalf("%s markings = %v", obj.GetCommon().ID, refs)
		}
	}
	// Unknown TLP levels and untagged events leave markings empty.
	e2 := NewEvent("untagged", now)
	e2.AddAttribute("domain", "Network activity", "x.example", now)
	b2, err := ToSTIX(e2)
	if err != nil {
		t.Fatal(err)
	}
	if got := b2.Objects[0].GetCommon().ObjectMarkingRefs; len(got) != 0 {
		t.Fatalf("untagged markings = %v", got)
	}
}

func TestAttributeCorrelates(t *testing.T) {
	tests := []struct {
		typ, value string
		want       bool
	}{
		{"domain", "evil.example", true},
		{"ip-dst", "198.51.100.7", true},
		{"vulnerability", "CVE-2017-9805", true},
		{"link", "https://nvd.nist.gov/vuln/detail/CVE-2017-9805", true},
		{"text", "ET TROJAN beacon", true}, // an indicator of unknown type
		{"text", "os:debian", false},
		{"text", "products:apache,struts", false},
		{"text", "classification:phishing confidence:0.91", false},
		{"comment", "threat-score:0.6250", false},
		{"comment", "decayed-score:0.3125", false},
		{"comment", "analyst note", false},
		{"cvss-vector", "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", false},
	}
	for _, tt := range tests {
		a := Attribute{Type: tt.typ, Value: tt.value}
		if got := a.Correlates(); got != tt.want {
			t.Errorf("%s %q: Correlates = %v, want %v", tt.typ, tt.value, got, tt.want)
		}
	}
}

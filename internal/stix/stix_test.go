package stix

import (
	"crypto/sha1"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/uuid"
)

var testTime = time.Date(2017, 9, 13, 10, 30, 0, 0, time.UTC)

func TestNewIDShape(t *testing.T) {
	id := NewID(TypeIndicator)
	typ, _, err := ParseID(id)
	if err != nil {
		t.Fatalf("ParseID(%q): %v", id, err)
	}
	if typ != TypeIndicator {
		t.Fatalf("type = %q, want indicator", typ)
	}
	if id == NewID(TypeIndicator) {
		t.Fatal("two NewID calls returned the same id")
	}
}

func TestDeterministicID(t *testing.T) {
	a := DeterministicID(TypeVulnerability, "CVE-2017-9805")
	b := DeterministicID(TypeVulnerability, "CVE-2017-9805")
	if a != b {
		t.Fatalf("deterministic ids differ: %s vs %s", a, b)
	}
	if !ValidID(a) {
		t.Fatalf("deterministic id %q is not valid", a)
	}
	c := DeterministicID(TypeVulnerability, "CVE-2017-9804")
	if a == c {
		t.Fatal("distinct names produced the same deterministic id")
	}
	d := DeterministicID(TypeIndicator, "CVE-2017-9805")
	if a == d {
		t.Fatal("distinct types produced the same deterministic id")
	}
}

// TestDeterministicIDMatchesFormula holds DeterministicID to the formula
// it has always computed — type "--" UUIDv5(NamespaceCAISP, type "/"
// name) in canonical text — built here with a streaming SHA-1 and string
// concatenation, on short, long (past any stack buffer) and non-UTF-8
// names.
func TestDeterministicIDMatchesFormula(t *testing.T) {
	formula := func(typ, name string) string {
		h := sha1.New()
		h.Write(uuid.NamespaceCAISP[:])
		h.Write([]byte(typ + "/" + name))
		sum := h.Sum(nil)[:16]
		sum[6] = (sum[6] & 0x0f) | 0x50
		sum[8] = (sum[8] & 0x3f) | 0x80
		x := hex.EncodeToString(sum)
		return typ + "--" + x[0:8] + "-" + x[8:12] + "-" + x[12:16] + "-" + x[16:20] + "-" + x[20:32]
	}
	names := []string{"", "CVE-2017-9805", "md5:" + strings.Repeat("ab", 16),
		"url:http://" + strings.Repeat("long.", 60) + "example/", "\xff\x00'"}
	for _, typ := range []string{TypeIndicator, TypeVulnerability, TypeIdentity, strings.Repeat("x", 130)} {
		for _, name := range names {
			if got, want := DeterministicID(typ, name), formula(typ, name); got != want {
				t.Fatalf("DeterministicID(%q, %q) = %s, want %s", typ, name, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { DeterministicID(TypeIndicator, "domain:evil.example") }); n != 1 {
		t.Fatalf("DeterministicID allocates %v times, want 1 (the result)", n)
	}
}

func TestParseIDErrors(t *testing.T) {
	tests := []string{
		"",
		"indicator",
		"indicator--",
		"indicator--not-a-uuid",
		"--6ba7b810-9dad-11d1-80b4-00c04fd430c8",
	}
	for _, give := range tests {
		if _, _, err := ParseID(give); err == nil {
			t.Errorf("ParseID(%q) succeeded, want error", give)
		}
	}
}

func TestTimestampFormat(t *testing.T) {
	ts := TS(time.Date(2017, 9, 13, 7, 5, 4, 123456789, time.UTC))
	b, err := json.Marshal(ts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(b), `"2017-09-13T07:05:04.123Z"`; got != want {
		t.Fatalf("marshal = %s, want %s", got, want)
	}
	var back Timestamp
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(ts.Truncate(time.Millisecond)) {
		t.Fatalf("round trip = %v, want %v", back, ts)
	}
}

func TestTimestampUnmarshalVariants(t *testing.T) {
	tests := []struct {
		give    string
		wantErr bool
	}{
		{give: `"2017-09-13T07:05:04Z"`},
		{give: `"2017-09-13T07:05:04.123456Z"`},
		{give: `"2017-09-13T09:05:04+02:00"`},
		{give: `null`},
		{give: `"yesterday"`, wantErr: true},
	}
	for _, tt := range tests {
		var ts Timestamp
		err := json.Unmarshal([]byte(tt.give), &ts)
		if (err != nil) != tt.wantErr {
			t.Errorf("Unmarshal(%s) error = %v, wantErr %v", tt.give, err, tt.wantErr)
		}
	}
}

func TestMarshalRoundTripPreservesCustomProperties(t *testing.T) {
	v := NewVulnerability(NewID(TypeVulnerability), "CVE-2017-9805", "Apache Struts RCE", testTime)
	v.ExternalReferences = []ExternalReference{
		{SourceName: "cve", ExternalID: "CVE-2017-9805"},
		{SourceName: "capec", ExternalID: "CAPEC-248"},
	}
	v.SetExtra("x_caisp_threat_score", 2.7406)
	v.SetExtra("x_caisp_criteria", map[string]any{"relevance": "high"})

	data, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	back, ok := obj.(*Vulnerability)
	if !ok {
		t.Fatalf("decoded %T, want *Vulnerability", obj)
	}
	if back.Name != v.Name || back.Description != v.Description {
		t.Fatalf("core fields lost: %+v", back)
	}
	if len(back.ExternalReferences) != 2 {
		t.Fatalf("external references lost: %+v", back.ExternalReferences)
	}
	score, ok := back.ExtraFloat("x_caisp_threat_score")
	if !ok || score != 2.7406 {
		t.Fatalf("custom score = %v (%v), want 2.7406", score, ok)
	}
	// Second round trip must be byte-identical (canonical sorted output).
	data2, err := Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("marshal not canonical:\n%s\n%s", data, data2)
	}
}

func TestUnmarshalAllSDOTypes(t *testing.T) {
	for _, typ := range SDOTypes {
		obj := New(typ)
		if obj == nil {
			t.Fatalf("New(%q) = nil", typ)
		}
		c := obj.GetCommon()
		c.Type = typ
		c.ID = NewID(typ)
		c.Created = TS(testTime)
		c.Modified = TS(testTime)
		data, err := Marshal(obj)
		if err != nil {
			t.Fatalf("Marshal(%s): %v", typ, err)
		}
		back, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("Unmarshal(%s): %v", typ, err)
		}
		if back.GetCommon().Type != typ {
			t.Fatalf("round trip type = %q, want %q", back.GetCommon().Type, typ)
		}
	}
}

func TestUnmarshalUnknownType(t *testing.T) {
	_, err := Unmarshal([]byte(`{"type":"grouping","id":"grouping--x"}`))
	if err == nil {
		t.Fatal("Unmarshal of unknown type succeeded")
	}
}

func TestBundleRoundTrip(t *testing.T) {
	ind := NewIndicator(NewID(TypeIndicator), "[domain-name:value = 'evil.example']", []string{"malicious-activity"}, testTime)
	mal := NewMalware("emotet", []string{"trojan"}, testTime)
	rel := NewRelationship("indicates", ind.ID, mal.ID, testTime)
	b := NewBundle(ind, mal, rel)

	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Objects) != 3 {
		t.Fatalf("decoded %d objects, want 3", len(back.Objects))
	}
	if back.ID != b.ID || back.SpecVersion != "2.0" {
		t.Fatalf("bundle header lost: %+v", back)
	}
	if got := back.ByType(TypeMalware); len(got) != 1 || got[0].GetCommon().ID != mal.ID {
		t.Fatalf("ByType(malware) = %v, want %s", got, mal.ID)
	}
	if got := len(back.ByType(TypeIndicator)); got != 1 {
		t.Fatalf("ByType(indicator) returned %d objects, want 1", got)
	}
}

func TestBundleSkipsUnknownObjectTypes(t *testing.T) {
	raw := `{
		"type": "bundle",
		"id": "bundle--6ba7b810-9dad-11d1-80b4-00c04fd430c8",
		"spec_version": "2.0",
		"objects": [
			{"type": "grouping", "id": "grouping--6ba7b810-9dad-11d1-80b4-00c04fd430c8"},
			{"type": "vulnerability", "id": "vulnerability--6ba7b810-9dad-11d1-80b4-00c04fd430c8",
			 "created": "2017-09-13T00:00:00.000Z", "modified": "2017-09-13T00:00:00.000Z",
			 "name": "CVE-2017-9805"}
		]
	}`
	b, err := ParseBundle([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Objects) != 1 {
		t.Fatalf("decoded %d objects, want 1 (unknown type skipped)", len(b.Objects))
	}
}

func TestBundleRejectsNonBundle(t *testing.T) {
	if _, err := ParseBundle([]byte(`{"type":"report","id":"report--x"}`)); err == nil {
		t.Fatal("ParseBundle accepted a non-bundle")
	}
}

func TestValidateAcceptsBuilders(t *testing.T) {
	objs := []Object{
		NewVulnerability(NewID(TypeVulnerability), "CVE-2017-9805", "", testTime),
		NewIndicator(NewID(TypeIndicator), "[ipv4-addr:value = '10.0.0.1']", []string{"malicious-activity"}, testTime),
		NewMalware("wannacry", []string{"ransomware"}, testTime),
		NewAttackPattern("spearphishing", testTime),
		NewIdentity(NewID(TypeIdentity), "ACME SOC", "organization", testTime),
		NewTool("nmap", []string{"remote-access"}, testTime),
	}
	for _, o := range objs {
		if err := Validate(o); err != nil {
			t.Errorf("Validate(%s): %v", o.GetCommon().Type, err)
		}
	}
}

func TestValidateProblems(t *testing.T) {
	tests := []struct {
		name string
		obj  Object
		want string
	}{
		{
			name: "missing name",
			obj: &Vulnerability{Common: Common{
				Type: TypeVulnerability, ID: NewID(TypeVulnerability),
				Created: TS(testTime), Modified: TS(testTime),
			}},
			want: "missing name",
		},
		{
			name: "id type mismatch",
			obj: &Vulnerability{Common: Common{
				Type: TypeVulnerability, ID: NewID(TypeMalware),
				Created: TS(testTime), Modified: TS(testTime),
			}, Name: "x"},
			want: "does not match",
		},
		{
			name: "modified before created",
			obj: &Vulnerability{Common: Common{
				Type: TypeVulnerability, ID: NewID(TypeVulnerability),
				Created: TS(testTime), Modified: TS(testTime.Add(-time.Hour)),
			}, Name: "x"},
			want: "precedes",
		},
		{
			name: "indicator without pattern",
			obj: &Indicator{Common: Common{
				Type: TypeIndicator, ID: NewID(TypeIndicator),
				Created: TS(testTime), Modified: TS(testTime),
				Labels: []string{"malicious-activity"},
			}, ValidFrom: TS(testTime)},
			want: "missing pattern",
		},
		{
			name: "identity with bad class",
			obj: &Identity{Common: Common{
				Type: TypeIdentity, ID: NewID(TypeIdentity),
				Created: TS(testTime), Modified: TS(testTime),
			}, Name: "x", IdentityClass: "martian"},
			want: "not in open vocabulary",
		},
		{
			name: "relationship with bad refs",
			obj: &Relationship{Common: Common{
				Type: TypeRelationship, ID: NewID(TypeRelationship),
				Created: TS(testTime), Modified: TS(testTime),
			}, RelationshipType: "indicates", SourceRef: "nope", TargetRef: "nope"},
			want: "malformed source_ref",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := Validate(tt.obj)
			if err == nil {
				t.Fatal("Validate returned nil, want error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestValidateBundleDuplicateIDs(t *testing.T) {
	v := NewVulnerability(NewID(TypeVulnerability), "CVE-2017-9805", "", testTime)
	b := NewBundle(v, v)
	err := ValidateBundle(b)
	if err == nil || !strings.Contains(err.Error(), "duplicate object id") {
		t.Fatalf("ValidateBundle error = %v, want duplicate id complaint", err)
	}
}

func TestExtraAccessors(t *testing.T) {
	var c Common
	if _, ok := c.ExtraString("missing"); ok {
		t.Fatal("ExtraString on empty Extra reported ok")
	}
	c.SetExtra("s", "hello")
	c.SetExtra("f", 1.5)
	c.SetExtra("i", 7)
	if s, ok := c.ExtraString("s"); !ok || s != "hello" {
		t.Fatalf("ExtraString = %q, %v", s, ok)
	}
	if f, ok := c.ExtraFloat("f"); !ok || f != 1.5 {
		t.Fatalf("ExtraFloat(f) = %v, %v", f, ok)
	}
	if f, ok := c.ExtraFloat("i"); !ok || f != 7 {
		t.Fatalf("ExtraFloat(i) = %v, %v", f, ok)
	}
	if _, ok := c.ExtraFloat("s"); ok {
		t.Fatal("ExtraFloat on a string reported ok")
	}
}

func TestMarshalStructFieldsWinOverExtra(t *testing.T) {
	v := NewVulnerability(NewID(TypeVulnerability), "real-name", "", testTime)
	v.SetExtra("name", "spoofed")
	data, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m["name"] != "real-name" {
		t.Fatalf("name = %v, want struct field to win", m["name"])
	}
}

func TestTLPMarkings(t *testing.T) {
	for _, level := range []string{"white", "green", "amber", "red"} {
		m := TLPMarking(level)
		if m == nil {
			t.Fatalf("TLPMarking(%q) = nil", level)
		}
		if m.DefinitionType != "tlp" || m.Definition["tlp"] != level {
			t.Fatalf("marking = %+v", m)
		}
		if !ValidID(m.ID) {
			t.Fatalf("marking id %q invalid", m.ID)
		}
	}
	if TLPMarking("chartreuse") != nil {
		t.Fatal("unknown TLP level produced a marking")
	}
	// The predefined ids are distinct.
	ids := map[string]bool{TLPWhiteID: true, TLPGreenID: true, TLPAmberID: true, TLPRedID: true}
	if len(ids) != 4 {
		t.Fatal("TLP ids collide")
	}
}

func TestValidateRemainingSDOs(t *testing.T) {
	mk := func(typ string) Common {
		return Common{
			Type: typ, ID: NewID(typ),
			Created: TS(testTime), Modified: TS(testTime),
		}
	}
	tests := []struct {
		name string
		obj  Object
		want string // "" means valid
	}{
		{name: "campaign ok", obj: &Campaign{Common: mk(TypeCampaign), Name: "c"}},
		{name: "campaign unnamed", obj: &Campaign{Common: mk(TypeCampaign)}, want: "missing name"},
		{name: "course-of-action ok", obj: &CourseOfAction{Common: mk(TypeCourseOfAction), Name: "block"}},
		{name: "intrusion-set unnamed", obj: &IntrusionSet{Common: mk(TypeIntrusionSet)}, want: "missing name"},
		{
			name: "threat-actor unlabeled",
			obj:  &ThreatActor{Common: mk(TypeThreatActor), Name: "apt"},
			want: "missing labels",
		},
		{
			name: "observed-data bad count",
			obj: &ObservedData{
				Common:        mk(TypeObservedData),
				FirstObserved: TS(testTime), LastObserved: TS(testTime),
				NumberObserved: 0,
				Objects:        map[string]any{"0": map[string]any{"type": "ipv4-addr"}},
			},
			want: "number_observed",
		},
		{
			name: "observed-data ok",
			obj: &ObservedData{
				Common:        mk(TypeObservedData),
				FirstObserved: TS(testTime), LastObserved: TS(testTime),
				NumberObserved: 1,
				Objects:        map[string]any{"0": map[string]any{"type": "ipv4-addr"}},
			},
		},
		{
			name: "report missing refs",
			obj:  &Report{Common: mk(TypeReport), Name: "r", Published: TS(testTime)},
			want: "missing object_refs",
		},
		{
			name: "sighting negative count",
			obj: &Sighting{
				Common:        mk(TypeSighting),
				SightingOfRef: NewID(TypeIndicator),
				Count:         -1,
			},
			want: "non-negative",
		},
		{
			name: "sighting ok",
			obj: &Sighting{
				Common:        mk(TypeSighting),
				SightingOfRef: NewID(TypeIndicator),
				Count:         3,
			},
		},
		{
			name: "indicator valid_until before valid_from",
			obj: &Indicator{
				Common: Common{
					Type: TypeIndicator, ID: NewID(TypeIndicator),
					Created: TS(testTime), Modified: TS(testTime),
					Labels: []string{"malicious-activity"},
				},
				Pattern:    "[a:b = 'x']",
				ValidFrom:  TS(testTime),
				ValidUntil: TS(testTime.Add(-time.Hour)),
			},
			want: "must be after",
		},
		{
			name: "external reference missing source",
			obj: func() Object {
				v := NewVulnerability(NewID(TypeVulnerability), "CVE-2020-1", "", testTime)
				v.ExternalReferences = []ExternalReference{{URL: "https://x.example"}}
				return v
			}(),
			want: "missing source_name",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := Validate(tt.obj)
			if tt.want == "" {
				if err != nil {
					t.Fatalf("valid object rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error = %v, want mention of %q", err, tt.want)
			}
		})
	}
}

func TestBuilderSightingAndRelationship(t *testing.T) {
	ind := NewIndicator(NewID(TypeIndicator), "[a:b = 'x']", []string{"malicious-activity"}, testTime)
	s := &Sighting{Common: newCommon(TypeSighting, testTime), SightingOfRef: ind.ID, Count: 2}
	if err := Validate(s); err != nil {
		t.Fatal(err)
	}
	if s.Count != 2 || s.SightingOfRef != ind.ID {
		t.Fatalf("sighting = %+v", s)
	}
}

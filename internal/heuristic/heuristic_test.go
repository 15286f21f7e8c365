package heuristic

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/stix"
)

// TestTableI reproduces the paper's Table I: three heuristics of five
// features with fixed weights P = (0.10, 0.25, 0.40, 0.15, 0.10).
func TestTableI(t *testing.T) {
	weights := []float64{0.10, 0.25, 0.40, 0.15, 0.10}
	tests := []struct {
		name   string
		values []float64
		want   float64
	}{
		{name: "H1", values: []float64{3, 4, 3, 1, 5}, want: 3.15},
		{name: "H2", values: []float64{5, 2, 2, 4, 0}, want: 1.92},
		{name: "H3", values: []float64{1, 1, 2, 3, 3}, want: 1.90},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := StaticScore(tt.values, weights)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-tt.want) > 1e-9 {
				t.Fatalf("TS = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestStaticScoreValidation(t *testing.T) {
	if _, err := StaticScore([]float64{1}, []float64{0.5, 0.5}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := StaticScore(nil, nil); err == nil {
		t.Fatal("empty vectors accepted")
	}
	if _, err := StaticScore([]float64{6}, []float64{1}); err == nil {
		t.Fatal("out-of-range value accepted")
	}
	if _, err := StaticScore([]float64{-1}, []float64{1}); err == nil {
		t.Fatal("negative value accepted")
	}
	if _, err := StaticScore([]float64{1}, []float64{-1}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestStaticScoreBoundsQuick(t *testing.T) {
	// Property: for values in [0,5] and weights summing to 1, 0 ≤ TS ≤ 5.
	cfg := &quick.Config{
		Values: func(args []reflect.Value, r *rand.Rand) {
			n := 1 + r.Intn(10)
			values := make([]float64, n)
			weights := make([]float64, n)
			var sum float64
			for i := range values {
				values[i] = float64(r.Intn(6))
				weights[i] = r.Float64()
				sum += weights[i]
			}
			if sum > 0 {
				for i := range weights {
					weights[i] /= sum
				}
			}
			args[0] = reflect.ValueOf(values)
			args[1] = reflect.ValueOf(weights)
		},
	}
	f := func(values, weights []float64) bool {
		ts, err := StaticScore(values, weights)
		return err == nil && ts >= 0 && ts <= MaxScore
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestTableII checks the six heuristics and their Table II feature lists.
func TestTableII(t *testing.T) {
	e := NewEngine()
	wantTypes := []string{
		stix.TypeAttackPattern, stix.TypeIdentity, stix.TypeIndicator,
		stix.TypeMalware, stix.TypeTool, stix.TypeVulnerability,
	}
	if got := e.SupportedTypes(); !reflect.DeepEqual(got, wantTypes) {
		t.Fatalf("SupportedTypes = %v, want %v", got, wantTypes)
	}
	wantFeatures := map[string][]string{
		stix.TypeAttackPattern: {
			"attack_type", "detection_tool", "modified", "created",
			"valid_from", "external_reference", "kill_chain_phases",
			"osint_source", "source_type",
		},
		stix.TypeIdentity: {
			"identity_class", "name", "sectors", "modified", "created",
			"valid_from", "location", "osint_source", "source_type",
		},
		stix.TypeIndicator: {
			"indicator_type", "modified", "created", "valid_from",
			"external_reference", "kill_chain_phases", "pattern",
			"osint_source", "source_type",
		},
		stix.TypeMalware: {
			"category", "status", "operating_system", "modified", "created",
			"valid_from", "external_reference", "kill_chain_phases",
			"osint_source", "source_type",
		},
		stix.TypeTool: {
			"tool_type", "name", "modified", "created", "valid_from",
			"kill_chain_phases", "osint_source", "source_type",
		},
		stix.TypeVulnerability: {
			"operating_system", "source_diversity", "application",
			"vuln_app_in_alarm", "modified", "valid_from", "valid_until",
			"external_references", "cve",
		},
	}
	for typ, want := range wantFeatures {
		h := e.Heuristic(typ)
		if h == nil {
			t.Fatalf("heuristic for %s missing", typ)
		}
		var got []string
		for _, f := range h.Features {
			got = append(got, f.Name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s features = %v, want %v", typ, got, want)
		}
	}
}

// evalTime is the paper's implicit evaluation instant: the IoC (created
// 2017-09-13) is in the "last_year" recency bucket.
var evalTime = time.Date(2018, 6, 1, 12, 0, 0, 0, time.UTC)

// useCaseIoC builds the §IV CVE-2017-9805 vulnerability IoC.
func useCaseIoC() *stix.Vulnerability {
	created := time.Date(2017, 9, 13, 0, 0, 0, 0, time.UTC)
	v := stix.NewVulnerability(
		"CVE-2017-9805",
		"Apache Struts REST plugin XStream RCE via crafted POST body",
		created,
	)
	v.ExternalReferences = []stix.ExternalReference{
		{SourceName: "capec", ExternalID: "CAPEC-248"},
		{SourceName: "cve", ExternalID: "CVE-2017-9805"},
	}
	v.SetExtra(PropOS, "debian")
	v.SetExtra(PropProducts, "apache struts,apache")
	v.SetExtra(PropCVSSVector, "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H")
	v.SetExtra(PropSourceType, "osint")
	return v
}

func useCaseEngine(t *testing.T) (*Engine, *infra.Collector) {
	t.Helper()
	collector, err := infra.NewCollector(infra.PaperInventory())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(
		WithInfrastructure(collector),
		WithClock(clock.NewFake(evalTime)),
	)
	return e, collector
}

// TestTableV reproduces the paper's Table V / §IV-B threat score for the
// remote-code-execution use case.
func TestTableV(t *testing.T) {
	e, _ := useCaseEngine(t)
	res, err := e.Evaluate(useCaseIoC())
	if err != nil {
		t.Fatal(err)
	}

	// Feature values Xi as derived in §IV-B.
	wantValues := map[string]struct {
		value   float64
		present bool
	}{
		"operating_system":    {value: 3, present: true},  // debian
		"source_diversity":    {value: 1, present: true},  // OSINT source
		"application":         {value: 2, present: true},  // apache present on node4
		"vuln_app_in_alarm":   {value: 1, present: true},  // no related alarms
		"modified":            {value: 2, present: true},  // last year
		"valid_from":          {value: 1, present: true},  // last year
		"valid_until":         {value: 0, present: false}, // missing → discarded
		"external_references": {value: 5, present: true},  // CAPEC + CVE known
		"cve":                 {value: 4, present: true},  // CVSS 8.1 = high
	}
	for _, f := range res.Features {
		want, ok := wantValues[f.Name]
		if !ok {
			t.Fatalf("unexpected feature %q", f.Name)
		}
		if f.Value != want.value || f.Present != want.present {
			t.Errorf("feature %s = (%v, %v), want (%v, %v)",
				f.Name, f.Value, f.Present, want.value, want.present)
		}
	}

	// Completeness Cp = 8/9.
	if math.Abs(res.Completeness-8.0/9.0) > 1e-9 {
		t.Fatalf("Cp = %v, want 8/9", res.Completeness)
	}

	// Weights Pi = points/84 (Table V's Pi column).
	wantWeights := map[string]float64{
		"operating_system":    8.0 / 84,
		"source_diversity":    8.0 / 84,
		"application":         12.0 / 84,
		"vuln_app_in_alarm":   8.0 / 84,
		"modified":            4.0 / 84,
		"valid_from":          4.0 / 84,
		"valid_until":         0,
		"external_references": 23.0 / 84,
		"cve":                 17.0 / 84,
	}
	for _, f := range res.Features {
		if math.Abs(f.Weight-wantWeights[f.Name]) > 1e-9 {
			t.Errorf("weight of %s = %v, want %v", f.Name, f.Weight, wantWeights[f.Name])
		}
	}

	// Σ Xi·Pi = 259/84 and TS = 8/9 × 259/84 = 2.7407 (the paper prints
	// 2.7406 from its 4-decimal-rounded Pi values).
	if math.Abs(res.WeightedSum-259.0/84.0) > 1e-9 {
		t.Fatalf("Σ Xi·Pi = %v, want 259/84", res.WeightedSum)
	}
	if res.Score != 2.7407 {
		t.Fatalf("TS = %v, want 2.7407", res.Score)
	}
	if res.Priority() != "medium" {
		t.Fatalf("priority = %q, want medium (paper: average position)", res.Priority())
	}
}

// TestTableVWithPaperRoundedWeights checks that using the paper's printed
// 4-decimal Pi values yields exactly its printed 2.7406.
func TestTableVWithPaperRoundedWeights(t *testing.T) {
	xi := []float64{3, 1, 2, 1, 2, 1, 5, 4}
	pi := []float64{0.0952, 0.0952, 0.1429, 0.0952, 0.0476, 0.0476, 0.2738, 0.2024}
	var sum float64
	for i := range xi {
		sum += xi[i] * pi[i]
	}
	ts := math.Round(8.0/9.0*sum*10000) / 10000
	if ts != 2.7406 {
		t.Fatalf("TS with rounded Pi = %v, want 2.7406", ts)
	}
}

func TestEvaluateUnknownType(t *testing.T) {
	e := NewEngine()
	rep := &stix.Report{Common: stix.Common{Type: stix.TypeReport, ID: stix.NewID(stix.TypeReport)}}
	if _, err := e.Evaluate(rep); err == nil {
		t.Fatal("report evaluated without a heuristic")
	}
}

func TestScoreBoundsAllHeuristicsQuick(t *testing.T) {
	// Property: whatever custom properties an SDO carries, TS ∈ [0, 5].
	e, _ := useCaseEngine(t)
	r := rand.New(rand.NewSource(7))
	builders := []func(time.Time) stix.Object{
		func(ts time.Time) stix.Object { return stix.NewVulnerability("CVE-2020-1234", "x", ts) },
		func(ts time.Time) stix.Object {
			return stix.NewIndicator("[domain-name:value = 'a.example']", []string{"malicious-activity"}, ts)
		},
		func(ts time.Time) stix.Object { return stix.NewMalware("m", []string{"trojan"}, ts) },
		func(ts time.Time) stix.Object { return stix.NewAttackPattern("ap", ts) },
		func(ts time.Time) stix.Object { return stix.NewIdentity("org", "organization", ts) },
		func(ts time.Time) stix.Object { return stix.NewTool("nmap", []string{"scanner"}, ts) },
	}
	for i := 0; i < 200; i++ {
		ts := evalTime.Add(-time.Duration(r.Intn(1000)) * 24 * time.Hour)
		obj := builders[r.Intn(len(builders))](ts)
		if r.Intn(2) == 0 {
			obj.GetCommon().SetExtra(PropOS, []string{"windows", "debian", "beos", ""}[r.Intn(4)])
		}
		if r.Intn(2) == 0 {
			obj.GetCommon().SetExtra(PropProducts, []string{"apache", "iis", "apache,php", ""}[r.Intn(4)])
		}
		if r.Intn(2) == 0 {
			obj.GetCommon().SetExtra(PropCVSSVector, "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")
		}
		if r.Intn(2) == 0 {
			obj.GetCommon().SetExtra(PropSourceType, []string{"osint", "infrastructure", "partner"}[r.Intn(3)])
		}
		res, err := e.Evaluate(obj)
		if err != nil {
			t.Fatal(err)
		}
		if res.Score < 0 || res.Score > MaxScore {
			t.Fatalf("TS out of range: %v for %T", res.Score, obj)
		}
		if res.Completeness < 0 || res.Completeness > 1 {
			t.Fatalf("Cp out of range: %v", res.Completeness)
		}
	}
}

func TestCompletenessDropsWithMissingInfo(t *testing.T) {
	e, _ := useCaseEngine(t)
	full, err := e.Evaluate(useCaseIoC())
	if err != nil {
		t.Fatal(err)
	}
	bare := stix.NewVulnerability("no-cve-name", "", time.Date(2017, 9, 13, 0, 0, 0, 0, time.UTC))
	bareRes, err := e.Evaluate(bare)
	if err != nil {
		t.Fatal(err)
	}
	if bareRes.Completeness >= full.Completeness {
		t.Fatalf("bare Cp %v not below full Cp %v", bareRes.Completeness, full.Completeness)
	}
	if bareRes.Score >= full.Score {
		t.Fatalf("bare TS %v not below full TS %v", bareRes.Score, full.Score)
	}
}

func TestInfrastructureSightingRaisesSourceDiversity(t *testing.T) {
	e, collector := useCaseEngine(t)
	if _, err := collector.AddInternalIoC("CVE-2017-9805", "vulnerability-exploitation", "vuln-scanner", evalTime); err != nil {
		t.Fatal(err)
	}
	res, err := e.Evaluate(useCaseIoC())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Features {
		if f.Name == "source_diversity" && f.Value != 3 {
			t.Fatalf("source_diversity = %v, want 3 after infra sighting", f.Value)
		}
	}
}

func TestAlarmRaisesVulnAppInAlarm(t *testing.T) {
	e, collector := useCaseEngine(t)
	if _, err := collector.AddAlarm(infra.Alarm{
		NodeID: "node4", Severity: infra.SeverityHigh,
		Application: "apache", Description: "struts exploitation attempt",
	}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Evaluate(useCaseIoC())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Features {
		if f.Name == "vuln_app_in_alarm" && f.Value != 2 {
			t.Fatalf("vuln_app_in_alarm = %v, want 2 with matching alarm", f.Value)
		}
	}
}

func TestValidUntilFeature(t *testing.T) {
	e, _ := useCaseEngine(t)
	v := useCaseIoC()
	v.SetExtra(PropValidUntil, evalTime.Add(30*24*time.Hour).Format(time.RFC3339))
	res, err := e.Evaluate(v)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Completeness-1.0) > 1e-9 {
		t.Fatalf("Cp = %v, want 1 with valid_until present", res.Completeness)
	}
	for _, f := range res.Features {
		if f.Name == "valid_until" && (f.Value != 5 || !f.Present) {
			t.Fatalf("valid_until = %+v, want value 5 present", f)
		}
	}
	// Expired.
	v2 := useCaseIoC()
	v2.SetExtra(PropValidUntil, evalTime.Add(-24*time.Hour).Format(time.RFC3339))
	res2, err := e.Evaluate(v2)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res2.Features {
		if f.Name == "valid_until" && f.Value != 1 {
			t.Fatalf("expired valid_until = %v, want 1", f.Value)
		}
	}
}

func TestOperatingSystemBuckets(t *testing.T) {
	e, _ := useCaseEngine(t)
	tests := []struct {
		os   string
		want float64
	}{
		{os: "windows", want: 5},
		{os: "debian", want: 3},
		{os: "centos", want: 3},
		{os: "Ubuntu", want: 3},
		{os: "beos", want: 1},
	}
	for _, tt := range tests {
		v := useCaseIoC()
		v.SetExtra(PropOS, tt.os)
		res, err := e.Evaluate(v)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range res.Features {
			if f.Name == "operating_system" && f.Value != tt.want {
				t.Errorf("os %q = %v, want %v", tt.os, f.Value, tt.want)
			}
		}
	}
}

func TestOSExtractedFromDescription(t *testing.T) {
	e, _ := useCaseEngine(t)
	v := stix.NewVulnerability("CVE-2020-0001", "affects Windows Server installations", evalTime)
	res, err := e.Evaluate(v)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Features {
		if f.Name == "operating_system" && (f.Value != 5 || !f.Present) {
			t.Fatalf("description OS extraction = %+v", f)
		}
	}
}

func TestCVEBands(t *testing.T) {
	e, _ := useCaseEngine(t)
	tests := []struct {
		vector string
		want   float64
	}{
		{vector: "", want: 1}, // CVE present, no CVSS
		{vector: "CVSS:3.1/AV:L/AC:H/PR:H/UI:R/S:U/C:L/I:N/A:N", want: 2}, // low
		{vector: "CVSS:3.1/AV:N/AC:L/PR:L/UI:N/S:U/C:L/I:L/A:N", want: 3}, // medium
		{vector: "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H", want: 4}, // high 8.1
		{vector: "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", want: 5}, // critical
		{vector: "AV:N/AC:L/Au:N/C:P/I:P/A:P", want: 4},                   // v2 7.5 high
	}
	for _, tt := range tests {
		v := useCaseIoC()
		if tt.vector == "" {
			delete(v.Extra, PropCVSSVector)
		} else {
			v.SetExtra(PropCVSSVector, tt.vector)
		}
		res, err := e.Evaluate(v)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range res.Features {
			if f.Name == "cve" && f.Value != tt.want {
				t.Errorf("vector %q → cve = %v, want %v", tt.vector, f.Value, tt.want)
			}
		}
	}
}

func TestIndicatorPatternFeature(t *testing.T) {
	e, collector := useCaseEngine(t)
	if _, err := collector.AddInternalIoC("203.0.113.7", "scanner", "nids", evalTime); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name    string
		pattern string
		want    float64
	}{
		{name: "matches infra", pattern: "[ipv4-addr:value = '203.0.113.7']", want: 5},
		{name: "parseable no match", pattern: "[domain-name:value = 'quiet.example']", want: 3},
		{name: "malformed", pattern: "[[broken", want: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ind := stix.NewIndicator(tt.pattern, []string{"malicious-activity"}, evalTime)
			res, err := e.Evaluate(ind)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range res.Features {
				if f.Name == "pattern" && f.Value != tt.want {
					t.Fatalf("pattern feature = %v, want %v", f.Value, tt.want)
				}
			}
		})
	}
}

func TestPriorityBands(t *testing.T) {
	tests := []struct {
		score float64
		want  string
	}{
		{score: 0, want: "low"},
		{score: 1.66, want: "low"},
		{score: 1.7, want: "medium"},
		{score: 2.74, want: "medium"},
		{score: 3.34, want: "high"},
		{score: 5, want: "high"},
	}
	for _, tt := range tests {
		r := Result{Score: tt.score}
		if got := r.Priority(); got != tt.want {
			t.Errorf("Priority(%v) = %q, want %q", tt.score, got, tt.want)
		}
	}
}

func TestEnrichAndReadBack(t *testing.T) {
	e, _ := useCaseEngine(t)
	v := useCaseIoC()
	res, err := e.Evaluate(v)
	if err != nil {
		t.Fatal(err)
	}
	Enrich(v, res)
	score, ok := ThreatScoreOf(v)
	if !ok || score != res.Score {
		t.Fatalf("ThreatScoreOf = %v, %v", score, ok)
	}
	if prio, ok := v.ExtraString(PropPriority); !ok || prio != "medium" {
		t.Fatalf("priority prop = %q, %v", prio, ok)
	}
	// The enrichment must survive a STIX round trip.
	data, err := stix.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	back, err := stix.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := ThreatScoreOf(back); !ok || got != res.Score {
		t.Fatalf("score lost in round trip: %v, %v", got, ok)
	}
}

// TestEnrichCriteriaGolden pins the wire form of x_caisp_criteria to the
// nested map[string]any Enrich used to build per object: same keys, same
// order, same number formatting, on its own and inside the marshalled SDO.
func TestEnrichCriteriaGolden(t *testing.T) {
	e, _ := useCaseEngine(t)
	v := useCaseIoC()
	res, err := e.Evaluate(v)
	if err != nil {
		t.Fatal(err)
	}
	// A feature name that needs escaping and a repeated one (last wins).
	res.Features = append(res.Features,
		FeatureResult{Name: `odd "name" <&>`, Value: 1.0 / 3, Weight: 1e-9, Present: true},
		FeatureResult{Name: res.Features[0].Name, Value: 2.5, Weight: 0.125})
	nested := make(map[string]any, len(res.Features))
	for _, f := range res.Features {
		nested[f.Name] = map[string]any{"value": f.Value, "weight": f.Weight, "present": f.Present}
	}
	want, err := json.Marshal(nested)
	if err != nil {
		t.Fatal(err)
	}

	Enrich(v, res)
	got, err := json.Marshal(v.Extra[PropCriteria])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("x_caisp_criteria =\n%s\nwant\n%s", got, want)
	}
	sdo, err := stix.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(sdo, append([]byte(`"`+PropCriteria+`":`), want...)) {
		t.Fatalf("marshalled SDO does not carry the criteria object:\n%s", sdo)
	}
}

func TestReduceMatchesNode4(t *testing.T) {
	e, collector := useCaseEngine(t)
	v := useCaseIoC()
	res, err := e.Evaluate(v)
	if err != nil {
		t.Fatal(err)
	}
	Enrich(v, res)
	r, err := Reduce(v, res, collector, evalTime)
	if err != nil {
		t.Fatal(err)
	}
	if r == nil {
		t.Fatal("rIoC not generated for matching IoC")
	}
	if len(r.NodeIDs) != 1 || r.NodeIDs[0] != "node4" {
		t.Fatalf("NodeIDs = %v, want [node4]", r.NodeIDs)
	}
	if r.AllNodes {
		t.Fatal("AllNodes set for specific match")
	}
	if r.CVE != "CVE-2017-9805" || r.ThreatScore != res.Score {
		t.Fatalf("rIoC fields = %+v", r)
	}
	if r.EIoCRef != v.ID {
		t.Fatalf("EIoCRef = %q, want %q", r.EIoCRef, v.ID)
	}
	if _, err := r.JSON(); err != nil {
		t.Fatal(err)
	}
}

func TestReduceCommonKeywordMatchesAllNodes(t *testing.T) {
	e, collector := useCaseEngine(t)
	v := useCaseIoC()
	v.SetExtra(PropProducts, "linux")
	res, err := e.Evaluate(v)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Reduce(v, res, collector, evalTime)
	if err != nil {
		t.Fatal(err)
	}
	if r == nil || !r.AllNodes {
		t.Fatalf("common keyword rIoC = %+v, want AllNodes", r)
	}
	if len(r.NodeIDs) != 4 {
		t.Fatalf("NodeIDs = %v, want all 4", r.NodeIDs)
	}
}

func TestReduceNoMatchSuppressesRIoC(t *testing.T) {
	e, collector := useCaseEngine(t)
	v := useCaseIoC()
	v.SetExtra(PropProducts, "microsoft iis")
	res, err := e.Evaluate(v)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Reduce(v, res, collector, evalTime)
	if err != nil {
		t.Fatal(err)
	}
	if r != nil {
		t.Fatalf("rIoC generated despite no match: %+v", r)
	}
	if _, err := Reduce(v, res, nil, evalTime); err == nil {
		t.Fatal("nil collector accepted")
	}
}

func TestWithHeuristicOverride(t *testing.T) {
	custom := &Heuristic{
		SDOType: stix.TypeVulnerability,
		Features: []FeatureSpec{{
			Name:   "constant",
			Points: CriteriaPoints{Relevance: 1},
			Evaluate: func(*Context, stix.Object) (float64, bool) {
				return 5, true
			},
		}},
	}
	e := NewEngine(WithClock(clock.NewFake(evalTime)))
	e.registry[custom.SDOType] = custom
	res, err := e.Evaluate(useCaseIoC())
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != 5 {
		t.Fatalf("custom heuristic TS = %v, want 5", res.Score)
	}
}

func TestAllFeaturesEmptyYieldsZero(t *testing.T) {
	empty := &Heuristic{
		SDOType: stix.TypeVulnerability,
		Features: []FeatureSpec{{
			Name:   "never",
			Points: CriteriaPoints{Relevance: 1},
			Evaluate: func(*Context, stix.Object) (float64, bool) {
				return 0, false
			},
		}},
	}
	e := NewEngine()
	e.registry[empty.SDOType] = empty
	res, err := e.Evaluate(useCaseIoC())
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != 0 || res.Completeness != 0 {
		t.Fatalf("empty evaluation = %+v", res)
	}
}

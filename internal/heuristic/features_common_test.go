package heuristic

import (
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/stix"
)

// featureValue evaluates obj and returns the named feature's result.
func featureValue(t *testing.T, e *Engine, obj stix.Object, name string) FeatureResult {
	t.Helper()
	res, err := e.Evaluate(obj)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Features {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("feature %q not evaluated", name)
	return FeatureResult{}
}

func TestMalwareHeuristicFeatures(t *testing.T) {
	e, _ := useCaseEngine(t)
	recent := evalTime.Add(-2 * time.Hour)

	m := stix.NewMalware("emotet", []string{"trojan"}, recent)
	if got := featureValue(t, e, m, "category"); got.Value != 5 || !got.Present {
		t.Fatalf("category with vocab label = %+v", got)
	}
	m2 := stix.NewMalware("custom", []string{"weird-label"}, recent)
	if got := featureValue(t, e, m2, "category"); got.Value != 2 {
		t.Fatalf("category with unknown label = %+v", got)
	}

	if got := featureValue(t, e, m, "status"); got.Present {
		t.Fatalf("status without info = %+v, want empty", got)
	}
	m.SetExtra("x_caisp_status", "active")
	if got := featureValue(t, e, m, "status"); got.Value != 5 {
		t.Fatalf("active status = %+v", got)
	}
	m.SetExtra("x_caisp_status", "dormant")
	if got := featureValue(t, e, m, "status"); got.Value != 1 {
		t.Fatalf("inactive status = %+v", got)
	}

	// Recency buckets on a fresh object.
	if got := featureValue(t, e, m, "modified"); got.Value != 5 {
		t.Fatalf("modified (2h ago) = %+v, want 5", got)
	}
	if got := featureValue(t, e, m, "created"); got.Value != 5 {
		t.Fatalf("created (2h ago) = %+v, want 5", got)
	}

	m.KillChainPhases = []stix.KillChainPhase{
		{KillChainName: "lockheed", PhaseName: "delivery"},
	}
	if got := featureValue(t, e, m, "kill_chain_phases"); got.Value != 3 {
		t.Fatalf("one kill chain phase = %+v", got)
	}
	m.KillChainPhases = append(m.KillChainPhases,
		stix.KillChainPhase{KillChainName: "lockheed", PhaseName: "c2"})
	if got := featureValue(t, e, m, "kill_chain_phases"); got.Value != 5 {
		t.Fatalf("two kill chain phases = %+v", got)
	}
}

func TestIdentityHeuristicFeatures(t *testing.T) {
	e, _ := useCaseEngine(t)
	ident := stix.NewIdentity(stix.NewID(stix.TypeIdentity), "ACME SOC", "organization", evalTime.Add(-time.Hour))
	if got := featureValue(t, e, ident, "identity_class"); got.Value != 5 {
		t.Fatalf("organization class = %+v", got)
	}
	ident.IdentityClass = "martian"
	if got := featureValue(t, e, ident, "identity_class"); got.Value != 1 {
		t.Fatalf("unknown class = %+v", got)
	}
	if got := featureValue(t, e, ident, "name"); got.Value != 2 || !got.Present {
		t.Fatalf("name = %+v", got)
	}
	if got := featureValue(t, e, ident, "sectors"); got.Present {
		t.Fatalf("sectors without info = %+v", got)
	}
	ident.Sectors = []string{"finance"}
	if got := featureValue(t, e, ident, "sectors"); got.Value != 3 {
		t.Fatalf("one sector = %+v", got)
	}
	ident.Sectors = append(ident.Sectors, "energy")
	if got := featureValue(t, e, ident, "sectors"); got.Value != 4 {
		t.Fatalf("two sectors = %+v", got)
	}
	if got := featureValue(t, e, ident, "location"); got.Present {
		t.Fatalf("location without info = %+v", got)
	}
	ident.SetExtra("x_caisp_location", "EU")
	if got := featureValue(t, e, ident, "location"); got.Value != 3 {
		t.Fatalf("location = %+v", got)
	}
}

func TestAttackPatternHeuristicFeatures(t *testing.T) {
	e, _ := useCaseEngine(t)
	ap := stix.NewAttackPattern("spearphishing", evalTime.Add(-time.Hour))
	if got := featureValue(t, e, ap, "attack_type"); got.Present {
		t.Fatalf("attack_type without labels = %+v", got)
	}
	ap.Labels = []string{"initial-access"}
	if got := featureValue(t, e, ap, "attack_type"); got.Value != 3 {
		t.Fatalf("one label = %+v", got)
	}
	if got := featureValue(t, e, ap, "detection_tool"); got.Present {
		t.Fatalf("detection_tool without info = %+v", got)
	}
	// A detection tool the infrastructure runs scores high…
	ap.SetExtra("x_caisp_detection_tool", "snort")
	if got := featureValue(t, e, ap, "detection_tool"); got.Value != 5 {
		t.Fatalf("deployed detection tool = %+v", got)
	}
	// … an absent one scores low.
	ap.SetExtra("x_caisp_detection_tool", "darktrace")
	if got := featureValue(t, e, ap, "detection_tool"); got.Value != 2 {
		t.Fatalf("missing detection tool = %+v", got)
	}
}

func TestIndicatorTypeAndSourceFeatures(t *testing.T) {
	e, _ := useCaseEngine(t)
	ind := stix.NewIndicator(stix.NewID(stix.TypeIndicator), "[domain-name:value = 'x.example']",
		[]string{"malicious-activity"}, evalTime.Add(-time.Hour))
	if got := featureValue(t, e, ind, "indicator_type"); got.Value != 5 {
		t.Fatalf("vocab label = %+v", got)
	}
	ind.Labels = []string{"home-grown"}
	if got := featureValue(t, e, ind, "indicator_type"); got.Value != 2 {
		t.Fatalf("non-vocab label = %+v", got)
	}

	if got := featureValue(t, e, ind, "source_type"); got.Present {
		t.Fatalf("source_type without info = %+v", got)
	}
	ind.SetExtra(PropSourceType, "infrastructure")
	if got := featureValue(t, e, ind, "source_type"); got.Value != 5 {
		t.Fatalf("infrastructure source = %+v", got)
	}
	ind.SetExtra(PropSourceType, "osint")
	if got := featureValue(t, e, ind, "source_type"); got.Value != 3 {
		t.Fatalf("osint source = %+v", got)
	}
}

func TestToolHeuristicFeatures(t *testing.T) {
	e, _ := useCaseEngine(t)
	tool := stix.NewTool("nmap", []string{"remote-access", "scanner"}, evalTime.Add(-time.Hour))
	if got := featureValue(t, e, tool, "tool_type"); got.Value != 5 {
		t.Fatalf("two labels = %+v", got)
	}
	if got := featureValue(t, e, tool, "name"); got.Value != 2 {
		t.Fatalf("name = %+v", got)
	}
	res, err := e.Evaluate(tool)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score <= 0 || res.Score > MaxScore {
		t.Fatalf("tool score = %v", res.Score)
	}
}

func TestRecencyScoreBuckets(t *testing.T) {
	tests := []struct {
		age  time.Duration
		want float64
		edge time.Duration // the age at which the bucket ends; 0 for none
	}{
		{age: time.Hour, want: 5, edge: 24 * time.Hour},
		{age: 24 * time.Hour, want: 5, edge: 24 * time.Hour},
		{age: 3 * 24 * time.Hour, want: 4, edge: 7 * 24 * time.Hour},
		{age: 20 * 24 * time.Hour, want: 3, edge: 30 * 24 * time.Hour},
		{age: 200 * 24 * time.Hour, want: 2, edge: 365 * 24 * time.Hour},
		{age: 500 * 24 * time.Hour, want: 1},
	}
	now := time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)
	for _, tt := range tests {
		ctx := &Context{Now: now}
		since := now.Add(-tt.age)
		if got := ageScore(ctx, since, recencyBuckets, 1); got != tt.want {
			t.Errorf("recency of age %v = %v, want %v", tt.age, got, tt.want)
		}
		var until time.Time
		if tt.edge > 0 {
			until = since.Add(tt.edge)
		}
		if !ctx.until.Equal(until) {
			t.Errorf("recency of age %v holds until %v, want %v", tt.age, ctx.until, until)
		}
	}
}

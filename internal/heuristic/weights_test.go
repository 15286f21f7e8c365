package heuristic

import (
	"strings"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/stix"
)

func TestParseWeights(t *testing.T) {
	cfg, err := ParseWeights([]byte(`{
	  "vulnerability": {
	    "cve": {"relevance": 20, "accuracy": 5, "timeliness": 1, "variety": 1}
	  }
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg["vulnerability"]["cve"].Relevance != 20 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if _, err := ParseWeights([]byte(`{bad`)); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ParseWeights([]byte(`{"vulnerability":{"cve":{"relevance":0,"accuracy":0,"timeliness":0,"variety":0}}}`)); err == nil {
		t.Fatal("zero-point feature accepted")
	}
	if _, err := ParseWeights([]byte(`{"vulnerability":{"cve":{"relevance":-1,"accuracy":5,"timeliness":1,"variety":1}}}`)); err == nil {
		t.Fatal("negative points accepted")
	}
}

func TestWithWeightsValidation(t *testing.T) {
	if _, err := WithWeights(WeightsConfig{"grouping": nil}); err == nil || !strings.Contains(err.Error(), "unknown SDO type") {
		t.Fatalf("unknown type accepted: %v", err)
	}
	if _, err := WithWeights(WeightsConfig{
		"vulnerability": {"bogus_feature": CriteriaPoints{Relevance: 1}},
	}); err == nil || !strings.Contains(err.Error(), "unknown feature") {
		t.Fatalf("unknown feature accepted: %v", err)
	}
}

func TestWithWeightsChangesScore(t *testing.T) {
	// Quadruple the cve feature's relevance: the use-case score must rise
	// (cve scores 4 of 5 while several other features score low).
	opt, err := WithWeights(WeightsConfig{
		"vulnerability": {
			"cve": CriteriaPoints{Relevance: 40, Accuracy: 20, Timeliness: 4, Variety: 4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stock, _ := useCaseEngine(t)
	stockRes, err := stock.Evaluate(useCaseIoC())
	if err != nil {
		t.Fatal(err)
	}

	tuned := NewEngine(opt, WithClock(clock.NewFake(evalTime)))
	tunedRes, err := tuned.Evaluate(useCaseIoC())
	if err != nil {
		t.Fatal(err)
	}
	if tunedRes.Score <= stockRes.Score {
		t.Fatalf("tuned score %v not above stock %v", tunedRes.Score, stockRes.Score)
	}

	// The default registry must be untouched: a fresh engine still
	// reproduces the paper's weights.
	fresh, _ := useCaseEngine(t)
	freshRes, err := fresh.Evaluate(useCaseIoC())
	if err != nil {
		t.Fatal(err)
	}
	if freshRes.Score != stockRes.Score {
		t.Fatalf("default registry mutated: %v vs %v", freshRes.Score, stockRes.Score)
	}
	// Other heuristics are unaffected by the override.
	tool := stix.NewTool("nmap", []string{"scanner"}, evalTime.Add(-time.Hour))
	a, err := tuned.Evaluate(tool)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.Evaluate(tool)
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != b.Score {
		t.Fatalf("unrelated heuristic changed: %v vs %v", a.Score, b.Score)
	}
}

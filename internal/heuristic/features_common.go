package heuristic

import (
	"strings"

	"github.com/caisplatform/caisp/internal/stix"
	"github.com/caisplatform/caisp/internal/stixpattern"
)

// DefaultHeuristics builds the six heuristics the paper selects from the
// twelve STIX SDOs (§III-B2a): attack-pattern, identity, indicator,
// malware, tool and vulnerability, with the feature lists of Table II.
// Only the vulnerability heuristic's criteria points are given numerically
// by the paper (Table V); the other heuristics use analogous expert
// assignments documented here.
func DefaultHeuristics() []*Heuristic {
	return []*Heuristic{
		AttackPatternHeuristic(),
		IdentityHeuristic(),
		IndicatorHeuristic(),
		MalwareHeuristic(),
		ToolHeuristic(),
		VulnerabilityHeuristic(),
	}
}

// AttackPatternHeuristic covers Table II's attack-pattern row:
// attack_type, detection_tool, modified, created, valid_from,
// external_reference, kill_chain_phases, osint_source, source_type.
func AttackPatternHeuristic() *Heuristic {
	return &Heuristic{
		SDOType: stix.TypeAttackPattern,
		Features: []FeatureSpec{
			{
				Name:        "attack_type",
				Description: "Attack classification carried by the object's labels",
				Points:      CriteriaPoints{Relevance: 5, Accuracy: 2, Timeliness: 1, Variety: 1},
				Evaluate:    evalLabels,
			},
			{
				Name:        "detection_tool",
				Description: "Whether a detection tool listed by the object runs in the infrastructure",
				Points:      CriteriaPoints{Relevance: 4, Accuracy: 5, Timeliness: 1, Variety: 1},
				Evaluate:    evalDetectionTool,
			},
			featModified(), featCreated(), featValidFrom(),
			featExternalReference(), featKillChain(),
			featOSINTSource(), featSourceType(),
		},
	}
}

// IdentityHeuristic covers Table II's identity row: identity_class, name,
// sectors, modified, created, valid_from, location, osint_source,
// source_type.
func IdentityHeuristic() *Heuristic {
	return &Heuristic{
		SDOType: stix.TypeIdentity,
		Features: []FeatureSpec{
			{
				Name:        "identity_class",
				Description: "Conformance of the identity class to the open vocabulary",
				Points:      CriteriaPoints{Relevance: 5, Accuracy: 2, Timeliness: 1, Variety: 1},
				Evaluate:    evalIdentityClass,
			},
			featName(),
			{
				Name:        "sectors",
				Description: "Industry sectors the identity belongs to",
				Points:      CriteriaPoints{Relevance: 3, Accuracy: 2, Timeliness: 1, Variety: 1},
				Evaluate:    evalSectors,
			},
			featModified(), featCreated(), featValidFrom(),
			{
				Name:        "location",
				Description: "Geographic context of the identity",
				Points:      CriteriaPoints{Relevance: 2, Accuracy: 1, Timeliness: 1, Variety: 1},
				Evaluate:    evalExtraPresence("x_caisp_location", 3),
			},
			featOSINTSource(), featSourceType(),
		},
	}
}

// IndicatorHeuristic covers Table II's indicator row: indicator_type,
// modified, created, valid_from, external_reference, kill_chain_phases,
// pattern, osint_source, source_type.
func IndicatorHeuristic() *Heuristic {
	return &Heuristic{
		SDOType: stix.TypeIndicator,
		Features: []FeatureSpec{
			{
				Name:        "indicator_type",
				Description: "Conformance of the indicator labels to the open vocabulary",
				Points:      CriteriaPoints{Relevance: 5, Accuracy: 2, Timeliness: 1, Variety: 1},
				Evaluate:    evalIndicatorType,
			},
			featModified(), featCreated(), featValidFrom(),
			featExternalReference(), featKillChain(),
			{
				Name:        "pattern",
				Description: "Pattern quality: parseable, and whether it matches infrastructure observations",
				Points:      CriteriaPoints{Relevance: 6, Accuracy: 10, Timeliness: 1, Variety: 2},
				Evaluate:    evalPattern,
			},
			featOSINTSource(), featSourceType(),
		},
	}
}

// MalwareHeuristic covers Table II's malware row: category, status,
// operating_system, modified, created, valid_from, external_reference,
// kill_chain_phases, osint_source, source_type.
func MalwareHeuristic() *Heuristic {
	return &Heuristic{
		SDOType: stix.TypeMalware,
		Features: []FeatureSpec{
			{
				Name:        "category",
				Description: "Malware category carried by the object's labels",
				Points:      CriteriaPoints{Relevance: 5, Accuracy: 2, Timeliness: 1, Variety: 1},
				Evaluate:    evalMalwareCategory,
			},
			{
				Name:        "status",
				Description: "Whether the malware campaign is reported active",
				Points:      CriteriaPoints{Relevance: 3, Accuracy: 2, Timeliness: 2, Variety: 1},
				Evaluate:    evalMalwareStatus,
			},
			{
				Name:        "operating_system",
				Description: "Targeted operating system",
				Points:      CriteriaPoints{Relevance: 5, Accuracy: 1, Timeliness: 1, Variety: 1},
				Evaluate:    evalOperatingSystem,
			},
			featModified(), featCreated(), featValidFrom(),
			featExternalReference(), featKillChain(),
			featOSINTSource(), featSourceType(),
		},
	}
}

// ToolHeuristic covers Table II's tool row: tool_type, name, modified,
// created, valid_from, kill_chain_phases, osint_source, source_type.
func ToolHeuristic() *Heuristic {
	return &Heuristic{
		SDOType: stix.TypeTool,
		Features: []FeatureSpec{
			{
				Name:        "tool_type",
				Description: "Tool classification carried by the object's labels",
				Points:      CriteriaPoints{Relevance: 5, Accuracy: 2, Timeliness: 1, Variety: 1},
				Evaluate:    evalLabels,
			},
			featName(),
			featModified(), featCreated(), featValidFrom(),
			featKillChain(),
			featOSINTSource(), featSourceType(),
		},
	}
}

// --- shared feature constructors ----------------------------------------

func featModified() FeatureSpec {
	return FeatureSpec{
		Name:        "modified",
		Description: "Recency of last modification",
		Points:      CriteriaPoints{Relevance: 1, Accuracy: 1, Timeliness: 1, Variety: 1},
		Evaluate:    evalModifiedRecency,
	}
}

func featCreated() FeatureSpec {
	return FeatureSpec{
		Name:        "created",
		Description: "Recency of creation",
		Points:      CriteriaPoints{Relevance: 1, Accuracy: 1, Timeliness: 1, Variety: 1},
		Evaluate: func(ctx *Context, obj stix.Object) (float64, bool) {
			created := obj.GetCommon().Created.Time
			if created.IsZero() {
				return 0, false
			}
			return ageScore(ctx, created, recencyBuckets, 1), true
		},
	}
}

func featValidFrom() FeatureSpec {
	return FeatureSpec{
		Name:        "valid_from",
		Description: "From when the object is considered valid",
		Points:      CriteriaPoints{Relevance: 1, Accuracy: 1, Timeliness: 1, Variety: 1},
		Evaluate:    evalValidFrom,
	}
}

func featExternalReference() FeatureSpec {
	return FeatureSpec{
		Name:        "external_reference",
		Description: "External references checked against the known-source inventory",
		Points:      CriteriaPoints{Relevance: 4, Accuracy: 6, Timeliness: 1, Variety: 3},
		Evaluate:    evalExternalReferences,
	}
}

func featKillChain() FeatureSpec {
	return FeatureSpec{
		Name:        "kill_chain_phases",
		Description: "Kill chain placement of the object",
		Points:      CriteriaPoints{Relevance: 3, Accuracy: 1, Timeliness: 1, Variety: 1},
		Evaluate:    evalKillChain,
	}
}

func featOSINTSource() FeatureSpec {
	return FeatureSpec{
		Name:        "osint_source",
		Description: "Source diversity of the report",
		Points:      CriteriaPoints{Relevance: 3, Accuracy: 1, Timeliness: 1, Variety: 3},
		Evaluate:    evalSourceDiversity,
	}
}

func featSourceType() FeatureSpec {
	return FeatureSpec{
		Name:        "source_type",
		Description: "Kind of the producing source (infrastructure-confirmed data ranks higher)",
		Points:      CriteriaPoints{Relevance: 2, Accuracy: 1, Timeliness: 1, Variety: 2},
		Evaluate: func(_ *Context, obj stix.Object) (float64, bool) {
			srcType, ok := obj.GetCommon().ExtraString(PropSourceType)
			if !ok || srcType == "" {
				return 0, false
			}
			if strings.EqualFold(srcType, "infrastructure") {
				return 5, true
			}
			return 3, true
		},
	}
}

func featName() FeatureSpec {
	return FeatureSpec{
		Name:        "name",
		Description: "Whether the object carries a usable name",
		Points:      CriteriaPoints{Relevance: 2, Accuracy: 1, Timeliness: 1, Variety: 1},
		Evaluate: func(_ *Context, obj stix.Object) (float64, bool) {
			if objectName(obj) == "" {
				return 0, false
			}
			return 2, true
		},
	}
}

// --- shared evaluators ---------------------------------------------------

func evalLabels(_ *Context, obj stix.Object) (float64, bool) {
	labels := obj.GetCommon().Labels
	switch {
	case len(labels) == 0:
		return 0, false
	case len(labels) >= 2:
		return 5, true
	default:
		return 3, true
	}
}

func evalDetectionTool(ctx *Context, obj stix.Object) (float64, bool) {
	tool, ok := obj.GetCommon().ExtraString("x_caisp_detection_tool")
	if !ok || tool == "" {
		return 0, false
	}
	if ctx.Infra != nil && ctx.Infra.Inventory().Match([]string{tool}).Matched() {
		return 5, true
	}
	return 2, true
}

var identityClassScores = map[string]float64{
	"organization": 5, "group": 4, "class": 3, "individual": 3, "unknown": 1,
}

func evalIdentityClass(_ *Context, obj stix.Object) (float64, bool) {
	ident, ok := obj.(*stix.Identity)
	if !ok || ident.IdentityClass == "" {
		return 0, false
	}
	if score, known := identityClassScores[strings.ToLower(ident.IdentityClass)]; known {
		return score, true
	}
	return 1, true
}

func evalSectors(_ *Context, obj stix.Object) (float64, bool) {
	ident, ok := obj.(*stix.Identity)
	if !ok || len(ident.Sectors) == 0 {
		return 0, false
	}
	if len(ident.Sectors) >= 2 {
		return 4, true
	}
	return 3, true
}

var indicatorLabelVocab = map[string]bool{
	"anomalous-activity": true, "anonymization": true, "benign": true,
	"compromised": true, "malicious-activity": true, "attribution": true,
}

func evalIndicatorType(_ *Context, obj stix.Object) (float64, bool) {
	labels := obj.GetCommon().Labels
	if len(labels) == 0 {
		return 0, false
	}
	for _, l := range labels {
		if indicatorLabelVocab[strings.ToLower(l)] {
			return 5, true
		}
	}
	return 2, true
}

// evalPattern takes the indicator's pattern AST (the one it was built
// from, or parsed from its text when it came without one) and, when
// infrastructure observations exist, checks for a live match: matching
// patterns are the most actionable evidence (5); parseable ones (3);
// malformed ones (1).
func evalPattern(ctx *Context, obj stix.Object) (float64, bool) {
	ind, ok := obj.(*stix.Indicator)
	if !ok || ind.Pattern == "" {
		return 0, false
	}
	p := ind.Compiled
	if p == nil || p.Source != ind.Pattern {
		var err error
		if p, err = stixpattern.Parse(ind.Pattern); err != nil {
			return 1, true
		}
	}
	if ctx.Infra != nil {
		if matched, err := p.Match(ctx.Infra.Observations()); err == nil && matched {
			return 5, true
		}
	}
	return 3, true
}

var malwareCategoryVocab = map[string]bool{
	"adware": true, "backdoor": true, "bot": true, "ddos": true,
	"dropper": true, "exploit-kit": true, "keylogger": true,
	"ransomware": true, "remote-access-trojan": true, "rootkit": true,
	"screen-capture": true, "spyware": true, "trojan": true, "virus": true,
	"worm": true,
}

func evalMalwareCategory(_ *Context, obj stix.Object) (float64, bool) {
	labels := obj.GetCommon().Labels
	if len(labels) == 0 {
		return 0, false
	}
	for _, l := range labels {
		if malwareCategoryVocab[strings.ToLower(l)] {
			return 5, true
		}
	}
	return 2, true
}

func evalMalwareStatus(_ *Context, obj stix.Object) (float64, bool) {
	status, ok := obj.GetCommon().ExtraString("x_caisp_status")
	if !ok || status == "" {
		return 0, false
	}
	if strings.EqualFold(status, "active") {
		return 5, true
	}
	return 1, true
}

func evalKillChain(_ *Context, obj stix.Object) (float64, bool) {
	var phases []stix.KillChainPhase
	switch o := obj.(type) {
	case *stix.AttackPattern:
		phases = o.KillChainPhases
	case *stix.Indicator:
		phases = o.KillChainPhases
	case *stix.Malware:
		phases = o.KillChainPhases
	case *stix.Tool:
		phases = o.KillChainPhases
	}
	switch {
	case len(phases) == 0:
		return 0, false
	case len(phases) >= 2:
		return 5, true
	default:
		return 3, true
	}
}

// evalExtraPresence scores a custom property's mere presence.
func evalExtraPresence(prop string, score float64) Evaluator {
	return func(_ *Context, obj stix.Object) (float64, bool) {
		if v, ok := obj.GetCommon().ExtraString(prop); ok && v != "" {
			return score, true
		}
		return 0, false
	}
}

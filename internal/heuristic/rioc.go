package heuristic

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/stix"
)

// Custom properties written by enrichment.
const (
	// PropThreatScore carries the computed TS on an enriched IoC.
	PropThreatScore = "x_caisp_threat_score"
	// PropCriteria carries the per-feature breakdown of the TS.
	PropCriteria = "x_caisp_criteria"
	// PropCompleteness carries Cp.
	PropCompleteness = "x_caisp_completeness"
	// PropPriority carries the analyst-facing priority band.
	PropPriority = "x_caisp_priority"
)

// Enrich attaches the threat score and its breakdown to the object as
// custom properties, turning a composed IoC into an enriched IoC (eIoC).
// The paper: "the threat score … will be added to the original cIoC as a
// custom attribute. To improve the overall quality of the generated eIoCs,
// additional information associated to the criteria considered in the
// score evaluation could be used for the enrichment" (§III-C2).
// The breakdown refers to res.Features rather than copying it: res must
// not be modified while the object is in use.
func Enrich(obj stix.Object, res *Result) {
	c := obj.GetCommon()
	c.SetExtra(PropThreatScore, res.Score)
	c.SetExtra(PropCompleteness, res.Completeness)
	c.SetExtra(PropPriority, res.Priority())
	c.SetExtra(PropCriteria, criteria(res.Features))
}

// criteria is the x_caisp_criteria value. It encodes as a JSON object
// keyed by feature name, {"<feature>":{"present":…,"value":…,"weight":…}},
// assembled only when the enriched object is actually serialised (TAXII
// sharing, export); most enriched objects are reduced and dropped.
type criteria []FeatureResult

// MarshalJSON implements json.Marshaler.
func (c criteria) MarshalJSON() ([]byte, error) {
	type criterion struct {
		Present bool    `json:"present"`
		Value   float64 `json:"value"`
		Weight  float64 `json:"weight"`
	}
	m := make(map[string]criterion, len(c))
	for _, f := range c {
		m[f.Name] = criterion{Present: f.Present, Value: f.Value, Weight: f.Weight}
	}
	return json.Marshal(m)
}

// ThreatScoreOf reads an enriched object's score back, if present.
func ThreatScoreOf(obj stix.Object) (float64, bool) {
	return obj.GetCommon().ExtraFloat(PropThreatScore)
}

// RIoC is the reduced IoC: "only the rIoC, with just the most relevant
// information from the monitored infrastructure point of view, will be
// sent to the dashboard, while the eIoC will be stored locally" (§III).
// Per Figure 4 it carries the CVE, a description, the affected
// infrastructure and the threat score.
type RIoC struct {
	// ID identifies the rIoC; it keeps the link to the stored eIoC.
	ID string `json:"id"`
	// EIoCRef is the STIX id of the enriched IoC this reduces.
	EIoCRef string `json:"eioc_ref"`
	// SDOType is the heuristic type evaluated.
	SDOType string `json:"sdo_type"`
	// CVE is the vulnerability identifier, when applicable.
	CVE string `json:"cve,omitempty"`
	// Title is the IoC's name.
	Title string `json:"title"`
	// Description is the brief issue description shown on the dashboard.
	Description string `json:"description,omitempty"`
	// ThreatScore is the TS of the associated eIoC.
	ThreatScore float64 `json:"threat_score"`
	// Priority is the analyst-facing band of the score.
	Priority string `json:"priority"`
	// Application is the affected application keyword, if known.
	Application string `json:"application,omitempty"`
	// NodeIDs are the affected infrastructure nodes.
	NodeIDs []string `json:"node_ids"`
	// Breakdown carries the per-feature criteria detail of the score —
	// the paper's future-work item of exposing "detailed information
	// about each single criterion used in the evaluation" on the
	// dashboard (§VI). It is deliberately excluded from the wire form of
	// the rIoC (which must stay *reduced*); the dashboard serves it on
	// demand at /api/riocs/{id}.
	Breakdown []FeatureResult `json:"-"`
	// AllNodes is true when a common keyword matched the whole
	// infrastructure.
	AllNodes bool `json:"all_nodes"`
	// GeneratedAt stamps the reduction.
	GeneratedAt time.Time `json:"generated_at"`
	// EventUUID is the stored MISP event (the stable cluster identity) the
	// eIoC was converted from. It disambiguates rIoCs whose deterministic
	// SDO-derived ID collides across clusters (e.g. the same CVE observed
	// in two clusters), so the dashboard can update in place per cluster.
	EventUUID string `json:"event_uuid,omitempty"`
	// Revision counts in-place re-scores of the same rIoC as its cluster
	// grows; 0 for the first emission.
	Revision int `json:"revision"`
}

// JSON renders the rIoC for the dashboard socket.
func (r *RIoC) JSON() ([]byte, error) { return json.Marshal(r) }

// Reduce derives the reduced IoC from an enriched object. Per §IV: "if
// there is a match, the rIoC is generated, associated to a specific node
// … If there is no match, the rIoC is not generated, while, if the match
// is with a common keyword (e.g., Linux), the new rIoC is associated with
// all nodes." A nil result is returned when no rIoC should be produced.
func Reduce(obj stix.Object, res *Result, collector *infra.Collector, now time.Time) (*RIoC, error) {
	if collector == nil {
		return nil, fmt.Errorf("heuristic: reduction requires an infrastructure collector")
	}
	ctx := &Context{Now: now, Infra: collector}
	products := extractProducts(ctx, obj)
	match := collector.Inventory().Match(products)
	if !match.Matched() {
		return nil, nil
	}
	c := obj.GetCommon()
	r := &RIoC{
		ID:          "rioc--" + c.ID,
		EIoCRef:     c.ID,
		SDOType:     c.Type,
		CVE:         extractCVE(obj),
		Title:       objectName(obj),
		Description: objectDescription(obj),
		ThreatScore: res.Score,
		Priority:    res.Priority(),
		AllNodes:    match.AllNodes,
		NodeIDs:     match.Nodes(collector.Inventory()),
		GeneratedAt: now.UTC(),
	}
	if len(match.MatchedTerms) > 0 {
		r.Application = match.MatchedTerms[0]
	}
	if u, ok := c.ExtraString("x_misp_event_uuid"); ok {
		r.EventUUID = u
	}
	r.Breakdown = append(r.Breakdown, res.Features...)
	return r, nil
}

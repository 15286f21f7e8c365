// Package experiments regenerates every quantitative artifact of the paper
// — Tables I through V and the data behind Figures 2–4 — plus the
// information-reduction measurements backing the abstract's claim. The
// cmd/experiments binary prints them; the test suite asserts the values;
// EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/core"
	"github.com/caisplatform/caisp/internal/dedup"
	"github.com/caisplatform/caisp/internal/detecteval"
	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/feedgen"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/stix"
	"github.com/caisplatform/caisp/internal/tip"
)

// EvalTime fixes the evaluation instant so the use case's timeliness
// buckets match the paper (the IoC of 2017-09-13 falls in "last_year").
var EvalTime = time.Date(2018, 6, 1, 12, 0, 0, 0, time.UTC)

// TableIRow is one heuristic of Table I.
type TableIRow struct {
	Name   string
	Values []float64
	TS     float64
}

// TableIWeights are the paper's fixed feature weights.
var TableIWeights = []float64{0.10, 0.25, 0.40, 0.15, 0.10}

// TableI recomputes the example threat scores of Table I.
func TableI() ([]TableIRow, error) {
	rows := []TableIRow{
		{Name: "H1", Values: []float64{3, 4, 3, 1, 5}},
		{Name: "H2", Values: []float64{5, 2, 2, 4, 0}},
		{Name: "H3", Values: []float64{1, 1, 2, 3, 3}},
	}
	for i := range rows {
		ts, err := heuristic.StaticScore(rows[i].Values, TableIWeights)
		if err != nil {
			return nil, err
		}
		rows[i].TS = ts
	}
	return rows, nil
}

// RenderTableI prints Table I with the paper's expected values alongside.
func RenderTableI() (string, error) {
	rows, err := TableI()
	if err != nil {
		return "", err
	}
	paper := map[string]float64{"H1": 3.15, "H2": 1.92, "H3": 1.90}
	var sb strings.Builder
	sb.WriteString("Table I — Example of a Threat Score Computation\n")
	sb.WriteString("P = (0.10, 0.25, 0.40, 0.15, 0.10)\n\n")
	fmt.Fprintf(&sb, "%-4s %-20s %-10s %-10s %s\n", "H", "X1..X5", "TS (ours)", "TS (paper)", "match")
	for _, r := range rows {
		match := "OK"
		if r.TS != paper[r.Name] {
			match = "MISMATCH"
		}
		fmt.Fprintf(&sb, "%-4s %-20v %-10.2f %-10.2f %s\n", r.Name, r.Values, r.TS, paper[r.Name], match)
	}
	return sb.String(), nil
}

// RenderTableII prints the heuristic feature catalog of Table II.
func RenderTableII() string {
	engine := heuristic.NewEngine()
	var sb strings.Builder
	sb.WriteString("Table II — Heuristics and their features\n\n")
	for _, typ := range engine.SupportedTypes() {
		h := engine.Heuristic(typ)
		names := make([]string, 0, len(h.Features))
		for _, f := range h.Features {
			names = append(names, f.Name)
		}
		fmt.Fprintf(&sb, "%-16s %s\n", typ, strings.Join(names, ", "))
	}
	return sb.String()
}

// RenderTableIII prints the Table III infrastructure inventory.
func RenderTableIII() string {
	inv := infra.PaperInventory()
	var sb strings.Builder
	sb.WriteString("Table III — Infrastructure Inventory\n\n")
	fmt.Fprintf(&sb, "%-8s %-10s %s\n", "Node", "Name", "Applications")
	for _, n := range inv.Nodes {
		fmt.Fprintf(&sb, "%-8s %-10s %s\n", n.ID, n.Name, strings.Join(n.Applications, ", "))
	}
	fmt.Fprintf(&sb, "%-8s %-10s %s\n", "All", "", strings.Join(inv.CommonKeywords, ", "))
	return sb.String()
}

// RenderTableIV prints the vulnerability feature scoring rules of Table IV.
func RenderTableIV() string {
	var sb strings.Builder
	sb.WriteString("Table IV — Features, attributes and scores for vulnerability IoCs\n\n")
	rows := []struct{ feature, attrs string }{
		{feature: "operating_system", attrs: "windows (5), linux family incl. debian/centos (3), others (1), unknown (empty)"},
		{feature: "source_diversity", attrs: "OSINT_source (1), no_OSINT_source (2), infrastructure_source (3)"},
		{feature: "application", attrs: "present in infrastructure (2), not_present (1), no info (empty)"},
		{feature: "vuln_app_in_alarm", attrs: "alarms involve app (2), none (1), no app info (empty)"},
		{feature: "modified", attrs: "last_24h (5), last_week (4), last_month (3), last_year (2), other (1)"},
		{feature: "valid_from", attrs: "last_week (3), last_month (2), last_year (1), other (0)"},
		{feature: "valid_until", attrs: "still valid (5), expired (1), unknown (empty)"},
		{feature: "external_references", attrs: "multi_known_ref (5), single_known_ref (3), unknown_ref (1), no_ref (empty)"},
		{feature: "cve", attrs: "no CVSS (1), low (2), medium (3), high (4), critical (5), no CVE (empty)"},
	}
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-20s %s\n", r.feature, r.attrs)
	}
	return sb.String()
}

// UseCaseIoC builds the §IV CVE-2017-9805 STIX vulnerability object.
func UseCaseIoC() *stix.Vulnerability {
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
	v.SetExtra(heuristic.PropOS, "debian")
	v.SetExtra(heuristic.PropProducts, "apache struts,apache")
	v.SetExtra(heuristic.PropCVSSVector, "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H")
	v.SetExtra(heuristic.PropSourceType, "osint")
	return v
}

// TableV evaluates the use-case IoC and returns the result.
func TableV() (*heuristic.Result, error) {
	collector, err := infra.NewCollector(infra.PaperInventory())
	if err != nil {
		return nil, err
	}
	engine := heuristic.NewEngine(
		heuristic.WithInfrastructure(collector),
		heuristic.WithClock(clock.NewFake(EvalTime)),
	)
	return engine.Evaluate(UseCaseIoC())
}

// RenderTableV prints Table V with the paper's Xi/Pi/TS for comparison.
func RenderTableV() (string, error) {
	res, err := TableV()
	if err != nil {
		return "", err
	}
	paperXi := map[string]float64{
		"operating_system": 3, "source_diversity": 1, "application": 2,
		"vuln_app_in_alarm": 1, "modified": 2, "valid_from": 1,
		"external_references": 5, "cve": 4,
	}
	var sb strings.Builder
	sb.WriteString("Table V — Threat Score Results (CVE-2017-9805 RCE use case)\n\n")
	fmt.Fprintf(&sb, "%-20s %-4s %-3s %-3s %-3s %-3s %-6s %-8s %s\n",
		"Feature", "Xi", "R", "A", "T", "V", "Total", "Pi", "paper Xi")
	for _, f := range res.Features {
		if !f.Present {
			fmt.Fprintf(&sb, "%-20s %-4s (empty — discarded from the analysis)\n", f.Name, "—")
			continue
		}
		fmt.Fprintf(&sb, "%-20s %-4.0f %-3d %-3d %-3d %-3d %-6d %-8.4f %.0f\n",
			f.Name, f.Value,
			f.Points.Relevance, f.Points.Accuracy, f.Points.Timeliness,
			f.Points.Variety, f.Points.Total(), f.Weight, paperXi[f.Name])
	}
	fmt.Fprintf(&sb, "\nCp = %d/%d = %.4f\n", res.PresentCount(), len(res.Features), res.Completeness)
	fmt.Fprintf(&sb, "Σ Xi·Pi = %.4f\n", res.WeightedSum)
	fmt.Fprintf(&sb, "TS (ours, exact Pi)        = %.4f\n", res.Score)
	sb.WriteString("TS (paper, 4-decimal Pi)   = 2.7406\n")
	sb.WriteString("difference is the paper's Pi rounding (see EXPERIMENTS.md)\n")
	return sb.String(), nil
}

// Scenario is a fully wired platform reproducing the §IV use case: the
// paper inventory, the Struts advisory arriving from an OSINT feed, and a
// pair of illustrative alarms.
type Scenario struct {
	Platform *core.Platform
}

// NewScenario builds and runs the use-case pipeline once.
func NewScenario() (*Scenario, error) {
	advisory := `[{
	  "cve": "CVE-2017-9805",
	  "description": "Apache Struts REST plugin XStream RCE via crafted POST body",
	  "cvss3": "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H",
	  "products": ["apache struts", "apache"],
	  "os": "debian",
	  "published": "2017-09-13",
	  "references": ["https://capec.mitre.example/248", "https://cve.mitre.example/CVE-2017-9805"]
	}]`
	p, err := core.New(core.Config{
		Clock: clock.NewFake(EvalTime),
		Feeds: []feed.Feed{{
			Name:     "vuln-advisories",
			Category: normalize.CategoryVulnExploit,
			Fetcher:  &feed.StaticFetcher{Data: []byte(advisory)},
			Parser:   feed.AdvisoryParser{},
			Interval: time.Hour,
		}},
		ShareTAXII: true,
	})
	if err != nil {
		return nil, err
	}
	// Alarms as on the paper's dashboard screenshots.
	alarms := []infra.Alarm{
		{NodeID: "node1", Severity: infra.SeverityHigh, SrcIP: "198.51.100.9", DstIP: "10.0.0.11", Description: "brute force against owncloud login", Application: "owncloud"},
		{NodeID: "node1", Severity: infra.SeverityLow, SrcIP: "198.51.100.10", DstIP: "10.0.0.11", Description: "ping sweep"},
		{NodeID: "node3", Severity: infra.SeverityMedium, SrcIP: "203.0.113.44", DstIP: "10.0.0.13", Description: "suspicious php upload", Application: "php"},
	}
	for _, a := range alarms {
		if _, err := p.ReportAlarm(a); err != nil {
			p.Close()
			return nil, err
		}
	}
	if err := p.RunBatch(context.Background()); err != nil {
		p.Close()
		return nil, err
	}
	return &Scenario{Platform: p}, nil
}

// Close releases the scenario's platform.
func (s *Scenario) Close() error { return s.Platform.Close() }

// RenderFig2 prints the dashboard topology view.
func (s *Scenario) RenderFig2() string {
	return "Fig. 2 — Platform dashboard (topology with alarm circles and rIoC stars)\n\n" +
		s.Platform.Dashboard().RenderTopology()
}

// RenderFig3 prints the node-detail view for the affected node.
func (s *Scenario) RenderFig3() (string, error) {
	node := s.Platform.Collector().Inventory().Node("node4")
	if node == nil {
		return "", fmt.Errorf("experiments: node4 missing")
	}
	riocs := s.Platform.Dashboard().RIoCsForNode("node4")
	var sb strings.Builder
	sb.WriteString("Fig. 3 — Node Visualization Data (node4)\n\n")
	fmt.Fprintf(&sb, "type:     %s\n", node.Type)
	fmt.Fprintf(&sb, "os:       %s\n", node.OS)
	fmt.Fprintf(&sb, "ips:      %s\n", strings.Join(node.IPs, ", "))
	fmt.Fprintf(&sb, "networks: %s\n", strings.Join(node.Networks, ", "))
	fmt.Fprintf(&sb, "alarms:   %d\n", len(s.Platform.Collector().AlarmsForNode("node4")))
	fmt.Fprintf(&sb, "riocs:    %d\n", len(riocs))
	return sb.String(), nil
}

// RenderFig4 prints the rIoC detail card.
func (s *Scenario) RenderFig4() (string, error) {
	riocs := s.Platform.Dashboard().RIoCs()
	if len(riocs) == 0 {
		return "", fmt.Errorf("experiments: no rIoC generated")
	}
	r := riocs[0]
	var sb strings.Builder
	sb.WriteString("Fig. 4 — Security Issues Detailed Information (rIoC)\n\n")
	fmt.Fprintf(&sb, "cve:          %s\n", r.CVE)
	fmt.Fprintf(&sb, "description:  %s\n", r.Description)
	affected := strings.Join(r.NodeIDs, ", ")
	if r.AllNodes {
		affected = "all nodes"
	}
	fmt.Fprintf(&sb, "affected:     %s (application: %s)\n", affected, r.Application)
	fmt.Fprintf(&sb, "threat score: %.4f (%s priority)\n", r.ThreatScore, r.Priority)
	return sb.String(), nil
}

// ReductionPoint is one row of the information-reduction experiment.
type ReductionPoint struct {
	DuplicationRate float64 `json:"duplication_rate"`
	EventsCollected int     `json:"events_collected"`
	EventsUnique    int     `json:"events_unique"`
	Reduction       float64 `json:"reduction"`
}

// DedupSweep measures the deduplicator's reduction across duplication
// rates — the abstract's "decreasing the amount of information" claim made
// measurable.
func DedupSweep(rates []float64, items int) ([]ReductionPoint, error) {
	var out []ReductionPoint
	for _, rate := range rates {
		gen := feedgen.New(feedgen.Config{
			Seed: 1234, Items: items,
			DuplicationRate: rate, OverlapRate: rate / 2,
		})
		feeds, err := gen.Feeds(time.Hour)
		if err != nil {
			return nil, err
		}
		d := dedup.New()
		sched := feed.NewScheduler(func(batch []normalize.Event) {
			for _, e := range batch {
				d.Offer(e)
			}
		})
		for _, f := range feeds {
			if err := sched.Add(f); err != nil {
				return nil, err
			}
		}
		sched.PollOnce(context.Background())
		st := d.Stats()
		out = append(out, ReductionPoint{
			DuplicationRate: rate,
			EventsCollected: st.Seen,
			EventsUnique:    st.Unique,
			Reduction:       st.ReductionRatio(),
		})
	}
	return out, nil
}

// SizeReduction compares the serialized size and attribute count of the
// eIoC against its rIoC for the use case — the rationale for sending only
// rIoCs to the dashboard (§III).
type SizeReduction struct {
	EIoCBytes      int     `json:"eioc_bytes"`
	RIoCBytes      int     `json:"rioc_bytes"`
	ByteReduction  float64 `json:"byte_reduction"`
	EIoCAttributes int     `json:"eioc_attributes"`
	RIoCFields     int     `json:"rioc_fields"`
}

// MeasureSizeReduction runs the use case and sizes eIoC vs rIoC.
func MeasureSizeReduction() (*SizeReduction, error) {
	s, err := NewScenario()
	if err != nil {
		return nil, err
	}
	defer s.Close()
	events, err := s.Platform.TIP().Search(tip.SearchQuery{Tag: "caisp:eioc"})
	if err != nil || len(events) == 0 {
		return nil, fmt.Errorf("experiments: eIoC missing: %v", err)
	}
	eiocJSON, err := misp.MarshalWrapped(events[0])
	if err != nil {
		return nil, err
	}
	riocs := s.Platform.Dashboard().RIoCs()
	if len(riocs) == 0 {
		return nil, fmt.Errorf("experiments: rIoC missing")
	}
	riocJSON, err := riocs[0].JSON()
	if err != nil {
		return nil, err
	}
	var riocFields map[string]any
	if err := json.Unmarshal(riocJSON, &riocFields); err != nil {
		return nil, err
	}
	return &SizeReduction{
		EIoCBytes:      len(eiocJSON),
		RIoCBytes:      len(riocJSON),
		ByteReduction:  1 - float64(len(riocJSON))/float64(len(eiocJSON)),
		EIoCAttributes: len(events[0].Attributes),
		RIoCFields:     len(riocFields),
	}, nil
}

// RenderReduction prints the X1 experiment.
func RenderReduction() (string, error) {
	var sb strings.Builder
	sb.WriteString("X1 — Information reduction\n\n")
	sb.WriteString("Deduplication sweep (6 synthetic feeds, per-feed duplication rate):\n")
	points, err := DedupSweep([]float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}, 300)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "%-10s %-10s %-10s %s\n", "dup rate", "collected", "unique", "reduction")
	for _, p := range points {
		fmt.Fprintf(&sb, "%-10.1f %-10d %-10d %.1f%%\n",
			p.DuplicationRate, p.EventsCollected, p.EventsUnique, p.Reduction*100)
	}
	size, err := MeasureSizeReduction()
	if err != nil {
		return "", err
	}
	sb.WriteString("\neIoC → rIoC reduction (use case):\n")
	fmt.Fprintf(&sb, "eIoC: %d bytes (%d attributes); rIoC: %d bytes (%d fields); %.1f%% smaller\n",
		size.EIoCBytes, size.EIoCAttributes, size.RIoCBytes, size.RIoCFields,
		size.ByteReduction*100)
	return sb.String(), nil
}

// RenderDetection runs the X3 experiment (§VI future work): detection,
// false-positive and false-negative rates of the context-aware score
// against the no-context ablation and the static CVSS baseline, plus a
// threshold sweep of the context-aware strategy.
func RenderDetection() (string, error) {
	metrics, err := detecteval.Compare(11, 400, 2.7)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString(detecteval.Render(
		"X3 — Detection / FP / FN comparison (400 labelled advisories, TS threshold 2.70)", metrics))
	sweep, err := detecteval.ThresholdSweep(11, 400, []float64{2.3, 2.5, 2.7, 2.9})
	if err != nil {
		return "", err
	}
	sb.WriteString("\n")
	sb.WriteString(detecteval.Render("Context-aware threshold sweep (same corpus)", sweep))
	return sb.String(), nil
}

// RenderAll prints every artifact in order.
func RenderAll() (string, error) {
	var parts []string
	t1, err := RenderTableI()
	if err != nil {
		return "", err
	}
	parts = append(parts, t1, RenderTableII(), RenderTableIII(), RenderTableIV())
	t5, err := RenderTableV()
	if err != nil {
		return "", err
	}
	parts = append(parts, t5)
	s, err := NewScenario()
	if err != nil {
		return "", err
	}
	defer s.Close()
	parts = append(parts, s.RenderFig2())
	f3, err := s.RenderFig3()
	if err != nil {
		return "", err
	}
	f4, err := s.RenderFig4()
	if err != nil {
		return "", err
	}
	parts = append(parts, f3, f4)
	red, err := RenderReduction()
	if err != nil {
		return "", err
	}
	parts = append(parts, red)
	det, err := RenderDetection()
	if err != nil {
		return "", err
	}
	parts = append(parts, det)
	return strings.Join(parts, "\n"+strings.Repeat("─", 72)+"\n\n"), nil
}

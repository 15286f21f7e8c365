// Package detecteval implements the paper's stated future work of
// comparing the platform "with other existing tools in terms of detection,
// false positive and false negative rates" (§VI). It generates a labelled
// synthetic advisory corpus, runs three prioritization strategies over it —
// the context-aware threat score, the same score without infrastructure
// context, and the static CVSS-severity rule the paper's introduction calls
// no longer sufficient — and reports detection (recall), false-positive and
// false-negative rates per strategy.
package detecteval

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/cvss"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/stix"
)

// Sample is one labelled advisory.
type Sample struct {
	// IoC is the STIX vulnerability built from the advisory.
	IoC *stix.Vulnerability
	// Severity is the CVSS band of the advisory.
	Severity cvss.Severity
	// Applicable is true when the advisory's products run in the
	// monitored infrastructure.
	Applicable bool
	// Actionable is the ground truth: the analyst should act — the
	// advisory is applicable AND at least high severity.
	Actionable bool
}

// Dataset is a labelled corpus over one inventory.
type Dataset struct {
	Inventory *infra.Inventory
	Samples   []Sample
	// Now is the evaluation instant used for every sample.
	Now time.Time
}

// Generate builds a deterministic corpus of n advisories: roughly half
// affect applications from the inventory and severities span the CVSS
// bands. Information quality (references, dates, operating system) is held
// constant across samples so the comparison isolates what the experiment
// varies — applicability to the monitored infrastructure and severity —
// rather than drowning it in per-advisory completeness noise.
func Generate(seed int64, n int, inventory *infra.Inventory) (*Dataset, error) {
	if inventory == nil {
		inventory = infra.PaperInventory()
	}
	if err := inventory.Validate(); err != nil {
		return nil, err
	}
	now := time.Date(2018, 6, 1, 12, 0, 0, 0, time.UTC)
	r := rand.New(rand.NewSource(seed))

	var inventoryApps []string
	seen := make(map[string]bool)
	for _, node := range inventory.Nodes {
		for _, app := range node.Applications {
			if !seen[app] {
				seen[app] = true
				inventoryApps = append(inventoryApps, app)
			}
		}
	}
	sort.Strings(inventoryApps)
	foreignApps := []string{
		"iis", "exchange", "sharepoint", "coldfusion", "weblogic",
		"jboss", "citrix", "fortigate", "solarwinds",
	}
	vectors := map[cvss.Severity][]string{
		cvss.SeverityLow:      {"CVSS:3.1/AV:L/AC:H/PR:H/UI:R/S:U/C:L/I:N/A:N"},
		cvss.SeverityMedium:   {"CVSS:3.1/AV:N/AC:L/PR:L/UI:N/S:U/C:L/I:L/A:N", "CVSS:3.1/AV:N/AC:L/PR:N/UI:R/S:C/C:L/I:L/A:N"},
		cvss.SeverityHigh:     {"CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H", "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:N/A:N"},
		cvss.SeverityCritical: {"CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"},
	}
	severities := []cvss.Severity{
		cvss.SeverityLow, cvss.SeverityMedium, cvss.SeverityHigh, cvss.SeverityCritical,
	}

	ds := &Dataset{Inventory: inventory, Now: now}
	for i := 0; i < n; i++ {
		applicable := r.Intn(2) == 0
		var product string
		if applicable {
			product = inventoryApps[r.Intn(len(inventoryApps))]
		} else {
			product = foreignApps[r.Intn(len(foreignApps))]
		}
		severity := severities[r.Intn(len(severities))]
		vecs := vectors[severity]
		vector := vecs[r.Intn(len(vecs))]

		created := now.AddDate(0, 0, -200)
		cveID := fmt.Sprintf("CVE-%d-%04d", 2016+r.Intn(3), 1000+i)
		v := stix.NewVulnerability(cveID,
			fmt.Sprintf("synthetic %s vulnerability in %s", severity, product), created)
		v.ExternalReferences = append(v.ExternalReferences,
			stix.ExternalReference{SourceName: "cve", ExternalID: cveID},
			stix.ExternalReference{SourceName: "nvd", URL: "https://nvd.example/" + cveID})
		v.SetExtra(heuristic.PropProducts, product)
		v.SetExtra(heuristic.PropOS, "debian")
		v.SetExtra(heuristic.PropCVSSVector, vector)
		v.SetExtra(heuristic.PropSourceType, "osint")

		ds.Samples = append(ds.Samples, Sample{
			IoC:        v,
			Severity:   severity,
			Applicable: applicable,
			Actionable: applicable && severity >= cvss.SeverityHigh,
		})
	}
	return ds, nil
}

// Metrics are the confusion-matrix rates of one strategy.
type Metrics struct {
	Strategy      string  `json:"strategy"`
	TP            int     `json:"tp"`
	FP            int     `json:"fp"`
	TN            int     `json:"tn"`
	FN            int     `json:"fn"`
	DetectionRate float64 `json:"detection_rate"` // recall = TP/(TP+FN)
	FPRate        float64 `json:"fp_rate"`        // FP/(FP+TN)
	FNRate        float64 `json:"fn_rate"`        // FN/(TP+FN)
	Precision     float64 `json:"precision"`      // TP/(TP+FP)
}

func (m *Metrics) finalize() {
	if m.TP+m.FN > 0 {
		m.DetectionRate = float64(m.TP) / float64(m.TP+m.FN)
		m.FNRate = float64(m.FN) / float64(m.TP+m.FN)
	}
	if m.FP+m.TN > 0 {
		m.FPRate = float64(m.FP) / float64(m.FP+m.TN)
	}
	if m.TP+m.FP > 0 {
		m.Precision = float64(m.TP) / float64(m.TP+m.FP)
	}
}

// Strategy decides whether an advisory deserves analyst attention.
type Strategy struct {
	// Name labels the strategy in reports.
	Name string
	// Flag returns true when the sample should be raised.
	Flag func(Sample) (bool, error)
}

// ContextAwareStrategy flags samples whose context-aware threat score
// reaches threshold — the platform's approach. The engine sees the
// infrastructure inventory, so applicability raises the score.
func ContextAwareStrategy(ds *Dataset, threshold float64) (Strategy, error) {
	collector, err := infra.NewCollector(ds.Inventory)
	if err != nil {
		return Strategy{}, err
	}
	engine := heuristic.NewEngine(
		heuristic.WithInfrastructure(collector),
		heuristic.WithClock(clock.NewFake(ds.Now)),
	)
	return Strategy{
		Name: fmt.Sprintf("context-aware TS ≥ %.2f", threshold),
		Flag: func(s Sample) (bool, error) {
			res, err := engine.Evaluate(s.IoC)
			if err != nil {
				return false, err
			}
			return res.Score >= threshold, nil
		},
	}, nil
}

// NoContextStrategy is the ablation: the same threat score computed
// without any infrastructure knowledge.
func NoContextStrategy(ds *Dataset, threshold float64) Strategy {
	engine := heuristic.NewEngine(
		heuristic.WithClock(clock.NewFake(ds.Now)),
	)
	return Strategy{
		Name: fmt.Sprintf("no-context TS ≥ %.2f", threshold),
		Flag: func(s Sample) (bool, error) {
			res, err := engine.Evaluate(s.IoC)
			if err != nil {
				return false, err
			}
			return res.Score >= threshold, nil
		},
	}
}

// CVSSOnlyStrategy is the static baseline the paper's introduction
// criticizes: raise everything of at least high CVSS severity, regardless
// of the monitored infrastructure.
func CVSSOnlyStrategy() Strategy {
	return Strategy{
		Name: "static CVSS ≥ high",
		Flag: func(s Sample) (bool, error) {
			return s.Severity >= cvss.SeverityHigh, nil
		},
	}
}

// Run evaluates one strategy over the dataset.
func Run(ds *Dataset, strategy Strategy) (Metrics, error) {
	m := Metrics{Strategy: strategy.Name}
	for _, s := range ds.Samples {
		flagged, err := strategy.Flag(s)
		if err != nil {
			return Metrics{}, err
		}
		switch {
		case flagged && s.Actionable:
			m.TP++
		case flagged && !s.Actionable:
			m.FP++
		case !flagged && s.Actionable:
			m.FN++
		default:
			m.TN++
		}
	}
	m.finalize()
	return m, nil
}

// Compare runs the three strategies (context-aware and no-context at the
// given threshold, plus the CVSS baseline) over a fresh corpus.
func Compare(seed int64, n int, threshold float64) ([]Metrics, error) {
	ds, err := Generate(seed, n, nil)
	if err != nil {
		return nil, err
	}
	contextAware, err := ContextAwareStrategy(ds, threshold)
	if err != nil {
		return nil, err
	}
	strategies := []Strategy{contextAware, NoContextStrategy(ds, threshold), CVSSOnlyStrategy()}
	out := make([]Metrics, 0, len(strategies))
	for _, st := range strategies {
		m, err := Run(ds, st)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// ThresholdSweep evaluates the context-aware strategy across thresholds,
// tracing its detection/false-positive trade-off.
func ThresholdSweep(seed int64, n int, thresholds []float64) ([]Metrics, error) {
	ds, err := Generate(seed, n, nil)
	if err != nil {
		return nil, err
	}
	var out []Metrics
	for _, th := range thresholds {
		st, err := ContextAwareStrategy(ds, th)
		if err != nil {
			return nil, err
		}
		m, err := Run(ds, st)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// Render prints a metrics table.
func Render(title string, metrics []Metrics) string {
	var sb strings.Builder
	sb.WriteString(title + "\n\n")
	fmt.Fprintf(&sb, "%-28s %-5s %-5s %-5s %-5s %-10s %-8s %-8s %s\n",
		"strategy", "TP", "FP", "TN", "FN", "detection", "FP rate", "FN rate", "precision")
	for _, m := range metrics {
		fmt.Fprintf(&sb, "%-28s %-5d %-5d %-5d %-5d %-10.3f %-8.3f %-8.3f %.3f\n",
			m.Strategy, m.TP, m.FP, m.TN, m.FN,
			m.DetectionRate, m.FPRate, m.FNRate, m.Precision)
	}
	return sb.String()
}

package heuristic

import (
	"bytes"
	"strings"
	"time"
	"unicode/utf8"

	"github.com/caisplatform/caisp/internal/cvss"
	"github.com/caisplatform/caisp/internal/stix"
)

// Custom STIX properties the pipeline attaches to converted IoCs and the
// evaluators consult. All are optional.
const (
	// PropProducts is a comma-separated product/application list
	// ("apache struts,apache").
	PropProducts = "x_caisp_products"
	// PropOS names the affected operating system ("debian").
	PropOS = "x_caisp_os"
	// PropCVSSVector carries a CVSS v2/v3 vector string.
	PropCVSSVector = "x_caisp_cvss_vector"
	// PropSourceType is "osint" or "infrastructure".
	PropSourceType = "x_caisp_source_type"
	// PropSources is a comma-separated list of reporting feeds.
	PropSources = "x_caisp_sources"
	// PropValidUntil is an RFC 3339 expiry for vulnerability IoCs (the
	// vulnerability SDO has no native valid_until property).
	PropValidUntil = "x_caisp_valid_until"
)

// knownRefSources is the local inventory of reference sources the
// external_references feature checks against (Table IV: "external
// references checked against a local inventory").
var knownRefSources = map[string]bool{
	"cve": true, "capec": true, "nvd": true, "cwe": true,
	"exploit-db": true, "mitre-attack": true, "osvdb": true,
}

// VulnerabilityHeuristic builds the nine-feature vulnerability heuristic of
// Table IV/V. The criteria points reproduce the Pi column of Table V:
// point totals (8, 8, 12, 8, 4, 4, 4, 23, 17) so that with valid_until
// empty the remaining eight weigh 84 points.
func VulnerabilityHeuristic() *Heuristic {
	return &Heuristic{
		SDOType: stix.TypeVulnerability,
		Features: []FeatureSpec{
			{
				Name:        "operating_system",
				Description: "Information about the affected operating system",
				Points:      CriteriaPoints{Relevance: 5, Accuracy: 1, Timeliness: 1, Variety: 1}, // 8
				Evaluate:    evalOperatingSystem,
			},
			{
				Name:        "source_diversity",
				Description: "Whether the IoC was reported by OSINT, other external sources, or the infrastructure itself",
				Points:      CriteriaPoints{Relevance: 5, Accuracy: 1, Timeliness: 1, Variety: 1}, // 8
				Evaluate:    evalSourceDiversity,
			},
			{
				Name:        "application",
				Description: "Whether the affected application is present in the monitored infrastructure",
				Points:      CriteriaPoints{Relevance: 5, Accuracy: 5, Timeliness: 1, Variety: 1}, // 12
				Evaluate:    evalApplication,
			},
			{
				Name:        "vuln_app_in_alarm",
				Description: "Whether infrastructure alarms already involve the affected application",
				Points:      CriteriaPoints{Relevance: 5, Accuracy: 1, Timeliness: 1, Variety: 1}, // 8
				Evaluate:    evalVulnAppInAlarm,
			},
			{
				Name:        "modified",
				Description: "Recency of creation/last modification",
				Points:      CriteriaPoints{Relevance: 1, Accuracy: 1, Timeliness: 1, Variety: 1}, // 4
				Evaluate:    evalModifiedRecency,
			},
			{
				Name:        "valid_from",
				Description: "From when the IoC is considered valid",
				Points:      CriteriaPoints{Relevance: 1, Accuracy: 1, Timeliness: 1, Variety: 1}, // 4
				Evaluate:    evalValidFrom,
			},
			{
				Name:        "valid_until",
				Description: "Until when the IoC is considered valid",
				Points:      CriteriaPoints{Relevance: 1, Accuracy: 1, Timeliness: 1, Variety: 1}, // 4
				Evaluate:    evalValidUntil,
			},
			{
				Name:        "external_references",
				Description: "External references checked against the local inventory of known sources",
				Points:      CriteriaPoints{Relevance: 7, Accuracy: 10, Timeliness: 1, Variety: 5}, // 23
				Evaluate:    evalExternalReferences,
			},
			{
				Name:        "cve",
				Description: "CVE presence and CVSS severity band",
				Points:      CriteriaPoints{Relevance: 10, Accuracy: 5, Timeliness: 1, Variety: 1}, // 17
				Evaluate:    evalCVE,
			},
		},
	}
}

// evalOperatingSystem scores Table IV's operating_system attribute set:
// windows (5), linux family (3, covering the paper's debian → 3), other
// named systems (1), unknown → empty.
func evalOperatingSystem(ctx *Context, obj stix.Object) (float64, bool) {
	osName := extractOS(ctx, obj)
	switch {
	case osName == "":
		return 0, false
	case osName == "windows":
		return 5, true
	case isLinuxFamily(osName):
		return 3, true
	default:
		return 1, true
	}
}

// evalSourceDiversity scores Table IV's source_diversity: OSINT_source (1),
// No_OSINT_source (2), infrastructure_source (3).
func evalSourceDiversity(ctx *Context, obj stix.Object) (float64, bool) {
	c := obj.GetCommon()
	if ctx.Infra != nil {
		if name := objectName(obj); name != "" && ctx.Infra.HasInternalSighting(name) {
			return 3, true
		}
	}
	srcType, ok := c.ExtraString(PropSourceType)
	if !ok {
		if _, fromMISP := c.ExtraString("x_misp_event_uuid"); fromMISP {
			return 1, true // stored OSINT events default to OSINT provenance
		}
		return 0, false
	}
	if strings.EqualFold(srcType, "osint") {
		return 1, true
	}
	if strings.EqualFold(srcType, "infrastructure") {
		return 3, true
	}
	return 2, true
}

// evalApplication scores Table IV's application: present in the monitored
// infrastructure (2), not present (1); empty without application info.
func evalApplication(ctx *Context, obj stix.Object) (float64, bool) {
	products := extractProducts(ctx, obj)
	if len(products) == 0 {
		return 0, false
	}
	if ctx.Infra != nil && ctx.Infra.Inventory().Match(products).Matched() {
		return 2, true
	}
	return 1, true
}

// evalVulnAppInAlarm scores whether alarms already involve the affected
// application: yes (2), no (1); empty without application info.
func evalVulnAppInAlarm(ctx *Context, obj stix.Object) (float64, bool) {
	products := extractProducts(ctx, obj)
	if len(products) == 0 {
		return 0, false
	}
	if ctx.Infra != nil {
		for _, p := range products {
			if len(ctx.Infra.AlarmsMatchingApplication(p)) > 0 {
				return 2, true
			}
		}
	}
	return 1, true
}

// evalModifiedRecency buckets the modification timestamp: last 24h (5),
// week (4), month (3), year (2), older (1).
func evalModifiedRecency(ctx *Context, obj stix.Object) (float64, bool) {
	c := obj.GetCommon()
	ts := c.Modified.Time
	if ts.IsZero() {
		ts = c.Created.Time
	}
	if ts.IsZero() {
		return 0, false
	}
	return ageScore(ctx, ts, recencyBuckets, 1), true
}

// ageBucket is one timeliness bucket: an age up to upTo scores score.
type ageBucket struct {
	upTo  time.Duration
	score float64
}

// recencyBuckets are Table IV's recency buckets: last 24h (5), week (4),
// month (3), year (2); older scores 1.
var recencyBuckets = []ageBucket{
	{24 * time.Hour, 5}, {7 * 24 * time.Hour, 4}, {30 * 24 * time.Hour, 3}, {365 * 24 * time.Hour, 2},
}

// validFromBuckets bucket a validity start: last week (3), month (2),
// year (1); older scores 0.
var validFromBuckets = []ageBucket{
	{7 * 24 * time.Hour, 3}, {30 * 24 * time.Hour, 2}, {365 * 24 * time.Hour, 1},
}

// ageScore scores the age of since at ctx.Now against buckets (older
// than the last edge scores older), and holds the evaluation until the
// edge the age crosses next.
func ageScore(ctx *Context, since time.Time, buckets []ageBucket, older float64) float64 {
	age := ctx.Now.Sub(since)
	for _, b := range buckets {
		if age <= b.upTo {
			ctx.holdUntil(since.Add(b.upTo))
			return b.score
		}
	}
	return older
}

// evalValidFrom buckets validity start: last week (3), month (2), year (1),
// older (0 but present).
func evalValidFrom(ctx *Context, obj stix.Object) (float64, bool) {
	from := validFrom(obj)
	if from.IsZero() {
		return 0, false
	}
	return ageScore(ctx, from, validFromBuckets, 0), true
}

// evalValidUntil scores still-valid IoCs (5) over expired ones (1); empty
// when no expiry is known — the paper's use case discards exactly this
// feature.
func evalValidUntil(ctx *Context, obj stix.Object) (float64, bool) {
	until := validUntil(obj)
	if until.IsZero() {
		return 0, false
	}
	if until.After(ctx.Now) {
		ctx.holdUntil(until.Add(-time.Nanosecond))
		return 5, true
	}
	return 1, true
}

// evalExternalReferences scores Table IV's reference inventory check:
// several known sources (5), one known source (3), only unknown sources
// (1); empty without references.
func evalExternalReferences(_ *Context, obj stix.Object) (float64, bool) {
	refs := obj.GetCommon().ExternalReferences
	if len(refs) == 0 {
		return 0, false
	}
	known := 0
	for _, ref := range refs {
		if knownRefSources[strings.ToLower(ref.SourceName)] {
			known++
		}
	}
	switch {
	case known >= 2:
		return 5, true
	case known == 1:
		return 3, true
	default:
		return 1, true
	}
}

// evalCVE scores Table IV's cve feature: no CVE → empty, CVE without CVSS
// (1), then by severity band: low (2), medium (3), high (4), critical (5).
func evalCVE(_ *Context, obj stix.Object) (float64, bool) {
	cveID := extractCVE(obj)
	if cveID == "" {
		return 0, false
	}
	sev, ok := cvssSeverity(obj)
	if !ok {
		return 1, true
	}
	switch sev {
	case cvss.SeverityLow:
		return 2, true
	case cvss.SeverityMedium:
		return 3, true
	case cvss.SeverityHigh:
		return 4, true
	case cvss.SeverityCritical:
		return 5, true
	default: // SeverityNone — a vector proving no impact
		return 1, true
	}
}

// --- extraction helpers -------------------------------------------------

var linuxFamily = map[string]bool{
	"linux": true, "debian": true, "ubuntu": true, "centos": true,
	"redhat": true, "rhel": true, "fedora": true, "suse": true,
	"alpine": true,
}

func isLinuxFamily(osName string) bool { return linuxFamily[osName] }

func extractOS(ctx *Context, obj stix.Object) string {
	c := obj.GetCommon()
	if osName, ok := c.ExtraString(PropOS); ok && osName != "" {
		return strings.ToLower(strings.TrimSpace(osName))
	}
	// Fall back to scanning the description for well-known OS names.
	desc := strings.ToLower(objectDescription(obj))
	for _, candidate := range []string{"windows", "debian", "ubuntu", "centos", "redhat", "fedora", "linux", "macos", "solaris", "freebsd"} {
		if strings.Contains(desc, candidate) {
			return candidate
		}
	}
	return ""
}

func extractProducts(ctx *Context, obj stix.Object) []string {
	c := obj.GetCommon()
	if list, ok := c.ExtraString(PropProducts); ok && list != "" {
		var out []string
		for _, p := range strings.Split(list, ",") {
			if p = strings.TrimSpace(p); p != "" {
				out = append(out, p)
			}
		}
		return out
	}
	// Fall back to matching the description against the infrastructure's
	// application vocabulary.
	if ctx.Infra == nil {
		return nil
	}
	// The keywords are matched against "name description", lowered. The
	// text is built in a stack buffer and ASCII is lowered in place, so
	// no SDO allocates it (bytes.Contains keeps no []byte(keyword) either).
	var buf [256]byte
	text := lowerASCII(append(append(append(buf[:0], objectName(obj)...), ' '), objectDescription(obj)...))
	var out []string
	for _, keyword := range ctx.Infra.ApplicationKeywords() {
		if bytes.Contains(text, []byte(keyword)) {
			out = append(out, keyword)
		}
	}
	return out
}

// lowerASCII returns b lowered as strings.ToLower would: in place while
// it is ASCII, else by strings.ToLower.
func lowerASCII(b []byte) []byte {
	for i, c := range b {
		if c >= utf8.RuneSelf {
			return []byte(strings.ToLower(string(b)))
		}
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return b
}

func extractCVE(obj stix.Object) string {
	c := obj.GetCommon()
	for _, ref := range c.ExternalReferences {
		if strings.EqualFold(ref.SourceName, "cve") && ref.ExternalID != "" {
			return strings.ToUpper(ref.ExternalID)
		}
	}
	if name := objectName(obj); strings.HasPrefix(strings.ToUpper(name), "CVE-") {
		return strings.ToUpper(name)
	}
	return ""
}

func cvssSeverity(obj stix.Object) (cvss.Severity, bool) {
	vec, ok := obj.GetCommon().ExtraString(PropCVSSVector)
	if !ok || vec == "" {
		return 0, false
	}
	if v3, err := cvss.ParseV3(vec); err == nil {
		return v3.Severity(), true
	}
	if v2, err := cvss.ParseV2(vec); err == nil {
		return v2.Severity(), true
	}
	return 0, false
}

func validFrom(obj stix.Object) time.Time {
	if ind, ok := obj.(*stix.Indicator); ok && !ind.ValidFrom.IsZero() {
		return ind.ValidFrom.Time
	}
	// Vulnerabilities have no native valid_from: the paper takes the
	// creation date ("it is valid for one year" from creation).
	return obj.GetCommon().Created.Time
}

func validUntil(obj stix.Object) time.Time {
	if ind, ok := obj.(*stix.Indicator); ok && !ind.ValidUntil.IsZero() {
		return ind.ValidUntil.Time
	}
	if raw, ok := obj.GetCommon().ExtraString(PropValidUntil); ok && raw != "" {
		if ts, err := time.Parse(time.RFC3339, raw); err == nil {
			return ts.UTC()
		}
	}
	return time.Time{}
}

func objectName(obj stix.Object) string {
	switch o := obj.(type) {
	case *stix.Vulnerability:
		return o.Name
	case *stix.Malware:
		return o.Name
	case *stix.AttackPattern:
		return o.Name
	case *stix.Tool:
		return o.Name
	case *stix.Identity:
		return o.Name
	case *stix.Indicator:
		return o.Name
	default:
		return ""
	}
}

func objectDescription(obj stix.Object) string {
	switch o := obj.(type) {
	case *stix.Vulnerability:
		return o.Description
	case *stix.Malware:
		return o.Description
	case *stix.AttackPattern:
		return o.Description
	case *stix.Tool:
		return o.Description
	case *stix.Identity:
		return o.Description
	case *stix.Indicator:
		return o.Description
	default:
		return ""
	}
}

package correlate

import (
	"fmt"
	"strings"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
)

// attributeType maps a normalized IoC type onto the MISP attribute type the
// operational module stores.
var attributeType = map[normalize.IoCType]string{
	normalize.TypeIPv4:     "ip-dst",
	normalize.TypeIPv6:     "ip-dst",
	normalize.TypeCIDR:     "ip-dst",
	normalize.TypeDomain:   "domain",
	normalize.TypeURL:      "url",
	normalize.TypeEmail:    "email-dst",
	normalize.TypeMD5:      "md5",
	normalize.TypeSHA1:     "sha1",
	normalize.TypeSHA256:   "sha256",
	normalize.TypeSHA512:   "sha512",
	normalize.TypeCVE:      "vulnerability",
	normalize.TypeFilename: "filename",
}

// AttributeType returns the MISP attribute type the operational module
// stores an indicator of typ as: a composed IoC's member, or an
// infrastructure sighting. A type without one is stored as "text".
func AttributeType(typ normalize.IoCType) string {
	if attr, ok := attributeType[typ]; ok {
		return attr
	}
	return "text"
}

var attributeCategory = map[normalize.IoCType]string{
	normalize.TypeIPv4:     "Network activity",
	normalize.TypeIPv6:     "Network activity",
	normalize.TypeCIDR:     "Network activity",
	normalize.TypeDomain:   "Network activity",
	normalize.TypeURL:      "Network activity",
	normalize.TypeEmail:    "Payload delivery",
	normalize.TypeMD5:      "Payload delivery",
	normalize.TypeSHA1:     "Payload delivery",
	normalize.TypeSHA256:   "Payload delivery",
	normalize.TypeSHA512:   "Payload delivery",
	normalize.TypeCVE:      "External analysis",
	normalize.TypeFilename: "Payload delivery",
}

// ToMISP renders a composed IoC as a MISP event, ready for storage in the
// operational module. Member events become attributes; the cIoC category
// and correlation keys become tags; per-event context rides along as
// attribute comments.
func ToMISP(c *ComposedIoC, now time.Time) (*misp.Event, error) {
	if len(c.Events) == 0 {
		return nil, fmt.Errorf("correlate: composed IoC %s has no events", c.ID)
	}
	e := misp.NewEvent(composedInfo(c), now)
	e.UUID = c.ID // the cIoC identity carries through storage
	e.AddTag("caisp:category=\"" + c.Category + "\"")
	e.AddTag("caisp:cioc")
	// The membership-sensitive hash rides as a tag (tags with the caisp:
	// prefix are invisible to STIX conversion, so the heuristic features
	// are unaffected). Consumers use it to detect real membership changes
	// behind a stable event UUID.
	if c.ContentHash != "" {
		e.AddTag(clusterContentTagPrefix + c.ContentHash + "\"")
	}
	for _, key := range c.CorrelationKeys {
		e.AddTag("caisp:correlated-by=\"" + key + "\"")
	}
	for _, ev := range c.Events {
		typ := AttributeType(ev.Type)
		category, ok := attributeCategory[ev.Type]
		if !ok {
			category = "Other"
		}
		at := ev.LastSeen
		if at.IsZero() {
			at = now
		}
		// Advisories carry their own publication date; the attribute
		// timestamp (which becomes the STIX created/modified instant and
		// drives the timeliness heuristics) uses it when available.
		if published, ok := ev.Context["published"]; ok && typ == "vulnerability" {
			if ts, err := time.Parse("2006-01-02", published); err == nil {
				at = ts.UTC()
			}
		}
		attr := e.AddAttribute(typ, category, ev.Value, at)
		attr.Comment = attributeComment(ev)
		// NLP classification verdicts ride to SIEM consumers ("the
		// prediction confidence of the classifier can be included in the
		// data sent to SIEMs", §II-A).
		if class, ok := ev.Context["classified_as"]; ok {
			e.AddAttribute("text", "Other",
				"classification:"+class+" confidence:"+ev.Context["classifier_confidence"], at)
		}
		if typ == "vulnerability" {
			if v, ok := ev.Context["cvss-vector"]; ok {
				e.AddAttribute("cvss-vector", "External analysis", v, at)
			}
			// Context that the heuristic's accuracy features consume rides
			// along as prefixed text attributes (see misp.ToSTIX).
			if v, ok := ev.Context["os"]; ok {
				e.AddAttribute("text", "Other", "os:"+v, at)
			}
			if v, ok := ev.Context["products"]; ok {
				e.AddAttribute("text", "Other", "products:"+v, at)
			}
			if refs, ok := ev.Context["references"]; ok {
				for _, ref := range strings.Split(refs, ",") {
					if ref = strings.TrimSpace(ref); ref != "" {
						e.AddAttribute("link", "External analysis", ref, at)
					}
				}
			}
		}
	}
	return e, nil
}

func composedInfo(c *ComposedIoC) string {
	primary := c.Events[0].Value
	if len(c.Events) == 1 {
		return fmt.Sprintf("cIoC [%s] %s", c.Category, primary)
	}
	return fmt.Sprintf("cIoC [%s] %s (+%d correlated)", c.Category, primary, len(c.Events)-1)
}

func attributeComment(ev normalize.Event) string {
	var parts []string
	if desc, ok := ev.Context["description"]; ok {
		parts = append(parts, desc)
	}
	if srcs := ev.Sources(); len(srcs) > 0 {
		parts = append(parts, "sources: "+strings.Join(srcs, ", "))
	}
	return strings.Join(parts, " | ")
}

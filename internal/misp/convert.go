package misp

import (
	"errors"
	"fmt"
	"net/url"
	"strings"
	"time"

	"github.com/caisplatform/caisp/internal/stix"
	"github.com/caisplatform/caisp/internal/stixpattern"
)

// ErrEmptyBundle is ToSTIX's answer for an event with nothing to convert:
// no indicator attribute, vulnerability or typed primary object, e.g. a
// cluster of free-text members.
var ErrEmptyBundle = errors.New("converts to an empty bundle")

// Attribute types and the STIX pattern object path each maps to. This is
// the subset of MISP's attribute taxonomy exercised by OSINT feeds.
var attributePatternPaths = map[string]string{
	"ip-src":    "ipv4-addr:value",
	"ip-dst":    "ipv4-addr:value",
	"domain":    "domain-name:value",
	"hostname":  "domain-name:value",
	"url":       "url:value",
	"md5":       "file:hashes.'MD5'",
	"sha1":      "file:hashes.'SHA-1'",
	"sha256":    "file:hashes.'SHA-256'",
	"sha512":    "file:hashes.'SHA-512'",
	"filename":  "file:name",
	"email-src": "email-addr:value",
	"email-dst": "email-addr:value",
}

// Taxonomy tags the converter understands when deriving SDO types.
const (
	tagMalware       = "caisp:sdo=\"malware\""
	tagAttackPattern = "caisp:sdo=\"attack-pattern\""
	tagTool          = "caisp:sdo=\"tool\""
)

// ToSTIX converts a MISP event to a STIX 2.0 bundle:
//
//   - an identity SDO for the creating organisation, if any;
//   - one vulnerability SDO per vulnerability attribute (CVE id in an
//     external reference, CVSS vector comments preserved as custom
//     properties);
//   - one indicator SDO per detection-grade attribute (to_ids), with a STIX
//     pattern derived from the attribute type;
//   - a malware / attack-pattern / tool SDO when the event is tagged with
//     the corresponding caisp taxonomy tag;
//   - relationships linking indicators to the SDO they indicate.
//
// Event tags become labels on every produced SDO, and each SDO carries
// x_misp_event_uuid so enrichment results can be written back to the stored
// MISP event.
func ToSTIX(e *Event) (*stix.Bundle, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	bundle := stix.NewBundle()
	now := e.Timestamp.Time
	if now.IsZero() {
		now = time.Now().UTC()
	}
	labels := tagLabels(e.Tags)

	var primary stix.Object
	switch {
	case e.HasTag(tagMalware):
		m := stix.NewMalware(e.Info, orDefault(labels, "malware"), now)
		primary = m
	case e.HasTag(tagAttackPattern):
		primary = stix.NewAttackPattern(e.Info, now)
	case e.HasTag(tagTool):
		primary = stix.NewTool(e.Info, orDefault(labels, "tool"), now)
	}
	if primary != nil {
		decorate(primary, e, labels)
		bundle.Add(primary)
	}

	if e.Orgc != nil {
		ident := stix.NewIdentity(stix.DeterministicID(stix.TypeIdentity, e.Orgc.UUID),
			e.Orgc.Name, "organization", now)
		decorate(ident, e, nil)
		bundle.Add(ident)
	}

	for i := range e.Attributes {
		attr := &e.Attributes[i]
		at := attr.Timestamp.Time
		if at.IsZero() {
			at = now
		}
		switch attr.Type {
		case "vulnerability":
			v := stix.NewVulnerability(stix.DeterministicID(stix.TypeVulnerability, attr.Value),
				attr.Value, attr.Comment, at)
			v.ExternalReferences = append(v.ExternalReferences, stix.ExternalReference{
				SourceName: "cve",
				ExternalID: attr.Value,
			})
			decorate(v, e, labels)
			bundle.Add(v)
		case "cvss-vector":
			// Attached to the most recent vulnerability SDO as a custom
			// property; standalone vectors are dropped.
			if v := lastVulnerability(bundle); v != nil {
				v.SetExtra("x_caisp_cvss_vector", attr.Value)
			}
		case "link":
			// Reference URLs enrich the most recent vulnerability SDO's
			// external references; the source name is inferred from the URL
			// so the heuristic's known-source inventory check applies.
			if v := lastVulnerability(bundle); v != nil {
				v.ExternalReferences = append(v.ExternalReferences, stix.ExternalReference{
					SourceName: refSourceFromURL(attr.Value),
					URL:        attr.Value,
				})
			}
		case "text":
			// Prefixed context attributes ("os:debian", "products:apache")
			// decorate the most recent vulnerability SDO so the heuristic's
			// accuracy features can consume them.
			if osName, ok := strings.CutPrefix(attr.Value, "os:"); ok {
				if v := lastVulnerability(bundle); v != nil {
					v.SetExtra("x_caisp_os", osName)
				}
			} else if products, ok := strings.CutPrefix(attr.Value, "products:"); ok {
				if v := lastVulnerability(bundle); v != nil {
					v.SetExtra("x_caisp_products", products)
				}
			}
		default:
			path, ok := attributePatternPaths[attr.Type]
			if !ok || !attr.ToIDS {
				continue
			}
			pattern := stixpattern.Equality(path, attr.Value)
			ind := stix.NewIndicator(stix.DeterministicID(stix.TypeIndicator, attr.Type+":"+attr.Value),
				pattern.Source, orDefault(labels, "malicious-activity"), at)
			ind.Compiled = pattern
			ind.Name = attr.Value
			ind.Description = attr.Comment
			decorate(ind, e, labels)
			ind.SetExtra("x_misp_attribute_uuid", attr.UUID)
			ind.SetExtra("x_misp_attribute_type", attr.Type)
			bundle.Add(ind)
			if primary != nil {
				rel := stix.NewRelationship("indicates", ind.ID, primary.GetCommon().ID, at)
				bundle.Add(rel)
			}
		}
	}
	// Template-grouped MISP objects (how real MISP instances model
	// vulnerabilities) convert to SDOs as well.
	for i := range e.Objects {
		if sdo := vulnerabilityFromObject(&e.Objects[i], e, labels, now); sdo != nil {
			bundle.Add(sdo)
		}
	}
	if len(bundle.Objects) == 0 {
		return nil, fmt.Errorf("misp: event %s %w", e.UUID, ErrEmptyBundle)
	}
	applyTLPMarkings(e, bundle)
	return bundle, nil
}

// applyTLPMarkings maps the event's tlp:* tag onto STIX object markings:
// every SDO references the predefined TLP marking definition.
func applyTLPMarkings(e *Event, bundle *stix.Bundle) {
	var markingID string
	for _, tag := range e.Tags {
		if level, ok := strings.CutPrefix(tag.Name, "tlp:"); ok {
			if m := stix.TLPMarking(strings.ToLower(level)); m != nil {
				markingID = m.ID
			}
			break
		}
	}
	if markingID == "" {
		return
	}
	for _, obj := range bundle.Objects {
		c := obj.GetCommon()
		c.ObjectMarkingRefs = append(c.ObjectMarkingRefs, markingID)
	}
}

// vulnerabilityFromObject builds a vulnerability SDO from a MISP
// "vulnerability" object: the id attribute names the CVE; cvss-vector,
// prefixed text attributes and link references decorate it.
func vulnerabilityFromObject(obj *Object, e *Event, labels []string, now time.Time) *stix.Vulnerability {
	if obj.Name != "vulnerability" {
		return nil
	}
	idAttr := obj.FindAttribute("vulnerability")
	if idAttr == nil || idAttr.Value == "" {
		return nil
	}
	at := idAttr.Timestamp.Time
	if at.IsZero() {
		at = now
	}
	v := stix.NewVulnerability(stix.DeterministicID(stix.TypeVulnerability, idAttr.Value),
		idAttr.Value, idAttr.Comment, at)
	v.ExternalReferences = append(v.ExternalReferences, stix.ExternalReference{
		SourceName: "cve",
		ExternalID: idAttr.Value,
	})
	for _, a := range obj.Attributes {
		switch a.Type {
		case "cvss-vector":
			v.SetExtra("x_caisp_cvss_vector", a.Value)
		case "text":
			if osName, ok := strings.CutPrefix(a.Value, "os:"); ok {
				v.SetExtra("x_caisp_os", osName)
			} else if products, ok := strings.CutPrefix(a.Value, "products:"); ok {
				v.SetExtra("x_caisp_products", products)
			}
		case "link":
			v.ExternalReferences = append(v.ExternalReferences, stix.ExternalReference{
				SourceName: refSourceFromURL(a.Value),
				URL:        a.Value,
			})
		case "comment":
			if v.Description == "" {
				v.Description = a.Value
			}
		}
	}
	decorate(v, e, labels)
	return v
}

// FromSTIX converts a STIX bundle into a MISP event. Indicators with
// single-comparison equality patterns become typed attributes;
// vulnerabilities become vulnerability attributes; other SDO names are kept
// as text attributes so no information is dropped silently.
func FromSTIX(b *stix.Bundle, now time.Time) (*Event, error) {
	if len(b.Objects) == 0 {
		return nil, fmt.Errorf("misp: empty bundle")
	}
	info := "Imported STIX bundle " + b.ID
	if name := firstName(b); name != "" {
		info = name
	}
	e := NewEvent(info, now)
	for _, obj := range b.Objects {
		c := obj.GetCommon()
		at := c.Modified.Time
		if at.IsZero() {
			at = now
		}
		switch o := obj.(type) {
		case *stix.Vulnerability:
			a := e.AddAttribute("vulnerability", "External analysis", o.Name, at)
			a.Comment = o.Description
			if vec, ok := o.ExtraString("x_caisp_cvss_vector"); ok {
				e.AddAttribute("cvss-vector", "External analysis", vec, at)
			}
		case *stix.Indicator:
			typ, value, ok := patternToAttribute(o.Pattern)
			if !ok {
				a := e.AddAttribute("stix2-pattern", "Network activity", o.Pattern, at)
				a.Comment = o.Description
				continue
			}
			a := e.AddAttribute(typ, categoryForType(typ), value, at)
			a.Comment = o.Description
		case *stix.Malware:
			e.AddTag(tagMalware)
			e.AddAttribute("malware-type", "Payload delivery", o.Name, at)
		case *stix.AttackPattern:
			e.AddTag(tagAttackPattern)
			e.AddAttribute("text", "Attribution", o.Name, at)
		case *stix.Tool:
			e.AddTag(tagTool)
			e.AddAttribute("text", "Attribution", o.Name, at)
		case *stix.Identity:
			if e.Orgc == nil {
				e.Orgc = &Org{UUID: idUUID(o.ID), Name: o.Name}
			}
		case *stix.Relationship, *stix.Sighting:
			// Structural objects carry no attribute payload.
		default:
			name := firstNameOf(obj)
			if name != "" {
				e.AddAttribute("text", "Other", name, at)
			}
		}
		for _, l := range c.Labels {
			e.AddTag("caisp:label=\"" + l + "\"")
		}
	}
	if len(e.Attributes) == 0 {
		return nil, fmt.Errorf("misp: bundle %s yields no attributes", b.ID)
	}
	return e, nil
}

// patternToAttribute recognises single-equality patterns of the form
// [path = 'value'] and maps them back to a MISP attribute type.
func patternToAttribute(pattern string) (typ, value string, ok bool) {
	s := strings.TrimSpace(pattern)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return "", "", false
	}
	s = strings.TrimSpace(s[1 : len(s)-1])
	path, rest, found := strings.Cut(s, "=")
	if !found || strings.ContainsAny(path, "<>!") {
		return "", "", false
	}
	path = strings.TrimSpace(path)
	rest = strings.TrimSpace(rest)
	if !strings.HasPrefix(rest, "'") || !strings.HasSuffix(rest, "'") || strings.Contains(rest[1:len(rest)-1], "'") {
		return "", "", false
	}
	value = strings.ReplaceAll(rest[1:len(rest)-1], `\\`, `\`)
	for attrType, p := range attributePatternPaths {
		if p == path {
			// Prefer the canonical type for paths shared by several MISP
			// types (ip-src/ip-dst → ip-dst, domain/hostname → domain).
			switch path {
			case "ipv4-addr:value":
				return "ip-dst", value, true
			case "domain-name:value":
				return "domain", value, true
			case "email-addr:value":
				return "email-dst", value, true
			}
			return attrType, value, true
		}
	}
	return "", "", false
}

func categoryForType(typ string) string {
	switch typ {
	case "md5", "sha1", "sha256", "sha512", "filename":
		return "Payload delivery"
	case "vulnerability":
		return "External analysis"
	default:
		return "Network activity"
	}
}

func decorate(obj stix.Object, e *Event, labels []string) {
	c := obj.GetCommon()
	if len(labels) > 0 && len(c.Labels) == 0 {
		c.Labels = labels
	}
	c.SetExtra("x_misp_event_uuid", e.UUID)
	if _, ok := c.ExtraString("x_caisp_source_type"); !ok {
		// Events flowing through the TIP originate from OSINT collection
		// unless explicitly marked otherwise.
		c.SetExtra("x_caisp_source_type", "osint")
	}
}

func tagLabels(tags []Tag) []string {
	var out []string
	for _, t := range tags {
		if strings.HasPrefix(t.Name, "caisp:label=") {
			out = append(out, strings.Trim(strings.TrimPrefix(t.Name, "caisp:label="), `"`))
			continue
		}
		if !strings.HasPrefix(t.Name, "caisp:") {
			out = append(out, t.Name)
		}
	}
	return out
}

func orDefault(labels []string, fallback string) []string {
	if len(labels) > 0 {
		return labels
	}
	return []string{fallback}
}

func lastVulnerability(b *stix.Bundle) *stix.Vulnerability {
	for i := len(b.Objects) - 1; i >= 0; i-- {
		if v, ok := b.Objects[i].(*stix.Vulnerability); ok {
			return v
		}
	}
	return nil
}

func firstName(b *stix.Bundle) string {
	for _, obj := range b.Objects {
		if name := firstNameOf(obj); name != "" {
			return name
		}
	}
	return ""
}

func firstNameOf(obj stix.Object) string {
	switch o := obj.(type) {
	case *stix.Vulnerability:
		return o.Name
	case *stix.Malware:
		return o.Name
	case *stix.AttackPattern:
		return o.Name
	case *stix.Tool:
		return o.Name
	case *stix.Campaign:
		return o.Name
	case *stix.ThreatActor:
		return o.Name
	case *stix.Indicator:
		return o.Name
	default:
		return ""
	}
}

func idUUID(id string) string {
	_, u, err := stix.ParseID(id)
	if err != nil {
		return ""
	}
	return u.String()
}

// refSourceFromURL guesses the reference source name from well-known hosts.
func refSourceFromURL(rawURL string) string {
	lower := strings.ToLower(rawURL)
	for _, known := range []string{"capec", "cve", "nvd", "cwe", "exploit-db"} {
		if strings.Contains(lower, known) {
			return known
		}
	}
	if u, err := url.Parse(rawURL); err == nil && u.Host != "" {
		return u.Host
	}
	return "link"
}

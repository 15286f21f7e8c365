package misp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
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
// MISP event. The bundle holds the event-level objects, then each block's
// (see Conversion).
func ToSTIX(e *Event) (*stix.Bundle, error) {
	c := Convert(e)
	bundle := stix.NewBundle(c.Head()...)
	for i := 0; i < c.Len(); i++ {
		bundle.Objects = c.AppendBlock(bundle.Objects, i)
	}
	if len(bundle.Objects) == 0 {
		return nil, fmt.Errorf("misp: event %s %w", e.UUID, ErrEmptyBundle)
	}
	return bundle, nil
}

// A Conversion is one event's STIX conversion, split into blocks: the
// units that convert independently of each other. A block is
//
//   - an indicator attribute (a pattern-mapped type with to_ids);
//   - a vulnerability attribute, with the cvss-vector, link and os:/
//     products: text attributes after it, up to the next vulnerability
//     attribute: each decorates the most recent vulnerability, even when
//     another member's attributes lie between them;
//   - a MISP object.
//
// The event-level objects (the caisp:sdo-tagged primary SDO and the
// creator's identity) are built by Convert. A block's objects are a
// function of its Key: where two conversions' block keys are equal, the
// blocks build the same objects, up to x_misp_attribute_uuid and v4 IDs.
type Conversion struct {
	e       *Event
	now     time.Time // the event timestamp; the wall clock when it has none
	labels  []string
	primary stix.Object
	marking string // the TLP marking-definition ID, or ""
	head    []stix.Object
	blocks  []block
	seed    uint64 // hash of the event-level inputs of every block
}

// block is one unit of conversion: an indicator attribute at, a
// vulnerability attribute at decorated by the attributes before end, or
// the MISP object at.
type block struct {
	kind    blockKind
	at, end int
}

type blockKind uint8

const (
	blockIndicator blockKind = iota
	blockVulnerability
	blockObject
)

// keySeed seeds the block keys. Keys are compared within one process
// only.
var keySeed = maphash.MakeSeed()

// Convert prepares e's conversion: it builds the event-level objects and
// splits the rest into blocks. It does not validate e: what is converted
// is a stored revision, validated where it entered the TIP
// (tip.Service.ImportEvents), or a revision the platform composed.
func Convert(e *Event) *Conversion {
	c := &Conversion{e: e, now: e.Timestamp.Time, labels: tagLabels(e.Tags), marking: tlpMarking(e)}
	if c.now.IsZero() {
		c.now = time.Now().UTC()
	}
	switch {
	case e.HasTag(tagMalware):
		c.primary = stix.NewMalware(e.Info, orDefault(c.labels, "malware"), c.now)
	case e.HasTag(tagAttackPattern):
		c.primary = stix.NewAttackPattern(e.Info, c.now)
	case e.HasTag(tagTool):
		c.primary = stix.NewTool(e.Info, orDefault(c.labels, "tool"), c.now)
	}
	if c.primary != nil {
		decorate(c.primary, e, c.labels)
		c.head = append(c.head, c.mark(c.primary))
	}
	if e.Orgc != nil {
		ident := stix.NewIdentity(stix.DeterministicID(stix.TypeIdentity, e.Orgc.UUID),
			e.Orgc.Name, "organization", c.now)
		decorate(ident, e, nil)
		c.head = append(c.head, c.mark(ident))
	}

	vuln := -1 // the block of the most recent vulnerability attribute
	for i := range e.Attributes {
		a := &e.Attributes[i]
		switch {
		case a.Type == "vulnerability":
			if vuln >= 0 {
				c.blocks[vuln].end = i
			}
			vuln = len(c.blocks)
			c.blocks = append(c.blocks, block{kind: blockVulnerability, at: i, end: len(e.Attributes)})
		case decoratesVulnerability(a):
		case a.ToIDS && attributePatternPaths[a.Type] != "":
			c.blocks = append(c.blocks, block{kind: blockIndicator, at: i})
		}
	}
	for i := range e.Objects {
		c.blocks = append(c.blocks, block{kind: blockObject, at: i})
	}

	var h maphash.Hash
	h.SetSeed(keySeed)
	writeString(&h, e.UUID)
	writeString(&h, c.marking)
	if c.primary != nil {
		writeString(&h, c.primary.GetCommon().Type)
	}
	writeUint(&h, uint64(len(c.labels)))
	for _, l := range c.labels {
		writeString(&h, l)
	}
	c.seed = h.Sum64()
	return c
}

// Head returns the event-level objects: the primary SDO, then the
// creator's identity, each present or not.
func (c *Conversion) Head() []stix.Object { return c.head }

// Len returns the number of blocks.
func (c *Conversion) Len() int { return len(c.blocks) }

// AppendBlock converts block i and appends its objects to dst: an
// indicator (and its relationship to the primary SDO), a decorated
// vulnerability, or nothing for a MISP object that is not a
// vulnerability.
func (c *Conversion) AppendBlock(dst []stix.Object, i int) []stix.Object {
	e, b := c.e, c.blocks[i]
	if b.kind == blockObject {
		if v := vulnerabilityFromObject(&e.Objects[b.at], e, c.labels, c.now); v != nil {
			dst = append(dst, c.mark(v))
		}
		return dst
	}
	attr := &e.Attributes[b.at]
	at := attr.Timestamp.Time
	if at.IsZero() {
		at = c.now
	}
	if b.kind == blockIndicator {
		pattern := stixpattern.Equality(attributePatternPaths[attr.Type], attr.Value)
		ind := stix.NewIndicator(stix.DeterministicID(stix.TypeIndicator, attr.Type+":"+attr.Value),
			pattern.Source, orDefault(c.labels, "malicious-activity"), at)
		ind.Compiled = pattern
		ind.Name = attr.Value
		ind.Description = attr.Comment
		decorate(ind, e, c.labels)
		ind.SetExtra("x_misp_attribute_uuid", attr.UUID)
		ind.SetExtra("x_misp_attribute_type", attr.Type)
		dst = append(dst, c.mark(ind))
		if c.primary != nil {
			dst = append(dst, c.mark(stix.NewRelationship("indicates", ind.ID, c.primary.GetCommon().ID, at)))
		}
		return dst
	}
	v := stix.NewVulnerability(stix.DeterministicID(stix.TypeVulnerability, attr.Value),
		attr.Value, attr.Comment, at)
	v.ExternalReferences = append(v.ExternalReferences, stix.ExternalReference{
		SourceName: "cve",
		ExternalID: attr.Value,
	})
	decorate(v, e, c.labels)
	for j := b.at + 1; j < b.end; j++ {
		a := &e.Attributes[j]
		switch a.Type {
		case "cvss-vector":
			v.SetExtra("x_caisp_cvss_vector", a.Value)
		case "link":
			// Reference URLs enrich the external references; the source
			// name is inferred from the URL so the heuristic's
			// known-source inventory check applies.
			v.ExternalReferences = append(v.ExternalReferences, stix.ExternalReference{
				SourceName: refSourceFromURL(a.Value),
				URL:        a.Value,
			})
		case "text":
			// Prefixed context attributes ("os:debian", "products:apache")
			// feed the heuristic's accuracy features.
			if osName, ok := strings.CutPrefix(a.Value, "os:"); ok {
				v.SetExtra("x_caisp_os", osName)
			} else if products, ok := strings.CutPrefix(a.Value, "products:"); ok {
				v.SetExtra("x_caisp_products", products)
			}
		}
	}
	return append(dst, c.mark(v))
}

// Span returns the attributes block i converts from, [at, end): an
// indicator's own, or a vulnerability's and those after it up to the next
// vulnerability. ok is false for a MISP object.
func (c *Conversion) Span(i int) (at, end int, ok bool) {
	switch b := c.blocks[i]; b.kind {
	case blockIndicator:
		return b.at, b.at + 1, true
	case blockVulnerability:
		return b.at, b.end, true
	}
	return 0, 0, false
}

// Key returns block i's key: a hash of everything its objects are built
// from — each of its attributes' type, value, comment, to_ids and
// timestamp, the instant it converts at (its first attribute's timestamp,
// or the event's), and the event's UUID, labels, TLP marking and primary
// SDO type. The attribute UUID is left out: it only feeds
// x_misp_attribute_uuid. A block with neither an attribute nor an event
// timestamp converts at the wall-clock instant Convert read, and its key
// covers that instant.
func (c *Conversion) Key(i int) uint64 {
	e, b := c.e, c.blocks[i]
	var h maphash.Hash
	h.SetSeed(keySeed)
	writeUint(&h, c.seed)
	writeUint(&h, uint64(b.kind))
	var first *Attribute
	switch b.kind {
	case blockObject:
		obj := &e.Objects[b.at]
		writeString(&h, obj.Name)
		for j := range obj.Attributes {
			writeAttribute(&h, &obj.Attributes[j])
		}
		first = obj.FindAttribute("vulnerability")
	case blockIndicator:
		first = &e.Attributes[b.at]
		writeAttribute(&h, first)
	case blockVulnerability:
		first = &e.Attributes[b.at]
		writeAttribute(&h, first)
		for j := b.at + 1; j < b.end; j++ {
			if decoratesVulnerability(&e.Attributes[j]) {
				writeAttribute(&h, &e.Attributes[j])
			}
		}
	}
	at := c.now
	if first != nil && !first.Timestamp.IsZero() {
		at = first.Timestamp.Time
	}
	writeTime(&h, at)
	return h.Sum64()
}

// decoratesVulnerability reports whether the attribute decorates the most
// recent vulnerability instead of converting on its own: a CVSS vector, a
// reference link, or an os:/products: context text. Before any
// vulnerability it is dropped.
func decoratesVulnerability(a *Attribute) bool {
	switch a.Type {
	case "cvss-vector", "link":
		return true
	case "text":
		return strings.HasPrefix(a.Value, "os:") || strings.HasPrefix(a.Value, "products:")
	}
	return false
}

// mark applies the event's TLP marking to obj and returns it.
func (c *Conversion) mark(obj stix.Object) stix.Object {
	if c.marking != "" {
		common := obj.GetCommon()
		common.ObjectMarkingRefs = append(common.ObjectMarkingRefs, c.marking)
	}
	return obj
}

// tlpMarking maps the event's first tlp:* tag to the predefined TLP
// marking definition every object references; "" without one.
func tlpMarking(e *Event) string {
	for _, tag := range e.Tags {
		if level, ok := strings.CutPrefix(tag.Name, "tlp:"); ok {
			if m := stix.TLPMarking(strings.ToLower(level)); m != nil {
				return m.ID
			}
			return ""
		}
	}
	return ""
}

func writeAttribute(h *maphash.Hash, a *Attribute) {
	writeString(h, a.Type)
	writeString(h, a.Value)
	writeString(h, a.Comment)
	if a.ToIDS {
		h.WriteByte(1)
	} else {
		h.WriteByte(0)
	}
	writeTime(h, a.Timestamp.Time)
}

func writeString(h *maphash.Hash, s string) {
	writeUint(h, uint64(len(s)))
	h.WriteString(s)
}

func writeTime(h *maphash.Hash, t time.Time) {
	writeUint(h, uint64(t.Unix()))
	writeUint(h, uint64(t.Nanosecond()))
}

func writeUint(h *maphash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
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

package correlate

import (
	"strings"

	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
)

const (
	categoryTagPrefix       = "caisp:category=\""
	clusterContentTagPrefix = "caisp:cluster-content=\""
)

// memberTypes inverts attributeKind: the MISP attribute types that carry
// member indicator values, with the normalized type each stands for.
// Context-bearing attributes — comments, classification text, cvss
// vectors, reference links — are absent. "ip-dst" stands for three
// address types; MemberType tells them apart.
var memberTypes = func() map[string]normalize.IoCType {
	out := make(map[string]normalize.IoCType)
	for _, typ := range []normalize.IoCType{
		normalize.TypeIPv4, normalize.TypeIPv6, normalize.TypeCIDR, normalize.TypeDomain,
		normalize.TypeURL, normalize.TypeEmail, normalize.TypeMD5, normalize.TypeSHA1,
		normalize.TypeSHA256, normalize.TypeSHA512, normalize.TypeCVE, normalize.TypeFilename,
	} {
		attr, _ := attributeKind(typ)
		out[attr] = typ
	}
	return out
}()

// MemberType returns the normalized indicator type of a member attribute
// of a stored composed IoC; ok is false for context-bearing attributes.
// ToMISP stored the member's canonical value, so the address types that
// share "ip-dst" are told apart by its shape alone: a canonical CIDR has
// a slash, a canonical IPv6 address a colon.
func MemberType(a *misp.Attribute) (typ normalize.IoCType, ok bool) {
	typ, ok = memberTypes[a.Type]
	if a.Type == "ip-dst" {
		switch {
		case strings.Contains(a.Value, "/"):
			typ = normalize.TypeCIDR
		case strings.Contains(a.Value, ":"):
			typ = normalize.TypeIPv6
		default:
			typ = normalize.TypeIPv4
		}
	}
	return typ, ok
}

// CategoryOf extracts the threat category a composed IoC was stored with,
// or "" if the event carries no category tag.
func CategoryOf(e *misp.Event) string {
	for _, t := range e.Tags {
		if v, ok := strings.CutPrefix(t.Name, categoryTagPrefix); ok {
			return strings.TrimSuffix(v, "\"")
		}
	}
	return ""
}

// ClusterContentOf extracts the membership content hash of a stored
// composed IoC, or "" if absent (events predating the streaming
// correlator).
func ClusterContentOf(e *misp.Event) string {
	for _, t := range e.Tags {
		if v, ok := strings.CutPrefix(t.Name, clusterContentTagPrefix); ok {
			return strings.TrimSuffix(v, "\"")
		}
	}
	return ""
}

// MembersFromMISP reconstructs the normalized member events of a stored
// composed IoC so the streaming correlator's index can be rebuilt after a
// restart. Reconstruction is lossy in context (description, cvss, …) but
// lossless in what correlation needs: normalize.New re-derives the same
// deterministic event ID from (value, category), and the attribute
// timestamp restores the sighting time the lifecycle engine decays from.
// Returns nil for events that are not composed IoCs.
func MembersFromMISP(e *misp.Event) []normalize.Event {
	if !e.HasTag("caisp:cioc") {
		return nil
	}
	category := CategoryOf(e)
	if category == "" {
		return nil
	}
	var out []normalize.Event
	for i := range e.Attributes {
		a := &e.Attributes[i]
		if _, ok := memberTypes[a.Type]; !ok {
			continue
		}
		source := sourceFromComment(a.Comment)
		ev, err := normalize.New(a.Value, category, source, normalize.SourceOSINT, a.Timestamp.Time)
		if err != nil {
			continue
		}
		out = append(out, ev)
	}
	return out
}

// sourceFromComment recovers the first feed name from an attribute comment
// written by attributeComment ("… | sources: a, b").
func sourceFromComment(comment string) string {
	for _, part := range strings.Split(comment, " | ") {
		if rest, ok := strings.CutPrefix(part, "sources: "); ok {
			if first, _, found := strings.Cut(rest, ","); found {
				return strings.TrimSpace(first)
			}
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

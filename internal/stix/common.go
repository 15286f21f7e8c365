// Package stix implements the STIX 2.0 data model used throughout the
// platform: the twelve STIX Domain Objects (SDOs), the relationship objects,
// and bundles, with JSON round-tripping that preserves custom properties
// (the heuristic component stores its threat score as a custom property on
// enriched IoCs). The paper adopts STIX 2.0 as the interchange format
// between the MISP-like operational module and the heuristic component.
package stix

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/caisplatform/caisp/internal/uuid"
)

// Object type names for the STIX 2.0 SDOs and SROs.
const (
	TypeAttackPattern  = "attack-pattern"
	TypeCampaign       = "campaign"
	TypeCourseOfAction = "course-of-action"
	TypeIdentity       = "identity"
	TypeIndicator      = "indicator"
	TypeIntrusionSet   = "intrusion-set"
	TypeMalware        = "malware"
	TypeObservedData   = "observed-data"
	TypeReport         = "report"
	TypeThreatActor    = "threat-actor"
	TypeTool           = "tool"
	TypeVulnerability  = "vulnerability"
	TypeRelationship   = "relationship"
	TypeSighting       = "sighting"
	TypeBundle         = "bundle"
	TypeMarkingDef     = "marking-definition"
)

// SDOTypes lists the twelve STIX 2.0 domain object types in specification
// order. The paper selects six of them as heuristics (see package heuristic).
var SDOTypes = []string{
	TypeAttackPattern, TypeCampaign, TypeCourseOfAction, TypeIdentity,
	TypeIndicator, TypeIntrusionSet, TypeMalware, TypeObservedData,
	TypeReport, TypeThreatActor, TypeTool, TypeVulnerability,
}

var errBadID = errors.New("stix: malformed identifier")

// NewID returns a fresh random identifier "<type>--<uuidv4>" for typ.
func NewID(typ string) string {
	return typ + "--" + uuid.NewV4().String()
}

// DeterministicID derives a stable identifier for typ from name, so repeated
// imports of the same logical object map to the same STIX id.
func DeterministicID(typ, name string) string {
	var buf [128]byte
	b := append(append(append(buf[:0], typ...), '/'), name...)
	u := uuid.NewV5(uuid.NamespaceCAISP, b)
	return string(u.Append(append(append(b[:0], typ...), "--"...)))
}

// ParseID splits a STIX identifier into its type and UUID components.
func ParseID(id string) (typ string, u uuid.UUID, err error) {
	typ, rest, ok := strings.Cut(id, "--")
	if !ok || typ == "" {
		return "", uuid.Nil, errBadID
	}
	u, err = uuid.Parse(rest)
	if err != nil {
		return "", uuid.Nil, fmt.Errorf("%w: %q", errBadID, id)
	}
	return typ, u, nil
}

// ValidID reports whether id is a well-formed STIX identifier of any type.
func ValidID(id string) bool {
	_, _, err := ParseID(id)
	return err == nil
}

// IDType returns the type component of a STIX identifier, or "" if malformed.
func IDType(id string) string {
	typ, _, err := ParseID(id)
	if err != nil {
		return ""
	}
	return typ
}

// timestampLayout is the STIX 2.0 serialization of timestamps: RFC 3339 in
// UTC with millisecond precision and a literal Z designator.
const timestampLayout = "2006-01-02T15:04:05.000Z"

// Timestamp is a STIX timestamp. It marshals in the exact format mandated by
// the specification and accepts any RFC 3339 subsecond precision on input.
type Timestamp struct {
	time.Time
}

// TS builds a Timestamp from a time.Time, normalized to UTC.
func TS(t time.Time) Timestamp { return Timestamp{t.UTC()} }

// MarshalJSON renders the timestamp in STIX canonical form.
func (t Timestamp) MarshalJSON() ([]byte, error) {
	if t.IsZero() {
		return []byte(`null`), nil
	}
	return []byte(`"` + t.UTC().Format(timestampLayout) + `"`), nil
}

// UnmarshalJSON accepts RFC 3339 timestamps with any fractional precision.
func (t *Timestamp) UnmarshalJSON(data []byte) error {
	s := strings.Trim(string(data), `"`)
	if s == "null" || s == "" {
		t.Time = time.Time{}
		return nil
	}
	parsed, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return fmt.Errorf("stix: bad timestamp %q: %w", s, err)
	}
	t.Time = parsed.UTC()
	return nil
}

// ExternalReference points at non-STIX information (a CVE entry, a CAPEC
// pattern, an advisory URL). Table IV scores the external_references feature
// by how many of these resolve against a local inventory of known sources.
type ExternalReference struct {
	SourceName  string `json:"source_name"`
	Description string `json:"description,omitempty"`
	URL         string `json:"url,omitempty"`
	ExternalID  string `json:"external_id,omitempty"`
}

// KillChainPhase places an object within a kill chain model.
type KillChainPhase struct {
	KillChainName string `json:"kill_chain_name"`
	PhaseName     string `json:"phase_name"`
}

// Common carries the properties shared by every STIX domain object.
type Common struct {
	Type               string              `json:"type"`
	ID                 string              `json:"id"`
	CreatedByRef       string              `json:"created_by_ref,omitempty"`
	Created            Timestamp           `json:"created"`
	Modified           Timestamp           `json:"modified"`
	Revoked            bool                `json:"revoked,omitempty"`
	Labels             []string            `json:"labels,omitempty"`
	ExternalReferences []ExternalReference `json:"external_references,omitempty"`
	ObjectMarkingRefs  []string            `json:"object_marking_refs,omitempty"`

	// Extra holds custom (x_…) and otherwise unrecognized properties so
	// they survive a decode/encode round trip. Keys that collide with
	// declared struct fields are ignored on marshal.
	Extra map[string]any `json:"-"`
}

// GetCommon returns the embedded common properties; it makes any SDO pointer
// satisfy the Object interface.
func (c *Common) GetCommon() *Common { return c }

// SetExtra records a custom property on the object.
func (c *Common) SetExtra(key string, value any) {
	if c.Extra == nil {
		c.Extra = make(map[string]any)
	}
	c.Extra[key] = value
}

// ExtraString returns the named custom property as a string, if present.
func (c *Common) ExtraString(key string) (string, bool) {
	v, ok := c.Extra[key]
	if !ok {
		return "", false
	}
	s, ok := v.(string)
	return s, ok
}

// ExtraFloat returns the named custom property as a float64, if present.
func (c *Common) ExtraFloat(key string) (float64, bool) {
	v, ok := c.Extra[key]
	if !ok {
		return 0, false
	}
	switch n := v.(type) {
	case float64:
		return n, true
	case int:
		return float64(n), true
	default:
		return 0, false
	}
}

// MarkingDefinition is the STIX 2.0 data-marking object. Only the
// statement and TLP definition types are modelled; the four TLP markings
// are predefined per the specification.
type MarkingDefinition struct {
	Type           string         `json:"type"`
	ID             string         `json:"id"`
	Created        Timestamp      `json:"created"`
	DefinitionType string         `json:"definition_type"`
	Definition     map[string]any `json:"definition"`
}

// The four predefined TLP marking ids from the STIX 2.0 specification.
const (
	TLPWhiteID = "marking-definition--613f2e26-407d-48c7-9eca-b8e91df99dc9"
	TLPGreenID = "marking-definition--34098fce-860f-48ae-8e50-ebd3cc5e41da"
	TLPAmberID = "marking-definition--f88d31f6-486f-44da-b317-01333bde0b82"
	TLPRedID   = "marking-definition--5e57c739-391a-4eb3-b6be-7d15ca92d5ed"
)

// TLPMarking returns the predefined marking-definition object for a TLP
// level name ("white", "green", "amber", "red"), or nil for other names.
func TLPMarking(level string) *MarkingDefinition {
	ids := map[string]string{
		"white": TLPWhiteID, "green": TLPGreenID,
		"amber": TLPAmberID, "red": TLPRedID,
	}
	id, ok := ids[level]
	if !ok {
		return nil
	}
	return &MarkingDefinition{
		Type:           TypeMarkingDef,
		ID:             id,
		Created:        TS(time.Date(2017, 1, 20, 0, 0, 0, 0, time.UTC)),
		DefinitionType: "tlp",
		Definition:     map[string]any{"tlp": level},
	}
}

// Object is implemented by every STIX object in this package.
type Object interface {
	// GetCommon exposes the shared STIX properties of the object.
	GetCommon() *Common
}

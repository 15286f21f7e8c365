// Package misp implements the MISP core format: events, attributes, objects
// and tags, together with conversion to and from STIX 2.0. The operational
// module of the platform stores every composed IoC as a MISP event (the
// paper relies on a MISP instance for storage and sharing) and converts it
// to STIX 2.0 for the heuristic analysis.
package misp

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/caisplatform/caisp/internal/uuid"
)

// Threat levels as defined by MISP.
const (
	ThreatLevelHigh      = 1
	ThreatLevelMedium    = 2
	ThreatLevelLow       = 3
	ThreatLevelUndefined = 4
)

// Analysis states as defined by MISP.
const (
	AnalysisInitial  = 0
	AnalysisOngoing  = 1
	AnalysisComplete = 2
)

// Distribution levels as defined by MISP.
const (
	DistributionOrganisation = 0
	DistributionCommunity    = 1
	DistributionConnected    = 2
	DistributionAll          = 3
)

// Event is a MISP event: the unit of storage and sharing. JSON field names
// follow the MISP core format (UpperCamel for nested entities, snake_case
// for scalars).
type Event struct {
	UUID          string      `json:"uuid"`
	Info          string      `json:"info"`
	Date          string      `json:"date"` // YYYY-MM-DD
	ThreatLevelID int         `json:"threat_level_id"`
	Analysis      int         `json:"analysis"`
	Distribution  int         `json:"distribution"`
	Published     bool        `json:"published"`
	Timestamp     UnixTime    `json:"timestamp"`
	Orgc          *Org        `json:"Orgc,omitempty"`
	Attributes    []Attribute `json:"Attribute,omitempty"`
	Objects       []Object    `json:"Object,omitempty"`
	Tags          []Tag       `json:"Tag,omitempty"`
}

// Org identifies the organisation that created an event.
type Org struct {
	UUID string `json:"uuid"`
	Name string `json:"name"`
}

// Attribute is a single datum of an event (an IoC value, a CVE id, …).
type Attribute struct {
	UUID      string   `json:"uuid"`
	Type      string   `json:"type"`
	Category  string   `json:"category"`
	Value     string   `json:"value"`
	Comment   string   `json:"comment,omitempty"`
	ToIDS     bool     `json:"to_ids"`
	Timestamp UnixTime `json:"timestamp"`
	Tags      []Tag    `json:"Tag,omitempty"`
}

// contextTextPrefixes mark the "text" attributes correlate.ToMISP
// synthesises to carry context beside a member indicator.
var contextTextPrefixes = [...]string{"classification:", "os:", "products:"}

// Correlates reports whether the attribute takes part in automatic
// correlation. Free-text bookkeeping does not: MISP's "comment" type
// (which also carries the threat-score:/decayed-score: write-backs),
// CVSS vectors (MISP's vulnerability template disables correlation on
// them) and the prefixed context "text" attributes. Each of those is
// shared by a growing fraction of all stored events, so correlating on
// them links events by the platform's own annotations and makes every
// lookup O(history).
func (a *Attribute) Correlates() bool {
	switch a.Type {
	case "comment", "cvss-vector":
		return false
	case "text":
		for _, p := range contextTextPrefixes {
			if strings.HasPrefix(a.Value, p) {
				return false
			}
		}
	}
	return true
}

// Object groups attributes under a template (e.g. "vulnerability", "file").
type Object struct {
	UUID         string      `json:"uuid"`
	Name         string      `json:"name"`
	MetaCategory string      `json:"meta-category,omitempty"`
	Description  string      `json:"description,omitempty"`
	Attributes   []Attribute `json:"Attribute,omitempty"`
}

// Tag labels an event or attribute.
type Tag struct {
	Name   string `json:"name"`
	Colour string `json:"colour,omitempty"`
}

// UnixTime is MISP's string-encoded Unix timestamp.
type UnixTime struct {
	time.Time
}

// UT wraps a time.Time as a MISP timestamp.
func UT(t time.Time) UnixTime { return UnixTime{t.UTC()} }

// MarshalJSON encodes the timestamp as a decimal string, MISP style.
func (t UnixTime) MarshalJSON() ([]byte, error) {
	if t.IsZero() {
		return []byte(`"0"`), nil
	}
	return []byte(`"` + strconv.FormatInt(t.Unix(), 10) + `"`), nil
}

// UnmarshalJSON accepts both string-encoded and bare integer timestamps.
func (t *UnixTime) UnmarshalJSON(data []byte) error {
	s := string(data)
	if len(s) >= 2 && s[0] == '"' {
		s = s[1 : len(s)-1]
	}
	if s == "" || s == "0" || s == "null" {
		t.Time = time.Time{}
		return nil
	}
	secs, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return fmt.Errorf("misp: bad timestamp %q: %w", s, err)
	}
	t.Time = time.Unix(secs, 0).UTC()
	return nil
}

// NewEvent builds an empty event stamped at now.
func NewEvent(info string, now time.Time) *Event {
	return &Event{
		UUID:          uuid.NewV4().String(),
		Info:          info,
		Date:          now.UTC().Format("2006-01-02"),
		ThreatLevelID: ThreatLevelUndefined,
		Analysis:      AnalysisInitial,
		Distribution:  DistributionCommunity,
		Timestamp:     UT(now),
	}
}

// AddAttribute appends a new attribute and returns a pointer to it.
func (e *Event) AddAttribute(typ, category, value string, now time.Time) *Attribute {
	e.Attributes = append(e.Attributes, Attribute{
		UUID:      uuid.NewV4().String(),
		Type:      typ,
		Category:  category,
		Value:     value,
		ToIDS:     defaultToIDS(typ),
		Timestamp: UT(now),
	})
	return &e.Attributes[len(e.Attributes)-1]
}

// AddObject appends a template-grouped object to the event and returns a
// pointer to it for attribute population.
func (e *Event) AddObject(name, metaCategory string) *Object {
	e.Objects = append(e.Objects, Object{
		UUID:         uuid.NewV4().String(),
		Name:         name,
		MetaCategory: metaCategory,
	})
	return &e.Objects[len(e.Objects)-1]
}

// AddAttribute appends an attribute to the object and returns a pointer to
// it.
func (o *Object) AddAttribute(typ, category, value string, now time.Time) *Attribute {
	o.Attributes = append(o.Attributes, Attribute{
		UUID:      uuid.NewV4().String(),
		Type:      typ,
		Category:  category,
		Value:     value,
		ToIDS:     defaultToIDS(typ),
		Timestamp: UT(now),
	})
	return &o.Attributes[len(o.Attributes)-1]
}

// FindAttribute returns the object's first attribute of the given type, or
// nil.
func (o *Object) FindAttribute(typ string) *Attribute {
	for i := range o.Attributes {
		if o.Attributes[i].Type == typ {
			return &o.Attributes[i]
		}
	}
	return nil
}

// AddTag appends a tag to the event if not already present.
func (e *Event) AddTag(name string) {
	for _, t := range e.Tags {
		if t.Name == name {
			return
		}
	}
	e.Tags = append(e.Tags, Tag{Name: name})
}

// HasTag reports whether the event carries the named tag.
func (e *Event) HasTag(name string) bool {
	for _, t := range e.Tags {
		if t.Name == name {
			return true
		}
	}
	return false
}

// FindAttribute returns the first attribute of the given type, or nil.
func (e *Event) FindAttribute(typ string) *Attribute {
	for i := range e.Attributes {
		if e.Attributes[i].Type == typ {
			return &e.Attributes[i]
		}
	}
	return nil
}

// Validate checks structural invariants of the event.
func (e *Event) Validate() error {
	if !uuid.IsValid(e.UUID) {
		return fmt.Errorf("misp: event has invalid uuid %q", e.UUID)
	}
	if e.Info == "" {
		return fmt.Errorf("misp: event %s has empty info", e.UUID)
	}
	if _, err := time.Parse("2006-01-02", e.Date); err != nil {
		return fmt.Errorf("misp: event %s has bad date %q", e.UUID, e.Date)
	}
	if e.ThreatLevelID < ThreatLevelHigh || e.ThreatLevelID > ThreatLevelUndefined {
		return fmt.Errorf("misp: event %s has bad threat_level_id %d", e.UUID, e.ThreatLevelID)
	}
	if e.Analysis < AnalysisInitial || e.Analysis > AnalysisComplete {
		return fmt.Errorf("misp: event %s has bad analysis %d", e.UUID, e.Analysis)
	}
	for _, a := range e.Attributes {
		if err := validateAttribute(&a, e.UUID); err != nil {
			return err
		}
	}
	for _, o := range e.Objects {
		if !uuid.IsValid(o.UUID) {
			return fmt.Errorf("misp: object of event %s has invalid uuid %q", e.UUID, o.UUID)
		}
		if o.Name == "" {
			return fmt.Errorf("misp: object %s has empty name", o.UUID)
		}
		for _, a := range o.Attributes {
			if err := validateAttribute(&a, e.UUID); err != nil {
				return err
			}
		}
	}
	return nil
}

func validateAttribute(a *Attribute, eventUUID string) error {
	if !uuid.IsValid(a.UUID) {
		return fmt.Errorf("misp: attribute of event %s has invalid uuid %q", eventUUID, a.UUID)
	}
	if a.Type == "" || a.Value == "" {
		return fmt.Errorf("misp: attribute %s has empty type or value", a.UUID)
	}
	return nil
}

// Wrapped is the network framing used by MISP APIs: {"Event": {...}}.
type Wrapped struct {
	Event *Event `json:"Event"`
}

// MarshalWrapped encodes the event inside the {"Event": …} envelope.
func MarshalWrapped(e *Event) ([]byte, error) {
	return json.Marshal(Wrapped{Event: e})
}

// defaultToIDS mirrors MISP's defaults: detection-grade network indicators
// default to exportable, free-text context does not.
func defaultToIDS(typ string) bool {
	switch typ {
	case "ip-src", "ip-dst", "domain", "hostname", "url", "md5", "sha1",
		"sha256", "sha512", "filename", "email-src", "email-dst":
		return true
	default:
		return false
	}
}

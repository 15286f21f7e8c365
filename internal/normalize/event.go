// Package normalize converts raw OSINT feed records into canonical security
// events — the common representation the paper's OSINT Data Collector
// requires before deduplication and aggregation ("to process correctly the
// security events received, it is necessary that they should be in a common
// format"). Normalization infers the IoC type of a value, refangs defanged
// indicators, and canonicalizes the value so that equal indicators from
// different feeds compare equal.
package normalize

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/caisplatform/caisp/internal/uuid"
)

// IoCType classifies an indicator value.
type IoCType string

// Indicator types recognised by the platform.
const (
	TypeUnknown  IoCType = "unknown"
	TypeIPv4     IoCType = "ipv4"
	TypeIPv6     IoCType = "ipv6"
	TypeCIDR     IoCType = "cidr"
	TypeDomain   IoCType = "domain"
	TypeURL      IoCType = "url"
	TypeEmail    IoCType = "email"
	TypeMD5      IoCType = "md5"
	TypeSHA1     IoCType = "sha1"
	TypeSHA256   IoCType = "sha256"
	TypeSHA512   IoCType = "sha512"
	TypeCVE      IoCType = "cve"
	TypeFilename IoCType = "filename"
)

// Threat categories used for aggregation (paper §III-A1: "aggregates the
// security events by threat category").
const (
	CategoryMalwareDomain = "malware-domain"
	CategoryBotnetC2      = "botnet-c2"
	CategoryPhishing      = "phishing"
	CategoryVulnExploit   = "vulnerability-exploitation"
	CategoryBruteForce    = "brute-force"
	CategoryScanner       = "scanner"
	CategorySpam          = "spam"
	CategoryMalwareHash   = "malware-hash"
	CategoryUnknown       = "unknown"
)

// Source types distinguishing where an event was produced.
const (
	SourceOSINT          = "osint"
	SourceInfrastructure = "infrastructure"
)

// Event is the canonical, normalized form of one observed security datum.
type Event struct {
	// ID is deterministic over (Type, Value, Category): the same indicator
	// reported twice — by the same or another feed — has the same ID.
	ID string `json:"id"`
	// Type is the inferred indicator type.
	Type IoCType `json:"type"`
	// Value is the canonical indicator value.
	Value string `json:"value"`
	// Category is the threat category used for aggregation.
	Category string `json:"category"`
	// Source is the name of the feed or collector that produced the event.
	Source string `json:"source"`
	// SourceType is "osint" or "infrastructure".
	SourceType string `json:"source_type"`
	// FirstSeen and LastSeen bound the observation window.
	FirstSeen time.Time `json:"first_seen"`
	LastSeen  time.Time `json:"last_seen"`
	// Context carries source-specific extras (description, cvss, ports…).
	Context map[string]string `json:"context,omitempty"`
}

// New builds a normalized event from a raw value: the value is refanged,
// its type inferred (unless forced via typ != ""), canonicalized, and the
// deterministic ID assigned.
func New(rawValue, category, source, sourceType string, seen time.Time) (Event, error) {
	value := Refang(strings.TrimSpace(rawValue))
	if value == "" {
		return Event{}, fmt.Errorf("normalize: empty value")
	}
	typ := InferType(value)
	canonical := CanonicalValue(typ, value)
	if category == "" {
		category = CategoryUnknown
	}
	e := Event{
		Type:       typ,
		Value:      canonical,
		Category:   category,
		Source:     source,
		SourceType: sourceType,
		FirstSeen:  seen.UTC(),
		LastSeen:   seen.UTC(),
	}
	e.ID = EventID(typ, canonical, category)
	return e, nil
}

// EventID derives the deterministic identifier shared by duplicate events.
func EventID(typ IoCType, canonicalValue, category string) string {
	return uuid.NewV5(uuid.NamespaceCAISP, "", "\x00", string(typ), canonicalValue, category).String()
}

// Canonicalize re-normalizes an event in place (idempotent): refangs and
// canonicalizes the value, re-infers the type if unknown, and recomputes the
// ID. It returns an error for events that lose their value entirely.
func Canonicalize(e *Event) error {
	value := Refang(strings.TrimSpace(e.Value))
	if value == "" {
		return fmt.Errorf("normalize: event %s has empty value", e.ID)
	}
	typ := e.Type
	if typ == "" || typ == TypeUnknown {
		typ = InferType(value)
	}
	e.Type = typ
	e.Value = CanonicalValue(typ, value)
	if e.Category == "" {
		e.Category = CategoryUnknown
	}
	if e.SourceType == "" {
		e.SourceType = SourceOSINT
	}
	e.FirstSeen = e.FirstSeen.UTC()
	e.LastSeen = e.LastSeen.UTC()
	if e.LastSeen.Before(e.FirstSeen) {
		e.FirstSeen, e.LastSeen = e.LastSeen, e.FirstSeen
	}
	e.ID = EventID(e.Type, e.Value, e.Category)
	return nil
}

// Merge folds other into e: widens the observation window and unions the
// context, recording extra sources under the "sources" context key. Both
// events must share the same ID.
func Merge(e *Event, other Event) error {
	if e.ID != other.ID {
		return fmt.Errorf("normalize: cannot merge %s into %s", other.ID, e.ID)
	}
	if other.FirstSeen.Before(e.FirstSeen) {
		e.FirstSeen = other.FirstSeen
	}
	if other.LastSeen.After(e.LastSeen) {
		e.LastSeen = other.LastSeen
	}
	if other.Source != "" && other.Source != e.Source {
		set := make(map[string]bool)
		for _, s := range strings.Split(e.contextGet("sources"), ",") {
			if s != "" {
				set[s] = true
			}
		}
		set[e.Source] = true
		set[other.Source] = true
		names := make([]string, 0, len(set))
		for s := range set {
			names = append(names, s)
		}
		sort.Strings(names)
		e.contextSet("sources", strings.Join(names, ","))
	}
	for k, v := range other.Context {
		if _, exists := e.Context[k]; !exists {
			e.contextSet(k, v)
		}
	}
	return nil
}

// Sources lists every feed that reported the event (the primary source plus
// any merged in from duplicates).
func (e *Event) Sources() []string {
	merged := e.contextGet("sources")
	if merged == "" {
		if e.Source == "" {
			return nil
		}
		return []string{e.Source}
	}
	return strings.Split(merged, ",")
}

func (e *Event) contextGet(key string) string {
	return e.Context[key]
}

func (e *Event) contextSet(key, value string) {
	if e.Context == nil {
		e.Context = make(map[string]string)
	}
	e.Context[key] = value
}

// ObservationFields renders the event as STIX-pattern observation fields so
// indicator patterns can be evaluated against it.
func (e *Event) ObservationFields() map[string][]string {
	return map[string][]string{ObservationPath(e.Type): {e.Value}}
}

// ObservationPath returns the STIX object path under which an indicator of
// the given type is observed.
func ObservationPath(typ IoCType) string {
	switch typ {
	case TypeIPv4, TypeCIDR:
		return "ipv4-addr:value"
	case TypeIPv6:
		return "ipv6-addr:value"
	case TypeDomain:
		return "domain-name:value"
	case TypeURL:
		return "url:value"
	case TypeEmail:
		return "email-addr:value"
	case TypeMD5:
		return "file:hashes.'MD5'"
	case TypeSHA1:
		return "file:hashes.'SHA-1'"
	case TypeSHA256:
		return "file:hashes.'SHA-256'"
	case TypeSHA512:
		return "file:hashes.'SHA-512'"
	case TypeFilename:
		return "file:name"
	case TypeCVE:
		return "vulnerability:name"
	default:
		return "artifact:payload"
	}
}

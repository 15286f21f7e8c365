package stix

// The twelve STIX 2.0 domain objects plus the two relationship objects.
// Every struct embeds Common; type-specific properties follow the
// specification's property tables. Optional vocabulary fields are plain
// strings — validation checks them against open vocabularies where the
// specification defines one.

import "github.com/caisplatform/caisp/internal/stixpattern"

// AttackPattern describes ways threat actors attempt to compromise targets
// (tactics, techniques and procedures).
type AttackPattern struct {
	Common

	Name            string           `json:"name"`
	Description     string           `json:"description,omitempty"`
	KillChainPhases []KillChainPhase `json:"kill_chain_phases,omitempty"`
}

// Campaign is a grouping of adversarial behaviour over time against specific
// targets.
type Campaign struct {
	Common

	Name        string    `json:"name"`
	Description string    `json:"description,omitempty"`
	Aliases     []string  `json:"aliases,omitempty"`
	FirstSeen   Timestamp `json:"first_seen,omitempty"`
	LastSeen    Timestamp `json:"last_seen,omitempty"`
	Objective   string    `json:"objective,omitempty"`
}

// CourseOfAction is an action taken to prevent or respond to an attack.
type CourseOfAction struct {
	Common

	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
}

// Identity represents individuals, organizations or groups, or classes of
// them, that may be involved in a security event.
type Identity struct {
	Common

	Name               string   `json:"name"`
	Description        string   `json:"description,omitempty"`
	IdentityClass      string   `json:"identity_class"`
	Sectors            []string `json:"sectors,omitempty"`
	ContactInformation string   `json:"contact_information,omitempty"`
}

// Indicator contains a pattern used to detect suspicious or malicious cyber
// activity.
type Indicator struct {
	Common

	Name            string           `json:"name,omitempty"`
	Description     string           `json:"description,omitempty"`
	Pattern         string           `json:"pattern"`
	ValidFrom       Timestamp        `json:"valid_from"`
	ValidUntil      Timestamp        `json:"valid_until,omitempty"`
	KillChainPhases []KillChainPhase `json:"kill_chain_phases,omitempty"`

	// Compiled is Pattern as an AST, kept by whoever built the pattern
	// from one (misp.ToSTIX) so evaluation need not parse the text it
	// was rendered from. It is not serialised: a decoded indicator has
	// none, and a Compiled whose Source differs from Pattern is stale.
	Compiled *stixpattern.Pattern `json:"-"`
}

// IntrusionSet is a grouped set of adversarial behaviour and resources with
// common properties believed to be orchestrated by a single organization.
type IntrusionSet struct {
	Common

	Name                 string    `json:"name"`
	Description          string    `json:"description,omitempty"`
	Aliases              []string  `json:"aliases,omitempty"`
	FirstSeen            Timestamp `json:"first_seen,omitempty"`
	LastSeen             Timestamp `json:"last_seen,omitempty"`
	Goals                []string  `json:"goals,omitempty"`
	ResourceLevel        string    `json:"resource_level,omitempty"`
	PrimaryMotivation    string    `json:"primary_motivation,omitempty"`
	SecondaryMotivations []string  `json:"secondary_motivations,omitempty"`
}

// Malware is malicious code or software used to compromise the
// confidentiality, integrity or availability of a victim's data or system.
type Malware struct {
	Common

	Name            string           `json:"name"`
	Description     string           `json:"description,omitempty"`
	KillChainPhases []KillChainPhase `json:"kill_chain_phases,omitempty"`
}

// ObservedData conveys raw information observed on systems and networks.
type ObservedData struct {
	Common

	FirstObserved  Timestamp      `json:"first_observed"`
	LastObserved   Timestamp      `json:"last_observed"`
	NumberObserved int            `json:"number_observed"`
	Objects        map[string]any `json:"objects"`
}

// Report is a collection of threat intelligence focused on one or more
// topics.
type Report struct {
	Common

	Name        string    `json:"name"`
	Description string    `json:"description,omitempty"`
	Published   Timestamp `json:"published"`
	ObjectRefs  []string  `json:"object_refs"`
}

// ThreatActor is an individual, group or organization believed to operate
// with malicious intent.
type ThreatActor struct {
	Common

	Name                 string   `json:"name"`
	Description          string   `json:"description,omitempty"`
	Aliases              []string `json:"aliases,omitempty"`
	Roles                []string `json:"roles,omitempty"`
	Goals                []string `json:"goals,omitempty"`
	Sophistication       string   `json:"sophistication,omitempty"`
	ResourceLevel        string   `json:"resource_level,omitempty"`
	PrimaryMotivation    string   `json:"primary_motivation,omitempty"`
	SecondaryMotivations []string `json:"secondary_motivations,omitempty"`
}

// Tool is legitimate software that can be used by threat actors to perform
// attacks.
type Tool struct {
	Common

	Name            string           `json:"name"`
	Description     string           `json:"description,omitempty"`
	ToolVersion     string           `json:"tool_version,omitempty"`
	KillChainPhases []KillChainPhase `json:"kill_chain_phases,omitempty"`
}

// Vulnerability is a mistake in software that can be directly used by a
// hacker to gain access to a system or network. This is the SDO exercised by
// the paper's §IV remote-code-execution use case.
type Vulnerability struct {
	Common

	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
}

// Relationship links two STIX objects and describes how they are related.
type Relationship struct {
	Common

	RelationshipType string `json:"relationship_type"`
	Description      string `json:"description,omitempty"`
	SourceRef        string `json:"source_ref"`
	TargetRef        string `json:"target_ref"`
}

// Sighting denotes that an SDO was seen (e.g. an indicator matched).
type Sighting struct {
	Common

	FirstSeen        Timestamp `json:"first_seen,omitempty"`
	LastSeen         Timestamp `json:"last_seen,omitempty"`
	Count            int       `json:"count,omitempty"`
	SightingOfRef    string    `json:"sighting_of_ref"`
	ObservedDataRefs []string  `json:"observed_data_refs,omitempty"`
	WhereSightedRefs []string  `json:"where_sighted_refs,omitempty"`
}

// Compile-time interface conformance for every object type.
var (
	_ Object = (*AttackPattern)(nil)
	_ Object = (*Campaign)(nil)
	_ Object = (*CourseOfAction)(nil)
	_ Object = (*Identity)(nil)
	_ Object = (*Indicator)(nil)
	_ Object = (*IntrusionSet)(nil)
	_ Object = (*Malware)(nil)
	_ Object = (*ObservedData)(nil)
	_ Object = (*Report)(nil)
	_ Object = (*ThreatActor)(nil)
	_ Object = (*Tool)(nil)
	_ Object = (*Vulnerability)(nil)
	_ Object = (*Relationship)(nil)
	_ Object = (*Sighting)(nil)
)

// New allocates an empty object of the given STIX type, for decoding.
// It returns nil for unknown types.
func New(typ string) Object {
	switch typ {
	case TypeAttackPattern:
		return &AttackPattern{}
	case TypeCampaign:
		return &Campaign{}
	case TypeCourseOfAction:
		return &CourseOfAction{}
	case TypeIdentity:
		return &Identity{}
	case TypeIndicator:
		return &Indicator{}
	case TypeIntrusionSet:
		return &IntrusionSet{}
	case TypeMalware:
		return &Malware{}
	case TypeObservedData:
		return &ObservedData{}
	case TypeReport:
		return &Report{}
	case TypeThreatActor:
		return &ThreatActor{}
	case TypeTool:
		return &Tool{}
	case TypeVulnerability:
		return &Vulnerability{}
	case TypeRelationship:
		return &Relationship{}
	case TypeSighting:
		return &Sighting{}
	default:
		return nil
	}
}

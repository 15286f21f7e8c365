package stix

import (
	"time"
)

// NewVulnerability builds a minimally valid vulnerability SDO stamped at now.
func NewVulnerability(name, description string, now time.Time) *Vulnerability {
	return &Vulnerability{
		Common:      newCommon(TypeVulnerability, now),
		Name:        name,
		Description: description,
	}
}

// NewIndicator builds a minimally valid indicator SDO stamped at now.
func NewIndicator(pattern string, labels []string, now time.Time) *Indicator {
	c := newCommon(TypeIndicator, now)
	c.Labels = labels
	return &Indicator{
		Common:    c,
		Pattern:   pattern,
		ValidFrom: TS(now),
	}
}

// NewMalware builds a minimally valid malware SDO stamped at now.
func NewMalware(name string, labels []string, now time.Time) *Malware {
	c := newCommon(TypeMalware, now)
	c.Labels = labels
	return &Malware{Common: c, Name: name}
}

// NewAttackPattern builds a minimally valid attack-pattern SDO stamped at now.
func NewAttackPattern(name string, now time.Time) *AttackPattern {
	return &AttackPattern{Common: newCommon(TypeAttackPattern, now), Name: name}
}

// NewIdentity builds a minimally valid identity SDO stamped at now.
func NewIdentity(name, class string, now time.Time) *Identity {
	return &Identity{
		Common:        newCommon(TypeIdentity, now),
		Name:          name,
		IdentityClass: class,
	}
}

// NewTool builds a minimally valid tool SDO stamped at now.
func NewTool(name string, labels []string, now time.Time) *Tool {
	c := newCommon(TypeTool, now)
	c.Labels = labels
	return &Tool{Common: c, Name: name}
}

// NewRelationship links source to target with the given relationship type.
func NewRelationship(relType, sourceRef, targetRef string, now time.Time) *Relationship {
	return &Relationship{
		Common:           newCommon(TypeRelationship, now),
		RelationshipType: relType,
		SourceRef:        sourceRef,
		TargetRef:        targetRef,
	}
}

func newCommon(typ string, now time.Time) Common {
	return Common{
		Type:     typ,
		ID:       NewID(typ),
		Created:  TS(now),
		Modified: TS(now),
	}
}

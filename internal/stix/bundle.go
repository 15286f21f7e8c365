package stix

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Bundle is a STIX 2.0 bundle: a transport container for a set of objects.
type Bundle struct {
	Type        string   `json:"type"`
	ID          string   `json:"id"`
	SpecVersion string   `json:"spec_version"`
	Objects     []Object `json:"-"`
}

// NewBundle creates a bundle wrapping objs, stamped with a fresh id.
func NewBundle(objs ...Object) *Bundle {
	return &Bundle{
		Type:        TypeBundle,
		ID:          NewID(TypeBundle),
		SpecVersion: "2.0",
		Objects:     objs,
	}
}

// Add appends objects to the bundle.
func (b *Bundle) Add(objs ...Object) { b.Objects = append(b.Objects, objs...) }

// ByType returns the bundle's objects of the given STIX type.
func (b *Bundle) ByType(typ string) []Object {
	var out []Object
	for _, o := range b.Objects {
		if o.GetCommon().Type == typ {
			out = append(out, o)
		}
	}
	return out
}

// MarshalJSON encodes the bundle with each object serialized through
// Marshal so custom properties survive.
func (b *Bundle) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(`{"id":`)
	id, err := json.Marshal(b.ID)
	if err != nil {
		return nil, err
	}
	buf.Write(id)
	buf.WriteString(`,"objects":[`)
	for i, o := range b.Objects {
		if i > 0 {
			buf.WriteByte(',')
		}
		ob, err := Marshal(o)
		if err != nil {
			return nil, fmt.Errorf("stix: bundle object %d: %w", i, err)
		}
		buf.Write(ob)
	}
	buf.WriteString(`],"spec_version":`)
	sv, err := json.Marshal(b.SpecVersion)
	if err != nil {
		return nil, err
	}
	buf.Write(sv)
	buf.WriteString(`,"type":"bundle"}`)
	return buf.Bytes(), nil
}

// UnmarshalJSON decodes a bundle, dispatching each object by type.
// Objects of unknown type are skipped (forward compatibility), matching
// STIX's consumer guidance.
func (b *Bundle) UnmarshalJSON(data []byte) error {
	var raw struct {
		Type        string            `json:"type"`
		ID          string            `json:"id"`
		SpecVersion string            `json:"spec_version"`
		Objects     []json.RawMessage `json:"objects"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("stix: decode bundle: %w", err)
	}
	if raw.Type != TypeBundle {
		return fmt.Errorf("stix: not a bundle (type %q)", raw.Type)
	}
	b.Type = raw.Type
	b.ID = raw.ID
	b.SpecVersion = raw.SpecVersion
	b.Objects = b.Objects[:0]
	for i, ro := range raw.Objects {
		obj, err := Unmarshal(ro)
		if err != nil {
			var head struct {
				Type string `json:"type"`
			}
			if json.Unmarshal(ro, &head) == nil && head.Type != "" && New(head.Type) == nil {
				continue // unknown object type: skip, do not fail the bundle
			}
			return fmt.Errorf("stix: bundle object %d: %w", i, err)
		}
		b.Objects = append(b.Objects, obj)
	}
	return nil
}

// ParseBundle decodes a STIX 2.0 bundle from JSON.
func ParseBundle(data []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, err
	}
	return &b, nil
}

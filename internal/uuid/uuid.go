// Package uuid implements RFC 4122 UUIDs (versions 4 and 5) on top of the
// standard library. STIX 2.x object identifiers require UUIDv4 suffixes and
// deterministic identifiers (used for deduplication and idempotent imports)
// are derived with UUIDv5.
package uuid

import (
	"crypto/rand"
	"crypto/sha1"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
)

// UUID is a 128-bit RFC 4122 universally unique identifier.
type UUID [16]byte

// Namespace UUIDs from RFC 4122 Appendix C plus a project-private namespace
// used to derive stable identifiers for normalized OSINT records.
var (
	// NamespaceDNS is the RFC 4122 name space for fully-qualified domain names.
	NamespaceDNS = Must(Parse("6ba7b810-9dad-11d1-80b4-00c04fd430c8"))
	// NamespaceURL is the RFC 4122 name space for URLs.
	NamespaceURL = Must(Parse("6ba7b811-9dad-11d1-80b4-00c04fd430c8"))
	// NamespaceCAISP is the private name space for deterministic CAISP object
	// identifiers (derived from the project name under NamespaceDNS).
	NamespaceCAISP = NewV5(NamespaceDNS, []byte("caisp.invalid"))
)

// Nil is the zero UUID, "00000000-0000-0000-0000-000000000000".
var Nil UUID

var errFormat = errors.New("uuid: invalid format")

// NewV4 returns a random (version 4) UUID. It never fails: the standard
// library guarantees crypto/rand reads succeed or crash the process.
func NewV4() UUID {
	var u UUID
	if _, err := rand.Read(u[:]); err != nil {
		// crypto/rand.Read is documented to always succeed on supported
		// platforms; a failure here means the platform entropy source is
		// broken and nothing sensible can continue.
		panic(fmt.Sprintf("uuid: crypto/rand failed: %v", err))
	}
	u.setVersion(4)
	return u
}

// NewV5 returns a name-based (version 5, SHA-1) UUID for the given namespace
// and name. The same inputs always produce the same UUID.
func NewV5(ns UUID, name []byte) UUID {
	h := sha1.New()
	h.Write(ns[:])
	h.Write(name)
	var u UUID
	copy(u[:], h.Sum(nil))
	u.setVersion(5)
	return u
}

// Parse decodes a UUID from its canonical 36-character textual form,
// accepting upper- or lower-case hexadecimal digits.
func Parse(s string) (UUID, error) {
	var u UUID
	if len(s) != 36 || s[8] != '-' || s[13] != '-' || s[18] != '-' || s[23] != '-' {
		return Nil, errFormat
	}
	hexOnly := s[0:8] + s[9:13] + s[14:18] + s[19:23] + s[24:36]
	raw, err := hex.DecodeString(hexOnly)
	if err != nil {
		return Nil, errFormat
	}
	copy(u[:], raw)
	return u, nil
}

// Must returns u or panics if err is non-nil. It is intended for
// package-level initialization of constant UUIDs.
func Must(u UUID, err error) UUID {
	if err != nil {
		panic(err)
	}
	return u
}

// IsValid reports whether s is a syntactically valid canonical UUID.
func IsValid(s string) bool {
	_, err := Parse(s)
	return err == nil
}

// String renders the UUID in canonical lower-case form.
func (u UUID) String() string {
	var b strings.Builder
	b.Grow(36)
	dst := make([]byte, 32)
	hex.Encode(dst, u[:])
	b.Write(dst[0:8])
	b.WriteByte('-')
	b.Write(dst[8:12])
	b.WriteByte('-')
	b.Write(dst[12:16])
	b.WriteByte('-')
	b.Write(dst[16:20])
	b.WriteByte('-')
	b.Write(dst[20:32])
	return b.String()
}

// Version returns the UUID version number encoded in the identifier.
func (u UUID) Version() int {
	return int(u[6] >> 4)
}

// setVersion stamps the version nibble and the RFC 4122 variant bits.
func (u *UUID) setVersion(v byte) {
	u[6] = (u[6] & 0x0f) | (v << 4)
	u[8] = (u[8] & 0x3f) | 0x80
}

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
	"sync"
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
	NamespaceCAISP = NewV5(NamespaceDNS, "caisp.invalid", "")
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

// NewV5 returns the name-based (version 5, SHA-1) UUID of namespace ns
// and the name prefix followed by parts joined by sep. The same inputs
// always produce the same UUID. A name of up to 112 bytes is joined on
// the stack, a longer one in a pooled Name.
func NewV5(ns UUID, prefix, sep string, parts ...string) UUID {
	size := len(prefix) + len(sep)*max(len(parts)-1, 0)
	for _, p := range parts {
		size += len(p)
	}
	if size > 112 {
		n := NewName(ns, prefix, sep)
		for _, p := range parts {
			n.Add(p)
		}
		return n.Sum()
	}
	var buf [128]byte
	name := append(append(buf[:0], ns[:]...), prefix...)
	for i, p := range parts {
		if i > 0 {
			name = append(name, sep...)
		}
		name = append(name, p...)
	}
	return v5(sha1.Sum(name))
}

// A Name is a version-5 name written part by part: the UUID of
// NewName(ns, prefix, sep) after Add(p) for each of parts is
// NewV5(ns, prefix, sep, parts...). Names and their buffers are pooled:
// once warm, hashing one allocates nothing.
type Name struct {
	sep   string
	parts int // how many parts were added
	buf   []byte
}

var names = sync.Pool{New: func() any { return new(Name) }}

// NewName starts the name in namespace ns that begins with prefix and
// joins its parts with sep.
func NewName(ns UUID, prefix, sep string) *Name {
	n := names.Get().(*Name)
	n.sep, n.parts = sep, 0
	n.buf = append(append(n.buf[:0], ns[:]...), prefix...)
	return n
}

// Add appends the next part to the name.
func (n *Name) Add(part string) {
	if n.parts > 0 {
		n.buf = append(n.buf, n.sep...)
	}
	n.parts++
	n.buf = append(n.buf, part...)
}

// Sum returns the UUID of the name and ends it: n must not be used again.
func (n *Name) Sum() UUID {
	sum := sha1.Sum(n.buf)
	names.Put(n)
	return v5(sum)
}

// v5 is the version-5 UUID of a name's SHA-1 sum.
func v5(sum [sha1.Size]byte) UUID {
	var u UUID
	copy(u[:], sum[:])
	u.setVersion(5)
	return u
}

// hexOffsets are the positions of the 16 byte pairs in the canonical form.
var hexOffsets = [16]uint8{0, 2, 4, 6, 9, 11, 14, 16, 19, 21, 24, 26, 28, 30, 32, 34}

// fromHex maps a hexadecimal digit to its value and any other byte to 0xff.
var fromHex = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = byte(c - '0')
	}
	for c := 'a'; c <= 'f'; c++ {
		t[c] = byte(c-'a') + 10
		t[c-'a'+'A'] = byte(c-'a') + 10
	}
	return t
}()

// Parse decodes a UUID from its canonical 36-character textual form,
// accepting upper- or lower-case hexadecimal digits. It does not allocate:
// every stored attribute is validated on each write.
func Parse(s string) (UUID, error) {
	var u UUID
	if len(s) != 36 || s[8] != '-' || s[13] != '-' || s[18] != '-' || s[23] != '-' {
		return Nil, errFormat
	}
	for i, x := range hexOffsets {
		hi, lo := fromHex[s[x]], fromHex[s[x+1]]
		if hi|lo > 0x0f {
			return Nil, errFormat
		}
		u[i] = hi<<4 | lo
	}
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
	var buf [36]byte
	return string(u.Append(buf[:0]))
}

// Append appends the canonical lower-case form of the UUID to b.
func (u UUID) Append(b []byte) []byte {
	var dst [36]byte
	hex.Encode(dst[0:8], u[0:4])
	dst[8] = '-'
	hex.Encode(dst[9:13], u[4:6])
	dst[13] = '-'
	hex.Encode(dst[14:18], u[6:8])
	dst[18] = '-'
	hex.Encode(dst[19:23], u[8:10])
	dst[23] = '-'
	hex.Encode(dst[24:36], u[10:16])
	return append(b, dst[:]...)
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

package uuid

import (
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewV4Properties(t *testing.T) {
	seen := make(map[UUID]bool)
	for i := 0; i < 1000; i++ {
		u := NewV4()
		if u.Version() != 4 {
			t.Fatalf("version = %d, want 4", u.Version())
		}
		if u[8]&0xc0 != 0x80 {
			t.Fatalf("variant bits = %#x, want RFC 4122", u[8]&0xc0)
		}
		if seen[u] {
			t.Fatalf("duplicate v4 UUID %s after %d draws", u, i)
		}
		seen[u] = true
	}
}

func TestNewV5Deterministic(t *testing.T) {
	a := NewV5(NamespaceDNS, "example.com", "")
	b := NewV5(NamespaceDNS, "example.com", "")
	if a != b {
		t.Fatalf("v5 not deterministic: %s vs %s", a, b)
	}
	if a.Version() != 5 {
		t.Fatalf("version = %d, want 5", a.Version())
	}
	c := NewV5(NamespaceDNS, "example.org", "")
	if a == c {
		t.Fatal("distinct names produced identical v5 UUIDs")
	}
	d := NewV5(NamespaceURL, "example.com", "")
	if a == d {
		t.Fatal("distinct namespaces produced identical v5 UUIDs")
	}
}

func TestNewV5KnownVector(t *testing.T) {
	// RFC 4122 well-known vector: v5(NamespaceDNS, "www.example.com").
	got := NewV5(NamespaceDNS, "www.example.com", "").String()
	const want = "2ed6657d-e927-568b-95e1-2665a8aea6a2"
	if got != want {
		t.Fatalf("v5(dns, www.example.com) = %s, want %s", got, want)
	}
}

// v5Joined is RFC 4122's version 5 over the joined name, as NewV5 hashed
// before it took the name in pieces.
func v5Joined(ns UUID, name string) UUID {
	sum := sha1.Sum(append(ns[:], name...))
	var u UUID
	copy(u[:], sum[:])
	u.setVersion(5)
	return u
}

// TestNewV5PiecesHashTheJoinedName: on both sides of the stack buffer
// and of the stream's 512-byte chunks, and with parts longer than a
// chunk, the pieces hash to the UUID of the name they join to.
func TestNewV5PiecesHashTheJoinedName(t *testing.T) {
	for n := 0; n <= 40; n++ {
		parts := make([]string, n)
		for i := range parts {
			parts[i] = NewV5(NamespaceDNS, fmt.Sprint(i), "").String()
		}
		for _, tc := range []struct{ prefix, sep string }{{"", ""}, {"cioc\x00", ","}, {strings.Repeat("p", 700), "\x00\x00"}} {
			got := NewV5(NamespaceCAISP, tc.prefix, tc.sep, parts...)
			if want := v5Joined(NamespaceCAISP, tc.prefix+strings.Join(parts, tc.sep)); got != want {
				t.Fatalf("%d parts, prefix %.8q, sep %q: %s, joined %s", n, tc.prefix, tc.sep, got, want)
			}
		}
	}
	if got, want := NewV5(NamespaceURL, "", "/", strings.Repeat("x", 1500), "y"), v5Joined(NamespaceURL, strings.Repeat("x", 1500)+"/y"); got != want {
		t.Fatalf("a part longer than a chunk: %s, joined %s", got, want)
	}
}

// TestNewV5ShortNameDoesNotAllocate: every normalized record derives its
// identity through NewV5, from a name that fits the stack buffer.
func TestNewV5ShortNameDoesNotAllocate(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		NewV5(NamespaceCAISP, "", "\x00", "domain", "evil.example", "malware-domain")
	}); n != 0 {
		t.Fatalf("%v allocations per short name", n)
	}
}

func TestParseRoundTrip(t *testing.T) {
	tests := []struct {
		give    string
		wantErr bool
	}{
		{give: "6ba7b810-9dad-11d1-80b4-00c04fd430c8"},
		{give: "6BA7B810-9DAD-11D1-80B4-00C04FD430C8"},
		{give: "00000000-0000-0000-0000-000000000000"},
		{give: "6ba7b810-9dad-11d1-80b4-00c04fd430c", wantErr: true},   // short
		{give: "6ba7b810-9dad-11d1-80b4-00c04fd430c8a", wantErr: true}, // long
		{give: "6ba7b8109dad-11d1-80b4-00c04fd430c8x", wantErr: true},  // dash misplaced
		{give: "6ba7b810-9dad-11d1-80b4-00c04fd430cg", wantErr: true},  // non-hex
		{give: "", wantErr: true},
	}
	for _, tt := range tests {
		u, err := Parse(tt.give)
		if tt.wantErr {
			if err == nil {
				t.Errorf("Parse(%q) succeeded, want error", tt.give)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", tt.give, err)
			continue
		}
		if got := u.String(); got != strings.ToLower(tt.give) {
			t.Errorf("round trip of %q = %q", tt.give, got)
		}
	}
}

func TestStringParseQuick(t *testing.T) {
	f := func(raw [16]byte) bool {
		u := UUID(raw)
		back, err := Parse(u.String())
		return err == nil && back == u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsValidAndNil(t *testing.T) {
	if !IsValid(NewV4().String()) {
		t.Fatal("fresh v4 reported invalid")
	}
	if IsValid("not-a-uuid") {
		t.Fatal("garbage reported valid")
	}
	if Nil != (UUID{}) {
		t.Fatalf("Nil = %s, want all zeros", Nil)
	}
	if NewV4() == Nil {
		t.Fatal("random UUID is nil")
	}
}

// FuzzParse checks the table-driven decoder against hex.DecodeString on
// the four dash-separated groups joined: the same UUID, or an error from
// both.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"6ba7b810-9dad-11d1-80b4-00c04fd430c8",
		"6BA7B810-9DAD-11D1-80B4-00C04FD430C8",
		"6ba7b810-9dad-11d1-80b4-00c04fd430cg",
		"6ba7b810x9dad-11d1-80b4-00c04fd430c8",
		"6ba7b810-9dad-11d1-80b4-00c04fd430c",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := Parse(s)
		var want UUID
		ok := len(s) == 36 && s[8] == '-' && s[13] == '-' && s[18] == '-' && s[23] == '-'
		if ok {
			raw, herr := hex.DecodeString(s[0:8] + s[9:13] + s[14:18] + s[19:23] + s[24:36])
			if ok = herr == nil; ok {
				copy(want[:], raw)
			}
		}
		if (err == nil) != ok {
			t.Fatalf("Parse(%q) error = %v, reference accepts = %v", s, err, ok)
		}
		if got != want {
			t.Fatalf("Parse(%q) = %s, reference %s", s, got, want)
		}
		if IsValid(s) != ok {
			t.Fatalf("IsValid(%q) = %v, reference %v", s, !ok, ok)
		}
	})
}

func TestParseDoesNotAllocate(t *testing.T) {
	const s = "6ba7b810-9dad-11d1-80b4-00c04fd430c8"
	if n := testing.AllocsPerRun(100, func() { _, _ = Parse(s) }); n != 0 {
		t.Fatalf("Parse allocates %v times per call", n)
	}
}

package uuid

import (
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
	a := NewV5(NamespaceDNS, []byte("example.com"))
	b := NewV5(NamespaceDNS, []byte("example.com"))
	if a != b {
		t.Fatalf("v5 not deterministic: %s vs %s", a, b)
	}
	if a.Version() != 5 {
		t.Fatalf("version = %d, want 5", a.Version())
	}
	c := NewV5(NamespaceDNS, []byte("example.org"))
	if a == c {
		t.Fatal("distinct names produced identical v5 UUIDs")
	}
	d := NewV5(NamespaceURL, []byte("example.com"))
	if a == d {
		t.Fatal("distinct namespaces produced identical v5 UUIDs")
	}
}

func TestNewV5KnownVector(t *testing.T) {
	// RFC 4122 well-known vector: v5(NamespaceDNS, "www.example.com").
	got := NewV5(NamespaceDNS, []byte("www.example.com")).String()
	const want = "2ed6657d-e927-568b-95e1-2665a8aea6a2"
	if got != want {
		t.Fatalf("v5(dns, www.example.com) = %s, want %s", got, want)
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

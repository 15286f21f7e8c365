package stixpattern

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
)

// equalityPaths are the object paths misp.ToSTIX builds equality
// patterns on (its attributePatternPaths values).
var equalityPaths = []string{
	"ipv4-addr:value", "domain-name:value", "url:value", "email-addr:value",
	"file:name", "file:hashes.'MD5'", "file:hashes.'SHA-1'",
	"file:hashes.'SHA-256'", "file:hashes.'SHA-512'",
}

// FuzzEqualityPattern: a built equality pattern is what Parse makes of
// its own text, for every path ToSTIX uses and any value — the text
// reparses, renders the same, yields the same AST, and the two agree on
// an observation that holds the value and on one that does not.
func FuzzEqualityPattern(f *testing.F) {
	for _, v := range []string{
		"evil.example", "", "it's", `back\slash`, `\'`, `'\`, "x]", "a' OR b = 'c",
		"new\nline", "\xff\xfe", "t'2019-01-01T00:00:00Z'", "1.5",
	} {
		f.Add(uint8(0), v)
	}
	f.Fuzz(func(t *testing.T, which uint8, value string) {
		path := equalityPaths[int(which)%len(equalityPaths)]
		built := Equality(path, value)
		if got := built.String(); got != built.Source {
			t.Fatalf("built pattern renders %q, Source is %q", got, built.Source)
		}
		parsed, err := Parse(built.Source)
		if err != nil {
			t.Fatalf("Parse(%q): %v", built.Source, err)
		}
		if got := parsed.String(); got != built.Source {
			t.Fatalf("Parse(%q) renders %q", built.Source, got)
		}
		if !reflect.DeepEqual(parsed.Root, built.Root) {
			t.Fatalf("Parse(%q) = %#v, built %#v", built.Source, parsed.Root, built.Root)
		}
		for _, observed := range []string{value, value + "x"} {
			obs := Observation{Fields: map[string][]string{path: {observed}}}
			want, err := parsed.MatchOne(obs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := built.MatchOne(obs)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || got != (observed == value) {
				t.Fatalf("%s on %q: built %v, parsed %v", built.Source, observed, got, want)
			}
		}
	})
}

// refCIDRContains is cidrContains as it was before ISSUBSET compiled its
// literal: both sides parsed on every call.
func refCIDRContains(outer, inner string) (bool, error) {
	_, outerNet, err := parseCIDRish(outer)
	if err != nil {
		return false, err
	}
	innerIP, innerNet, err := parseCIDRish(inner)
	if err != nil {
		return false, err
	}
	if !outerNet.Contains(innerIP) {
		return false, nil
	}
	outerOnes, _ := outerNet.Mask.Size()
	innerOnes, _ := innerNet.Mask.Size()
	return innerOnes >= outerOnes, nil
}

// TestCompiledIsSubsetMatchesPerCallParse holds the parse-time ISSUBSET
// network to the per-evaluation parse on IPv4, IPv6, IPv4-mapped, CIDR
// and malformed literals and values: same verdict, and an error exactly
// where the per-call form fails.
func TestCompiledIsSubsetMatchesPerCallParse(t *testing.T) {
	literals := []string{
		"10.0.0.0/8", "10.1.2.3", "10.1.2.0/24", "0.0.0.0/0", "192.0.2.7/32",
		"2001:db8::/32", "2001:db8::1", "::/0", "::ffff:10.0.0.0/104",
		"::ffff:10.1.2.3", "10.0.0.0/33", "10.0.0.256", "not-an-ip", "", "10.0.0.0/",
	}
	values := []string{
		"10.1.2.3", "10.1.2.0/24", "10.0.0.0/8", "10.0.0.0/4", "11.0.0.1",
		"192.0.2.7", "2001:db8::1", "2001:db8:1::/48", "2001:db9::1",
		"::ffff:10.1.2.3", "::ffff:192.0.2.7", "::1", "300.1.1.1", "x", "", "10.1.2.3/",
	}
	for _, lit := range literals {
		p, err := Parse(fmt.Sprintf("[ipv4-addr:value ISSUBSET %s]", StringLit(lit).String()))
		if err != nil {
			t.Fatalf("literal %q: %v", lit, err)
		}
		cmp := p.Root.(ObsTest).Expr.(Comparison)
		if _, _, err := parseCIDRish(lit); (err == nil) != (cmp.network != nil) {
			t.Fatalf("literal %q: compiled network %v, parse error %v", lit, cmp.network, err)
		}
		for _, v := range values {
			want, wantErr := refCIDRContains(lit, v)
			got, err := p.MatchOne(Observation{Fields: map[string][]string{"ipv4-addr:value": {v}}})
			if (err != nil) != (wantErr != nil) || got != want {
				t.Fatalf("%q ISSUBSET %q: got (%v, %v), want (%v, %v)", v, lit, got, err, want, wantErr)
			}
			if err != nil && !strings.Contains(err.Error(), wantErr.Error()) {
				t.Fatalf("%q ISSUBSET %q: error %q, want %q", v, lit, err, wantErr)
			}
		}
	}
	// The IPv4-mapped form is the same network as the dotted one.
	if _, n, _ := parseCIDRish("::ffff:10.1.2.3"); !n.Contains(net.ParseIP("10.1.2.3")) {
		t.Fatal("IPv4-mapped literal does not contain its dotted address")
	}
}

package stixpattern

import (
	"fmt"
	"net"
	"net/netip"
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

// refParseCIDRish is parseCIDRish as it was before it read addresses
// with net/netip: net.ParseCIDR for a CIDR, net.ParseIP otherwise.
func refParseCIDRish(s string) (net.IP, *net.IPNet, error) {
	if strings.ContainsRune(s, '/') {
		ip, ipnet, err := net.ParseCIDR(s)
		if err != nil {
			return nil, nil, fmt.Errorf("stixpattern: bad CIDR %q: %w", s, err)
		}
		return ip, ipnet, nil
	}
	ip := net.ParseIP(s)
	if ip == nil {
		return nil, nil, fmt.Errorf("stixpattern: bad IP %q", s)
	}
	bits := 32
	if ip.To4() == nil {
		bits = 128
	}
	return ip, &net.IPNet{IP: ip, Mask: net.CIDRMask(bits, bits)}, nil
}

// refCIDRContains is cidrContains as it was before ISSUBSET compiled its
// literal and before net/netip: both sides parsed with package net on
// every call.
func refCIDRContains(outer, inner string) (bool, error) {
	_, outerNet, err := refParseCIDRish(outer)
	if err != nil {
		return false, err
	}
	innerIP, innerNet, err := refParseCIDRish(inner)
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

// cidrOperands are literals and values for ISSUBSET and ISSUPERSET:
// IPv4, IPv6, IPv4-mapped and IPv4-embedded forms, networks of every
// family boundary, and malformed ones (zones, leading zeros, bad bits).
var cidrOperands = []string{
	"10.0.0.0/8", "10.1.2.3", "10.1.2.0/24", "0.0.0.0/0", "192.0.2.7/32",
	"2001:db8::/32", "2001:db8::1", "::/0", "::ffff:10.0.0.0/104",
	"::ffff:10.1.2.3", "10.0.0.0/33", "10.0.0.256", "not-an-ip", "", "10.0.0.0/",
	"10.1.2.0/024", "10.1.2.0/0000024", "10.1.2.0/+24", "10.1.2.0/-1", "10.1.2.0/2a",
	"10.1.2.3/0", "10.0.0.0/4", "11.0.0.1", "2001:db8:1::/48", "2001:db9::1",
	"192.0.2.7", "::ffff:192.0.2.7", "::1", "300.1.1.1", "x", "10.1.2.3/", "010.1.2.3",
	"::ffff:0:0/96", "::ffff:0.0.0.0/95", "::ffff:10.1.2.0/120", "::ffff:10.1.2.3/128",
	"::ffff:10.1.2.3/88", "::10.1.2.3", "::10.1.2.0/120", "fe80::1%eth0",
	"fe80::1%eth0/64", "fe80::/10", "2001:db8::/129", "10.1.2.3/1/2", "/8",
}

// TestCompiledIsSubsetMatchesPerCallParse holds the parse-time ISSUBSET
// network and the ISSUPERSET per-call parse to the net-based reading:
// same verdict, and an error exactly where the reference fails.
func TestCompiledIsSubsetMatchesPerCallParse(t *testing.T) {
	for _, lit := range cidrOperands {
		sub, err := Parse(fmt.Sprintf("[ipv4-addr:value ISSUBSET %s]", StringLit(lit).String()))
		if err != nil {
			t.Fatalf("literal %q: %v", lit, err)
		}
		super, err := Parse(fmt.Sprintf("[ipv4-addr:value ISSUPERSET %s]", StringLit(lit).String()))
		if err != nil {
			t.Fatalf("literal %q: %v", lit, err)
		}
		cmp := sub.Root.(ObsTest).Expr.(Comparison)
		if _, _, err := refParseCIDRish(lit); (err == nil) != (cmp.network != nil) {
			t.Fatalf("literal %q: compiled network %v, parse error %v", lit, cmp.network, err)
		}
		for _, v := range cidrOperands {
			obs := Observation{Fields: map[string][]string{"ipv4-addr:value": {v}}}
			for _, c := range []struct {
				p            *Pattern
				outer, inner string
			}{{sub, lit, v}, {super, v, lit}} {
				want, wantErr := refCIDRContains(c.outer, c.inner)
				got, err := c.p.MatchOne(obs)
				if (err != nil) != (wantErr != nil) || got != want {
					t.Fatalf("%s on %q: got (%v, %v), want (%v, %v)", c.p, v, got, err, want, wantErr)
				}
				if err != nil && err.Error() != wantErr.Error() {
					t.Fatalf("%s on %q: error %q, want %q", c.p, v, err, wantErr)
				}
			}
		}
	}
	// The IPv4-mapped form is the same network as the dotted one.
	if n, _ := parseCIDRish("::ffff:10.1.2.3"); !n.net.Contains(netip.MustParseAddr("10.1.2.3")) {
		t.Fatal("IPv4-mapped literal does not contain its dotted address")
	}
}

// TestIsSubsetAllocatesNothing: a compiled ISSUBSET tests a well-formed
// candidate without allocating.
func TestIsSubsetAllocatesNothing(t *testing.T) {
	p, err := Parse("[ipv4-addr:value ISSUBSET '10.0.0.0/8' OR ipv4-addr:value ISSUBSET '2001:db8::/32']")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"10.1.2.3", "10.1.0.0/16", "2001:db8::1", "::ffff:10.1.2.3", "192.0.2.1"} {
		obs := Observation{Fields: map[string][]string{"ipv4-addr:value": {v}}}
		if n := testing.AllocsPerRun(100, func() { _, _ = p.MatchOne(obs) }); n != 0 {
			t.Errorf("MatchOne on %q: %v allocations", v, n)
		}
	}
}

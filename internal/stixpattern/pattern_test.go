package stixpattern

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func mustParse(t *testing.T, src string) *Pattern {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return p
}

func obs(fields map[string][]string) Observation {
	return Observation{Fields: fields}
}

func TestParseValidPatterns(t *testing.T) {
	tests := []string{
		"[domain-name:value = 'evil.example']",
		"[ipv4-addr:value = '203.0.113.7' OR domain-name:value = 'evil.example']",
		"[file:hashes.'SHA-256' = 'aec070645fe53ee3b3763059376134f058cc337247c978add178b6ccdfb0019f']",
		"[network-traffic:dst_port IN (80, 443, 8080)]",
		"[url:value LIKE 'http://%.example/%']",
		"[file:name MATCHES '^report_[0-9]+\\\\.pdf$']",
		"[ipv4-addr:value ISSUBSET '198.51.100.0/24']",
		"[user-account:display_name NOT = 'root']",
		"[a:b = 'x'] AND [c:d = 'y']",
		"[a:b = 'x'] FOLLOWEDBY [c:d = 'y'] WITHIN 300 SECONDS",
		"([a:b = 'x'] OR [c:d = 'y']) AND [e:f = 'z']",
		"[a:b = 'x'] REPEATS 3 TIMES",
		"[a:b = 'x'] START t'2017-09-13T00:00:00Z' STOP t'2017-09-14T00:00:00Z'",
		"[process:arguments[0] = '-c' AND process:arguments[1] = 'rm']",
		"[(a:b = 'x' OR c:d = 'y') AND e:f = 'z']",
		"[network-traffic:src_byte_count > 1000000]",
		"[indicator:score >= 2.5]",
	}
	for _, src := range tests {
		t.Run(src, func(t *testing.T) {
			mustParse(t, src)
		})
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		give string
		want string
	}{
		{give: "", want: "expected '['"},
		{give: "[a:b = 'x'", want: "expected ]"},
		{give: "[a:b 'x']", want: "expected comparison operator"},
		{give: "[a:b = ]", want: "expected literal"},
		{give: "[a:b = 'x'] AND", want: "expected '['"},
		{give: "[a:b = 'unterminated]", want: "unterminated string"},
		{give: "[a:b = 'x'] trailing", want: "trailing input"},
		{give: "[a:b ! 'x']", want: "unexpected"},
		{give: "[a:b = 'x'] WITHIN -5 SECONDS", want: "positive number"},
		{give: "[a:b = 'x'] REPEATS 0 TIMES", want: "positive integer"},
		{give: "[a:b = 'x'] START t'2017-09-14T00:00:00Z' STOP t'2017-09-13T00:00:00Z'", want: "STOP must be after START"},
		{give: "[a:b IN (1, 2", want: "expected )"},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			_, err := Parse(tt.give)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error containing %q", tt.give, tt.want)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not contain %q", err, tt.want)
			}
		})
	}
}

func TestCanonicalStringReparses(t *testing.T) {
	sources := []string{
		"[domain-name:value = 'evil.example']",
		"[a:b = 'x' AND c:d != 'y' OR e:f > 3]",
		"[a:b IN ('x', 'y', 'z')]",
		"[a:b = 'x'] FOLLOWEDBY [c:d = 'y'] WITHIN 300 SECONDS",
		"[a:b NOT LIKE 'x%']",
	}
	for _, src := range sources {
		p := mustParse(t, src)
		canon := p.String()
		p2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not reparse: %v", canon, src, err)
		}
		if p2.String() != canon {
			t.Fatalf("canonical form not a fixed point: %q -> %q", canon, p2.String())
		}
	}
}

func TestMatchBasicOperators(t *testing.T) {
	observation := obs(map[string][]string{
		"domain-name:value":        {"evil.example"},
		"ipv4-addr:value":          {"198.51.100.20"},
		"network-traffic:dst_port": {"443"},
		"url:value":                {"http://phish.example/login"},
		"file:hashes.'SHA-256'":    {"aec070645fe53ee3b3763059376134f058cc337247c978add178b6ccdfb0019f"},
		"file:size":                {"2048"},
	})
	tests := []struct {
		pattern string
		want    bool
	}{
		{pattern: "[domain-name:value = 'evil.example']", want: true},
		{pattern: "[domain-name:value = 'good.example']", want: false},
		{pattern: "[domain-name:value != 'good.example']", want: true},
		{pattern: "[domain-name:value NOT = 'evil.example']", want: false},
		{pattern: "[network-traffic:dst_port IN (80, 443)]", want: true},
		{pattern: "[network-traffic:dst_port IN (22, 23)]", want: false},
		{pattern: "[file:size > 1024]", want: true},
		{pattern: "[file:size < 1024]", want: false},
		{pattern: "[file:size >= 2048]", want: true},
		{pattern: "[file:size <= 2047]", want: false},
		{pattern: "[url:value LIKE 'http://%.example/%']", want: true},
		{pattern: "[url:value LIKE 'https://%']", want: false},
		{pattern: "[domain-name:value MATCHES '^evil\\\\.']", want: true},
		{pattern: "[ipv4-addr:value ISSUBSET '198.51.100.0/24']", want: true},
		{pattern: "[ipv4-addr:value ISSUBSET '203.0.113.0/24']", want: false},
		{pattern: "[file:hashes.'SHA-256' = 'aec070645fe53ee3b3763059376134f058cc337247c978add178b6ccdfb0019f']", want: true},
		{pattern: "[missing:path = 'x']", want: false},
		// Negation of an absent path is still false per STIX semantics.
		{pattern: "[missing:path NOT = 'x']", want: false},
		{pattern: "[domain-name:value = 'evil.example' AND file:size > 1024]", want: true},
		{pattern: "[domain-name:value = 'nope' AND file:size > 1024]", want: false},
		{pattern: "[domain-name:value = 'nope' OR file:size > 1024]", want: true},
		{pattern: "[(domain-name:value = 'nope' OR file:size > 9999) AND url:value LIKE '%phish%']", want: false},
	}
	for _, tt := range tests {
		t.Run(tt.pattern, func(t *testing.T) {
			p := mustParse(t, tt.pattern)
			got, err := p.MatchOne(observation)
			if err != nil {
				t.Fatalf("Match: %v", err)
			}
			if got != tt.want {
				t.Fatalf("Match = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMatchMultiValuedPath(t *testing.T) {
	observation := obs(map[string][]string{
		"domain-name:resolves_to_refs": {"1.2.3.4", "5.6.7.8"},
		"process:arguments":            {"-c", "rm -rf /"},
	})
	tests := []struct {
		pattern string
		want    bool
	}{
		{pattern: "[domain-name:resolves_to_refs = '5.6.7.8']", want: true},
		{pattern: "[process:arguments[0] = '-c']", want: true},
		{pattern: "[process:arguments[1] = '-c']", want: false},
		{pattern: "[process:arguments[*] LIKE '%rm%']", want: true},
		{pattern: "[process:arguments[9] = '-c']", want: false},
	}
	for _, tt := range tests {
		t.Run(tt.pattern, func(t *testing.T) {
			p := mustParse(t, tt.pattern)
			got, err := p.MatchOne(observation)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Fatalf("Match = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMatchObservationCombinators(t *testing.T) {
	base := time.Date(2019, 6, 24, 12, 0, 0, 0, time.UTC)
	seq := []Observation{
		{At: base, Fields: map[string][]string{"a:b": {"x"}}},
		{At: base.Add(1 * time.Minute), Fields: map[string][]string{"c:d": {"y"}}},
		{At: base.Add(10 * time.Minute), Fields: map[string][]string{"a:b": {"x"}}},
	}
	tests := []struct {
		pattern string
		want    bool
	}{
		{pattern: "[a:b = 'x'] AND [c:d = 'y']", want: true},
		{pattern: "[a:b = 'x'] AND [c:d = 'z']", want: false},
		{pattern: "[a:b = 'x'] OR [c:d = 'z']", want: true},
		{pattern: "[a:b = 'x'] FOLLOWEDBY [c:d = 'y']", want: true},
		{pattern: "[c:d = 'y'] FOLLOWEDBY [a:b = 'x']", want: true}, // third obs is after
		{pattern: "[c:d = 'y'] FOLLOWEDBY [c:d = 'y']", want: false},
		{pattern: "[a:b = 'x'] REPEATS 2 TIMES", want: true},
		{pattern: "[a:b = 'x'] REPEATS 3 TIMES", want: false},
		{pattern: "([a:b = 'x'] OR [a:b = 'x']) REPEATS 3 TIMES", want: false}, // each observation counts once
		{pattern: "([a:b = 'x'] OR [c:d = 'y']) REPEATS 3 TIMES", want: true},
		{pattern: "([a:b = 'x'] AND [c:d = 'y']) WITHIN 120 SECONDS", want: false}, // spread over 10m via union
		{pattern: "([a:b = 'x'] FOLLOWEDBY [c:d = 'y']) WITHIN 3600 SECONDS", want: true},
		{pattern: "[c:d = 'y'] START t'2019-06-24T12:00:30Z' STOP t'2019-06-24T12:02:00Z'", want: true},
		{pattern: "[c:d = 'y'] START t'2019-06-24T13:00:00Z' STOP t'2019-06-24T14:00:00Z'", want: false},
	}
	for _, tt := range tests {
		t.Run(tt.pattern, func(t *testing.T) {
			p := mustParse(t, tt.pattern)
			got, err := p.Match(seq)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Fatalf("Match = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMatchBadRegexpReportsError(t *testing.T) {
	// Since regexps compile at parse time, a bad MATCHES literal is a
	// positioned parse error rather than a per-evaluation failure.
	_, err := Parse("[a:b MATCHES '(']")
	if err == nil {
		t.Fatal("bad regexp did not error at parse time")
	}
	var serr *SyntaxError
	if !errors.As(err, &serr) {
		t.Fatalf("Parse error = %T, want *SyntaxError", err)
	}
	if serr.Pos != 13 {
		t.Fatalf("SyntaxError.Pos = %d, want 13 (the literal)", serr.Pos)
	}

	// Hand-built ASTs skip parse-time compilation; the evaluator still
	// reports the bad regexp as an error.
	p := &Pattern{Root: ObsTest{Expr: Comparison{
		Path: "a:b", Op: OpMatches, Values: []Literal{StringLit("(")},
	}}}
	if _, err := p.MatchOne(obs(map[string][]string{"a:b": {"x"}})); err == nil {
		t.Fatal("bad regexp did not error at eval time")
	}
}

func TestMatchEmptyObservations(t *testing.T) {
	p := mustParse(t, "[a:b = 'x']")
	got, err := p.Match(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("match against no observations succeeded")
	}
}

func TestLikeMatchEdgeCases(t *testing.T) {
	tests := []struct {
		value, pattern string
		want           bool
	}{
		{value: "abc", pattern: "abc", want: true},
		{value: "abc", pattern: "a_c", want: true},
		{value: "abc", pattern: "a__c", want: false},
		{value: "abc", pattern: "%", want: true},
		{value: "", pattern: "%", want: true},
		{value: "a.c", pattern: "a.c", want: true},
		{value: "axc", pattern: "a.c", want: false},   // '.' is literal
		{value: "a%b", pattern: "a\\%b", want: false}, // backslash is literal too
	}
	for _, tt := range tests {
		if got := likeMatch(tt.value, tt.pattern); got != tt.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", tt.value, tt.pattern, got, tt.want)
		}
	}
}

func TestEqualityRoundTripQuick(t *testing.T) {
	// Property: for any simple string value, the pattern built from it
	// matches an observation carrying exactly that value.
	f := func(raw string) bool {
		if strings.ContainsAny(raw, "\x00") {
			return true
		}
		lit := StringLit(raw)
		src := "[x:y = " + lit.String() + "]"
		p, err := Parse(src)
		if err != nil {
			// Values with characters the lexer treats as escapes must still
			// parse; report failure.
			return false
		}
		ok, err := p.MatchOne(obs(map[string][]string{"x:y": {raw}}))
		return err == nil && ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCIDRContains(t *testing.T) {
	tests := []struct {
		outer, inner string
		want         bool
	}{
		{outer: "10.0.0.0/8", inner: "10.1.2.3", want: true},
		{outer: "10.0.0.0/8", inner: "11.1.2.3", want: false},
		{outer: "10.0.0.0/8", inner: "10.0.0.0/16", want: true},
		{outer: "10.0.0.0/16", inner: "10.0.0.0/8", want: false},
		{outer: "10.1.2.3", inner: "10.1.2.3", want: true},
		{outer: "2001:db8::/32", inner: "2001:db8::1", want: true},
	}
	for _, tt := range tests {
		got, err := cidrContains(tt.outer, tt.inner)
		if err != nil {
			t.Fatalf("cidrContains(%q, %q): %v", tt.outer, tt.inner, err)
		}
		if got != tt.want {
			t.Errorf("cidrContains(%q, %q) = %v, want %v", tt.outer, tt.inner, got, tt.want)
		}
	}
	if _, err := cidrContains("not-an-ip", "10.0.0.1"); err == nil {
		t.Error("cidrContains with bad outer did not error")
	}
}

package stixpattern

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// TestParseNeverPanics feeds the parser random garbage: it must return an
// error or an AST, never panic, and every accepted AST must render to a
// canonical form that reparses.
func TestParseNeverPanics(t *testing.T) {
	f := func(input string) bool {
		p, err := Parse(input)
		if err != nil {
			return true
		}
		canon := p.String()
		p2, err := Parse(canon)
		return err == nil && p2.String() == canon
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseMatch is a native fuzz target over the full parse→match path.
// Its seed corpus runs under plain `go test` and includes LIKE/MATCHES
// entries that exercise the parse-time-compiled regexp path.
func FuzzParseMatch(f *testing.F) {
	seeds := []string{
		"[domain-name:value = 'evil.example']",
		"[ipv4-addr:value ISSUBSET '198.51.100.0/24']",
		// Compiled-regexp path: LIKE with %/_ runs and quoted metachars,
		// MATCHES with anchors and alternation.
		"[file:name LIKE '%mal_ware.v_']",
		"[url:value LIKE 'http%://x.y/%.bin']",
		"[file:name MATCHES '^mal(ware)?\\\\.exe$']",
		"[domain-name:value MATCHES '(evil|bad)\\\\.example' AND x:score > 2.5]",
		"[a:b MATCHES '('", // unbalanced regexp AND bracket: must just error
	}
	for _, s := range seeds {
		f.Add(s)
	}
	obs := Observation{At: time.Unix(0, 0), Fields: map[string][]string{
		"a:b": {"x"}, "domain-name:value": {"evil.example"},
		"file:name": {"malware.exe"}, "url:value": {"http://x.y/a.bin"},
		"ipv4-addr:value": {"198.51.100.7"},
	}}
	f.Fuzz(func(t *testing.T, input string) {
		p, err := Parse(input)
		if err != nil {
			return
		}
		want, wantErr := p.Match([]Observation{obs})
		if got, err := p.MatchOne(obs); got != want || (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: MatchOne = (%v, %v), Match on one observation = (%v, %v)", input, got, err, want, wantErr)
		}
		canon := p.String()
		if _, err := Parse(canon); err != nil {
			t.Fatalf("canonical form of %q does not reparse: %q: %v", input, canon, err)
		}
	})
}

// TestParseStructuredFuzz builds random-ish pattern strings from valid
// fragments, which reach much deeper into the grammar than raw random
// bytes.
func TestParseStructuredFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	paths := []string{"a:b", "domain-name:value", "file:hashes.'SHA-256'", "process:arguments[0]"}
	ops := []string{"=", "!=", "<", ">", "<=", ">=", "LIKE", "MATCHES", "ISSUBSET", "IN"}
	literals := []string{"'x'", "'evil.example'", "5", "2.5", "('a', 'b')", "t'2019-06-24T00:00:00Z'"}
	joins := []string{" AND ", " OR ", " FOLLOWEDBY "}
	quals := []string{"", " WITHIN 30 SECONDS", " REPEATS 2 TIMES", " REPEATS 1 TIMES",
		" START t'1970-01-01T00:00:00Z' STOP t'1970-01-02T00:00:00Z'",
		" START t'1970-01-02T00:00:00Z' STOP t'1970-01-03T00:00:00Z'"}

	obs := Observation{At: time.Unix(0, 0), Fields: map[string][]string{
		"a:b": {"x"}, "domain-name:value": {"evil.example"},
	}}
	for i := 0; i < 500; i++ {
		var sb []byte
		terms := 1 + r.Intn(3)
		for j := 0; j < terms; j++ {
			if j > 0 {
				sb = append(sb, joins[r.Intn(len(joins))]...)
			}
			op := ops[r.Intn(len(ops))]
			lit := literals[r.Intn(len(literals))]
			if op == "IN" && lit[0] != '(' {
				lit = "(" + lit + ")"
			}
			sb = append(sb, '[')
			sb = append(sb, paths[r.Intn(len(paths))]...)
			sb = append(sb, ' ')
			sb = append(sb, op...)
			sb = append(sb, ' ')
			sb = append(sb, lit...)
			sb = append(sb, ']')
		}
		sb = append(sb, quals[r.Intn(len(quals))]...)
		src := string(sb)
		p, err := Parse(src)
		if err != nil {
			continue // some combinations are legitimately invalid (e.g. IN (t'…'))
		}
		// Matching must not panic either; MATCHES with non-regexp literals
		// may error, which is fine.
		want, wantErr := p.Match([]Observation{obs})
		if got, err := p.MatchOne(obs); got != want || (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: MatchOne = (%v, %v), Match on one observation = (%v, %v)", src, got, err, want, wantErr)
		}
		canon := p.String()
		if _, err := Parse(canon); err != nil {
			t.Fatalf("canonical form of %q does not reparse: %q: %v", src, canon, err)
		}
	}
}

package subscribe

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/stixpattern"
	"github.com/caisplatform/caisp/internal/wsock"
)

// withMaxPatternBytes and withMaxPerClient lower the registration caps
// below the defaults the daemons run with.
func withMaxPatternBytes(n int) Option { return func(e *Engine) { e.maxBytes = n } }
func withMaxPerClient(n int) Option    { return func(e *Engine) { e.maxPer = n } }

func obsOf(fields map[string][]string) stixpattern.Observation {
	return stixpattern.Observation{At: time.Unix(1700000000, 0), Fields: fields}
}

func mustRegister(t *testing.T, e *Engine, client, pattern string) *Subscription {
	t.Helper()
	sub, err := e.Register(client, pattern)
	if err != nil {
		t.Fatalf("Register(%q): %v", pattern, err)
	}
	return sub
}

func matchIDs(ms []Match) []string {
	ids := make([]string, len(ms))
	for i, m := range ms {
		ids[i] = m.SubscriptionID
	}
	sort.Strings(ids)
	return ids
}

func TestRegisterEvaluateMatrix(t *testing.T) {
	e := NewEngine()
	defer e.Close()

	eqDomain := mustRegister(t, e, "siem", "[domain-name:value = 'evil.example']")
	inIP := mustRegister(t, e, "siem", "[ipv4-addr:value IN ('10.0.0.1', '10.0.0.2')]")
	cidr := mustRegister(t, e, "soc", "[ipv4-addr:value ISSUBSET '198.51.100.0/24']")
	like := mustRegister(t, e, "soc", "[url:value LIKE '%/payload/%']")
	neg := mustRegister(t, e, "soc", "[domain-name:value NOT = 'ok.example']")
	score := mustRegister(t, e, "soc", "[x-caisp:threat-score >= 0.5]")
	numEq := mustRegister(t, e, "soc", "[x:port = 443]")

	tests := []struct {
		name   string
		fields map[string][]string
		want   []string
	}{
		{"domain eq + negated", map[string][]string{"domain-name:value": {"evil.example"}},
			[]string{eqDomain.ID, neg.ID}},
		{"negated only", map[string][]string{"domain-name:value": {"other.example"}},
			[]string{neg.ID}},
		{"negated misses its excluded value", map[string][]string{"domain-name:value": {"ok.example"}},
			nil},
		{"in hit", map[string][]string{"ipv4-addr:value": {"10.0.0.2"}},
			[]string{inIP.ID}},
		{"cidr hit", map[string][]string{"ipv4-addr:value": {"198.51.100.77"}},
			[]string{cidr.ID}},
		{"cidr miss", map[string][]string{"ipv4-addr:value": {"203.0.113.9"}}, nil},
		{"like hit", map[string][]string{"url:value": {"http://x/payload/a.bin"}},
			[]string{like.ID}},
		{"ordered score hit", map[string][]string{"x-caisp:threat-score": {"0.75"}},
			[]string{score.ID}},
		{"ordered score boundary miss", map[string][]string{"x-caisp:threat-score": {"0.49"}}, nil},
		{"numeric eq canonical form", map[string][]string{"x:port": {"0443.0"}},
			[]string{numEq.ID}},
		{"no fields", map[string][]string{}, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := matchIDs(e.Evaluate(obsOf(tt.fields)))
			want := append([]string(nil), tt.want...)
			sort.Strings(want)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("Evaluate = %v, want %v", got, want)
			}
		})
	}
}

func TestUnsubscribeRemovesFromIndex(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	sub := mustRegister(t, e, "c", "[domain-name:value = 'evil.example']")
	keep := mustRegister(t, e, "c", "[domain-name:value = 'evil.example']")
	o := obsOf(map[string][]string{"domain-name:value": {"evil.example"}})
	if got := len(e.Evaluate(o)); got != 2 {
		t.Fatalf("before unsubscribe: %d matches, want 2", got)
	}
	if err := e.Unsubscribe(sub.ID); err != nil {
		t.Fatal(err)
	}
	if got := matchIDs(e.Evaluate(o)); len(got) != 1 || got[0] != keep.ID {
		t.Fatalf("after unsubscribe: matches %v, want only %s", got, keep.ID)
	}
	if err := e.Unsubscribe(sub.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double unsubscribe: %v, want ErrNotFound", err)
	}
	if e.Len() != 1 {
		t.Fatalf("Len = %d, want 1", e.Len())
	}
}

func TestRegisterValidation(t *testing.T) {
	e := NewEngine(withMaxPatternBytes(64), withMaxPerClient(2))
	defer e.Close()

	// Syntax error carries the parser position.
	_, err := e.Register("c", "[domain-name:value = ]")
	var serr *stixpattern.SyntaxError
	if !errors.As(err, &serr) {
		t.Fatalf("syntax error = %T (%v), want *SyntaxError", err, err)
	}

	// Oversized patterns are rejected before parsing.
	long := "[domain-name:value = '" + string(make([]byte, 64)) + "']"
	_, err = e.Register("c", long)
	var tooLarge *PatternTooLargeError
	if !errors.As(err, &tooLarge) {
		t.Fatalf("oversize error = %T (%v), want *PatternTooLargeError", err, err)
	}

	// The per-client cap yields ClientLimitError; other clients unaffected.
	mustRegister(t, e, "c", "[a:b = 'x']")
	mustRegister(t, e, "c", "[a:b = 'y']")
	_, err = e.Register("c", "[a:b = 'z']")
	var limit *ClientLimitError
	if !errors.As(err, &limit) {
		t.Fatalf("limit error = %T (%v), want *ClientLimitError", err, err)
	}
	mustRegister(t, e, "other", "[a:b = 'z']")
}

// linearMatches is the reference evaluator the index must agree with:
// stixpattern's MatchOne run over every registered pattern, returning the
// sources of those that match, sorted. An evaluation error disqualifies
// only its pattern, as in Engine.Evaluate.
func linearMatches(t *testing.T, patterns []string, o stixpattern.Observation) []string {
	t.Helper()
	var out []string
	for _, src := range patterns {
		p, err := stixpattern.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if ok, err := p.MatchOne(o); err == nil && ok {
			out = append(out, src)
		}
	}
	sort.Strings(out)
	return out
}

// TestIndexedAgreesWithLinear is the soundness property: for random pattern
// populations and observations, the indexed engine returns exactly the
// matches a linear scan of every registered pattern finds.
func TestIndexedAgreesWithLinear(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	indexed := NewEngine()
	defer indexed.Close()

	domains := []string{"a.example", "b.example", "c.example", "d.example"}
	patterns := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		switch r.Intn(6) {
		case 0:
			patterns = append(patterns, fmt.Sprintf("[domain-name:value = '%s']", domains[r.Intn(len(domains))]))
		case 1:
			patterns = append(patterns, fmt.Sprintf("[ipv4-addr:value IN ('10.0.0.%d', '10.0.0.%d')]", r.Intn(8), r.Intn(8)))
		case 2:
			patterns = append(patterns, fmt.Sprintf("[ipv4-addr:value ISSUBSET '10.0.0.%d/30']", r.Intn(8)&^3))
		case 3:
			patterns = append(patterns, fmt.Sprintf("[domain-name:value LIKE '%%.%s']", []string{"example", "test"}[r.Intn(2)]))
		case 4:
			patterns = append(patterns, fmt.Sprintf("[x:score > %d]", r.Intn(4)))
		case 5:
			patterns = append(patterns, fmt.Sprintf("[domain-name:value NOT = '%s' AND x:score <= %d]",
				domains[r.Intn(len(domains))], r.Intn(4)))
		}
	}
	for _, src := range patterns {
		mustRegister(t, indexed, "c", src)
	}

	patternOf := func(ms []Match) []string {
		out := make([]string, len(ms))
		for i, m := range ms {
			out[i] = m.Pattern
		}
		sort.Strings(out)
		return out
	}
	for i := 0; i < 200; i++ {
		fields := map[string][]string{}
		if r.Intn(2) == 0 {
			fields["domain-name:value"] = []string{domains[r.Intn(len(domains))]}
		}
		if r.Intn(2) == 0 {
			fields["ipv4-addr:value"] = []string{fmt.Sprintf("10.0.0.%d", r.Intn(8))}
		}
		if r.Intn(2) == 0 {
			fields["x:score"] = []string{fmt.Sprintf("%d", r.Intn(5))}
		}
		o := obsOf(fields)
		got, want := patternOf(indexed.Evaluate(o)), linearMatches(t, patterns, o)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("obs %v:\nindexed: %v\nlinear:  %v", fields, got, want)
		}
	}
}

func ciocEvent(t *testing.T) *misp.Event {
	t.Helper()
	now := time.Unix(1700000000, 0).UTC()
	me := &misp.Event{UUID: "11111111-2222-4333-8444-555555555555", Info: "cIoC: malware-infection", Timestamp: misp.UT(now)}
	me.AddTag("caisp:cioc")
	me.AddTag(`caisp:category="malware-infection"`)
	a := me.AddAttribute("domain", "Network activity", "evil.example", now)
	a.ToIDS = true
	return me
}

func TestEvaluateMISPPushesPreparedFrames(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	sub := mustRegister(t, e, "siem", "[domain-name:value = 'evil.example']")
	mustRegister(t, e, "siem", "[x-caisp:category = 'malware-infection']")

	sc, cc := net.Pipe()
	defer cc.Close()
	e.AddWatcher(wsock.NewConn(sc, false))

	frames := make(chan []byte, 4)
	go func() {
		for {
			op, payload, err := wsock.ReadFrameInto(cc, make([]byte, 4096))
			if err != nil {
				close(frames)
				return
			}
			if op == wsock.OpText {
				frames <- append([]byte(nil), payload...)
			}
		}
	}()

	if n := e.EvaluateMISP(ciocEvent(t), StageCIoC, -1); n != 2 {
		t.Fatalf("EvaluateMISP = %d matches, want 2", n)
	}
	select {
	case payload := <-frames:
		var frame EventFrame
		if err := json.Unmarshal(payload, &frame); err != nil {
			t.Fatalf("bad frame %q: %v", payload, err)
		}
		if frame.Kind != "match" || frame.Stage != StageCIoC {
			t.Fatalf("frame kind/stage = %q/%q", frame.Kind, frame.Stage)
		}
		if len(frame.Matches) != 2 {
			t.Fatalf("frame has %d matches, want 2", len(frame.Matches))
		}
		found := false
		for _, m := range frame.Matches {
			if m.SubscriptionID == sub.ID && m.ClientID == "siem" {
				found = true
			}
		}
		if !found {
			t.Fatalf("frame matches %+v missing subscription %s", frame.Matches, sub.ID)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no match frame delivered")
	}

	// Per-subscription match counters surface in snapshots.
	got, ok := e.Get(sub.ID)
	if !ok || got.Matches != 1 {
		t.Fatalf("Get(%s) = %+v, want Matches=1", sub.ID, got)
	}
}

func TestEvaluateMISPThreatScore(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	mustRegister(t, e, "siem", "[x-caisp:threat-score >= 0.5]")

	me := ciocEvent(t)
	if n := e.EvaluateMISP(me, StageCIoC, -1); n != 0 {
		t.Fatalf("unscored event matched score pattern (%d)", n)
	}
	if n := e.EvaluateMISP(me, StageEIoC, 0.75); n != 1 {
		t.Fatalf("scored event matches = %d, want 1", n)
	}
	// Stored eIoCs carry the score as a comment attribute; log-driven
	// evaluation recovers it without the caller passing a score.
	me.AddAttribute("comment", "Other", "threat-score:0.7500", time.Unix(1700000100, 0))
	me.AddTag("caisp:eioc")
	if n := e.EvaluateMISP(me, StageEIoC, -1); n != 1 {
		t.Fatalf("recovered-score matches = %d, want 1", n)
	}
}

// TestCIoCStageHidesThreatScore: caispd commits a cluster once, scored,
// and runs both stages on that revision. The cIoC stage sees the composed
// cluster, which has no score, whether the event carries one or the
// caller passes one; the eIoC stage still recovers it (the tipd path).
func TestCIoCStageHidesThreatScore(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	mustRegister(t, e, "siem", "[x-caisp:threat-score >= 0.5]")
	mustRegister(t, e, "siem", "[x-caisp:category = 'malware-infection']")

	me := ciocEvent(t)
	me.AddAttribute("comment", "Other", "threat-score:0.7500", time.Unix(1700000100, 0))
	me.AddTag("caisp:eioc")
	if n := e.EvaluateMISP(me, StageCIoC, -1); n != 1 {
		t.Fatalf("cIoC stage on a scored revision: %d matches, want the category pattern only", n)
	}
	if n := e.EvaluateMISP(me, StageCIoC, 0.75); n != 1 {
		t.Fatalf("cIoC stage with a passed score: %d matches, want the category pattern only", n)
	}
	if n := e.EvaluateMISP(me, StageEIoC, -1); n != 2 {
		t.Fatalf("eIoC stage recovering the score: %d matches, want 2", n)
	}
}

func TestEngineMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewEngine(WithMetrics(reg))
	defer e.Close()
	mustRegister(t, e, "c", "[domain-name:value = 'evil.example']")
	if _, err := e.Register("c", "[[["); err == nil {
		t.Fatal("garbage pattern registered")
	}
	e.Evaluate(obsOf(map[string][]string{"domain-name:value": {"evil.example"}}))

	var buf []string
	for _, name := range reg.Names() {
		buf = append(buf, name)
	}
	for _, want := range []string{
		"caisp_subs_registered", "caisp_subs_eval_seconds",
		"caisp_subs_matches_total", "caisp_subs_candidates_per_event",
		"caisp_subs_rejected_total",
	} {
		found := false
		for _, name := range buf {
			if name == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("metric %s not registered (have %v)", want, buf)
		}
	}
	snap := e.EvalSnapshot()
	if snap.Eval == nil || snap.Eval.Count != 1 {
		t.Fatalf("eval histogram snapshot = %+v, want 1 observation", snap.Eval)
	}
	if snap.Matches != 1 || snap.Registered != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Stats and the families read the same counts.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	for _, line := range []string{
		fmt.Sprintf("caisp_subs_matches_total %d", st.Matches),
		fmt.Sprintf("caisp_subs_registered %d", st.Registered),
	} {
		if !strings.Contains(sb.String(), "\n"+line+"\n") {
			t.Errorf("exposition lacks %q:\n%s", line, sb.String())
		}
	}
}

// TestChurnUnderIngest exercises concurrent register/unsubscribe against
// live evaluation — run under -race via `make race`. Each goroutine runs
// a fixed number of iterations, so the test does the same work on any
// machine.
func TestChurnUnderIngest(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	for i := 0; i < 32; i++ {
		mustRegister(t, e, "seed", fmt.Sprintf("[domain-name:value = 'd%d.example']", i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				e.Evaluate(obsOf(map[string][]string{
					"domain-name:value": {fmt.Sprintf("d%d.example", i%40)},
				}))
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := fmt.Sprintf("churn-%d", w)
			for i := 0; i < 500; i++ {
				sub, err := e.Register(client, fmt.Sprintf("[domain-name:value = 'd%d.example']", i%40))
				if err != nil {
					t.Error(err)
					return
				}
				if err := e.Unsubscribe(sub.ID); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if e.Len() != 32 {
		t.Fatalf("after churn: %d subscriptions, want the 32 seeds", e.Len())
	}
	if st := e.Stats(); st.Registered != 32 || st.Clients != 1 {
		t.Fatalf("Stats = %+v, want 32 seed subscriptions for 1 client", st)
	}
}

// FuzzCanonicalNumber holds canonicalNumber's syntax screen to what it
// screens for: the answer of the plain form, a strconv.ParseFloat and
// FormatFloat behind the same length and first-byte checks, on any input.
func FuzzCanonicalNumber(f *testing.F) {
	for _, seed := range []string{"443", "0443.0", "-0", "+.5", "1.", ".", "1e5", "1E+5", "1e-5", "1e", "1e400",
		"1_000", "0x1p-2", "+0x1.8p1", "+inf", "-Infinity", "+NaN", "10.0.0.1", "1.2", "2019-06-24",
		"d41d8cd98f00b204e9800998ecf8427e", "3e2", "1+2", "--1", "0.75", "", "evil.example"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		want, wantOK := "", false
		if len(v) > 0 && len(v) <= 64 {
			if c := v[0]; c == '-' || c == '+' || c == '.' || c >= '0' && c <= '9' {
				if n, err := strconv.ParseFloat(v, 64); err == nil {
					want, wantOK = strconv.FormatFloat(n, 'f', -1, 64), true
				}
			}
		}
		if got, ok := canonicalNumber(v); got != want || ok != wantOK {
			t.Fatalf("canonicalNumber(%q) = %q, %v; ParseFloat form %q, %v", v, got, ok, want, wantOK)
		}
	})
}

package core

// An end-to-end exactness guard: thirty RunBatch rounds of one generated
// feed stream on a serial platform under a fake clock, with standing
// patterns of every operator kind, must produce byte-for-byte the outputs
// pinned below. Anything drawn from a random source (v4 UUIDs: attribute
// UUIDs, SDO, rIoC and subscription IDs) and the push wall-clock stamp are
// blanked first; everything else — stored revisions, scores, rIoC and
// match frames, the STIX objects shared over TAXII — is hashed as emitted.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/feedgen"
	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/subscribe"
	"github.com/caisplatform/caisp/internal/wsock"
)

// goldenDigest is the digest of TestGoldenPipelineDigest's outputs,
// recorded before per-member facts (shared correlation keys, compiled
// indicator patterns, deterministic SDO IDs) were computed once instead
// of on every revision: that work must not change a byte.
const goldenDigest = "2fbeaec5826eafb112cbe596d3597ffdb0df05eabaeccd688f91573878bb5128"

// goldenDigestNoTAXII is the same run with TAXII sharing off (the hash
// then has no STIX section), recorded before a grown cluster reused its
// unchanged members' scores and rIoCs.
const goldenDigestNoTAXII = "662bc660bc57c7e23d7ffe3796adac1593c2acb218b1e23396ac2027a9b6232d"

const (
	goldenRounds = 30
	goldenItems  = 12
	goldenSeed   = 7
)

// goldenPatterns are standing subscriptions covering each comparison
// operator, negation, IN, the index-dispatched equality path and a
// score gate.
var goldenPatterns = []string{
	"[url:value = 'http://c0.quote0.example/p']",
	"[ipv4-addr:value != '192.0.2.1']",
	"[x-caisp:threat-score > 2.5]",
	"[x-caisp:threat-score >= 2.7]",
	"[x-caisp:threat-score < 2.9]",
	"[x-caisp:threat-score <= 3]",
	"[url:value IN ('http://x.example/', 'http://c10.quote10.example/p')]",
	"[url:value LIKE 'http%://%/%']",
	"[url:value LIKE '%\\'%']",
	"[domain-name:value MATCHES '^[a-f].*\\\\.example$']",
	"[ipv4-addr:value ISSUBSET '198.51.100.0/24']",
	"[ipv4-addr:value ISSUBSET '203.0.113.128/25']",
	"[ipv4-addr:value ISSUPERSET '198.51.100.7']",
	"[domain-name:value NOT LIKE '%.example']",
	"[x-caisp:category = 'phishing' AND x-caisp:threat-score > 1]",
	"[file:hashes.'SHA-256' LIKE 'a%']",
}

// queueFetcher serves pushed documents once each, in order.
type queueFetcher struct {
	mu    sync.Mutex
	queue [][]byte
}

func (f *queueFetcher) push(doc []byte) {
	f.mu.Lock()
	f.queue = append(f.queue, doc)
	f.mu.Unlock()
}

func (f *queueFetcher) Fetch(context.Context) ([]byte, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.queue) == 0 {
		return nil, true, nil
	}
	doc := f.queue[0]
	f.queue = f.queue[1:]
	return doc, false, nil
}

// frameSink collects every message one WebSocket stream delivers.
type frameSink struct {
	mu     sync.Mutex
	frames [][]byte
	grew   chan struct{} // signalled after each append
}

func dialFrames(t *testing.T, url string) *frameSink {
	t.Helper()
	conn, err := wsock.Dial(url)
	if err != nil {
		t.Fatal(err)
	}
	s := &frameSink{grew: make(chan struct{}, 1)}
	go func() {
		for {
			_, payload, err := conn.ReadMessage()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.frames = append(s.frames, payload)
			s.mu.Unlock()
			select {
			case s.grew <- struct{}{}:
			default:
			}
		}
	}()
	t.Cleanup(func() { conn.Close() })
	return s
}

func (s *frameSink) snapshot() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]byte(nil), s.frames...)
}

// await blocks until done holds for the frames received so far, or
// fails the test after ten seconds.
func (s *frameSink) await(t *testing.T, what string, done func(frames [][]byte) bool) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for !done(s.snapshot()) {
		select {
		case <-s.grew:
		case <-timeout:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// v4Re finds version-4 UUIDs: the only identifiers the pipeline draws
// from a random source (deterministic ones are version 5).
var v4Re = regexp.MustCompile(`[0-9a-f]{8}-[0-9a-f]{4}-4[0-9a-f]{3}-[89ab][0-9a-f]{3}-[0-9a-f]{12}`)

// canonical re-encodes a JSON document with random identifiers blanked,
// subscription IDs replaced by their registration index, push stamps
// zeroed and each match list sorted (the engine emits it in map order).
func canonical(t *testing.T, raw []byte, subIndex map[string]string) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	var walk func(any) any
	walk = func(v any) any {
		switch x := v.(type) {
		case map[string]any:
			for k, val := range x {
				switch k {
				case "pushed_unix_nano":
					x[k] = 0
				case "subscription_id":
					x[k] = subIndex[val.(string)]
				default:
					x[k] = walk(val)
				}
			}
			if m, ok := x["matches"].([]any); ok {
				sort.Slice(m, func(i, j int) bool {
					return fmt.Sprint(m[i]) < fmt.Sprint(m[j])
				})
			}
			return x
		case []any:
			for i := range x {
				x[i] = walk(x[i])
			}
			return x
		case string:
			return v4Re.ReplaceAllString(x, "v4")
		default:
			return v
		}
	}
	out, err := json.Marshal(walk(v))
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestGoldenPipelineDigest(t *testing.T) {
	for _, tc := range []struct {
		name   string
		share  bool
		digest string
	}{
		{"taxii", true, goldenDigest},
		{"no-taxii", false, goldenDigestNoTAXII},
	} {
		t.Run(tc.name, func(t *testing.T) { testGoldenPipeline(t, tc.share, tc.digest) })
	}
}

// goldenFeeds returns the golden stream's feeds and a function that
// queues round r's documents on them.
func goldenFeeds(t *testing.T) ([]feed.Feed, func(r int)) {
	t.Helper()
	defs, err := feedgen.New(feedgen.Config{Seed: 1, Items: 1}).Feeds(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	fetchers := map[string]*queueFetcher{}
	for i := range defs {
		f := &queueFetcher{}
		fetchers[defs[i].Name] = f
		defs[i].Fetcher = f
	}
	// A hand-written campaign feed: URLs carrying a quote exercise the
	// pattern-literal escaper, which no generated value reaches, and the
	// campaign column links clusters that grew apart, so they merge.
	campaigns := &queueFetcher{}
	defs = append(defs, feed.Feed{
		Name:     "campaigns",
		Category: normalize.CategoryPhishing,
		Fetcher:  campaigns,
		Parser:   feed.CSVParser{HasHeader: true},
		Interval: time.Hour,
	})
	push := func(r int) {
		docs, err := feedgen.New(feedgen.Config{
			Seed: goldenSeed*1_000_003 + int64(r), Items: goldenItems,
			DuplicationRate: 0.2, OverlapRate: 0.5, DefangRate: 0.3,
		}).Documents()
		if err != nil {
			t.Fatal(err)
		}
		for name, f := range fetchers {
			f.push(docs[name])
		}
		switch r % 10 {
		case 0:
			campaigns.push([]byte(fmt.Sprintf("value,campaign\n"+
				"http://a%[1]d.quote%[1]d.example/it's,c%[1]d\n"+
				"http://b%[1]d.other%[1]d.example/o'brien\\x,d%[1]d\n", r)))
		case 5:
			campaigns.push([]byte(fmt.Sprintf("value,campaign\n"+
				"http://c%[1]d.quote%[1]d.example/p,d%[1]d\n", r-5)))
		}
	}
	return defs, push
}

func testGoldenPipeline(t *testing.T, shareTAXII bool, digest string) {
	defs, push := goldenFeeds(t)
	p := newPlatform(t, Config{
		Feeds:           defs,
		AnalyzerPool:    1,
		FeedConcurrency: 1,
		ShareTAXII:      shareTAXII,
		DisableMetrics:  true,
	})
	subIndex := map[string]string{}
	for i, pat := range goldenPatterns {
		sub, err := p.Subscriptions().Register(fmt.Sprintf("golden-%d", i%3), pat)
		if err != nil {
			t.Fatalf("register %q: %v", pat, err)
		}
		subIndex[sub.ID] = fmt.Sprintf("sub-%d", i)
	}
	srv := httptest.NewServer(p.Dashboard())
	defer srv.Close()
	ws := "ws" + strings.TrimPrefix(srv.URL, "http")
	riocs := dialFrames(t, ws+"/ws")
	matches := dialFrames(t, ws+"/ws/matches")
	greeted := func(frames [][]byte) bool { return len(frames) == 1 }
	riocs.await(t, "the dashboard snapshot", greeted)
	matches.await(t, "the matches greeting", greeted)

	h := sha256.New()
	var cursor uint64
	revisions := 0
	var matched int64 // subscription matches in the match frames read so far
	read := 1         // match frames read, the greeting included
	for r := 0; r < goldenRounds; r++ {
		push(r)
		if err := p.RunBatch(context.Background()); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		st := p.Stats()
		riocs.await(t, "rIoC frames", func(frames [][]byte) bool { return len(frames) == 1+st.RIoCs })
		want := p.Subscriptions().Stats().Matches
		matches.await(t, "match frames", func(frames [][]byte) bool {
			for ; read < len(frames); read++ {
				var frame subscribe.EventFrame
				if err := json.Unmarshal(frames[read], &frame); err != nil {
					t.Fatal(err)
				}
				matched += int64(len(frame.Matches))
			}
			return matched == want
		})
		events, next, _, err := p.TIP().ChangesPage(cursor, 0)
		if err != nil {
			t.Fatal(err)
		}
		cursor = next
		for _, me := range events {
			raw, err := json.Marshal(me)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "rev %d %s\n", r, canonical(t, raw, nil))
			revisions++
		}
	}
	for i, f := range riocs.snapshot()[1:] {
		fmt.Fprintf(h, "rioc %d %s\n", i, canonical(t, f, nil))
	}
	for i, f := range matches.snapshot()[1:] {
		fmt.Fprintf(h, "match %d %s\n", i, canonical(t, f, subIndex))
	}
	var env struct {
		Objects []json.RawMessage `json:"objects"`
	}
	if shareTAXII {
		rec := httptest.NewRecorder()
		p.TAXII().ServeHTTP(rec, httptest.NewRequest("GET", "/caisp/collections/"+TAXIICollection+"/objects/?limit=1000000", nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("TAXII objects: %v: %s", err, rec.Body.Bytes())
		}
		for i, obj := range env.Objects {
			fmt.Fprintf(h, "stix %d %s\n", i, canonical(t, obj, nil))
		}
	}

	st := p.Stats()
	fmt.Fprintf(h, "stats %+v\n", st)
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d revisions, %d rIoC frames, %d match frames, %d STIX objects; stats %+v",
		revisions, len(riocs.snapshot())-1, len(matches.snapshot())-1, len(env.Objects), st)
	fired := map[string]int64{}
	for id, name := range subIndex {
		sub, _ := p.Subscriptions().Get(id)
		fired[name] = sub.Matches
	}
	t.Logf("matches per pattern: %v", fired)
	if st.ClusterEdits == 0 || st.ClusterMerges == 0 || st.RIoCs == 0 {
		t.Fatalf("the stream grows no clusters: %+v", st)
	}
	converted, reused := p.analyzer.Blocks()
	t.Logf("blocks: %d converted, %d reused", converted, reused)
	if reused == 0 {
		t.Fatalf("no block was reused from a record (%d converted): the digest does not pin the reuse path", converted)
	}
	if got != digest {
		t.Fatalf("pipeline output digest = %s, want %s", got, digest)
	}
}

package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/feedgen"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
)

// sizes fixes every amount of work that is not a duration. The driver's
// --seconds sets how long each measured phase runs; everything else is
// here so that two runs of one seed do identical work.
type sizes struct {
	FeedItems  int // records per generated feed document (the MISP feed carries Items/10+1 events)
	WarmRounds int // ingest rounds run during set-up, before the measured phase
	MaxRounds  int // cap on measured ingest rounds, so a much faster platform cannot exhaust memory
	HeapRound  int // ingest.*: live heap is sampled after this measured round (or at the end, if not reached)
	Patterns   int // standing STIX-pattern subscriptions

	StreamWarm  time.Duration // stream.paced warm-up, part of set-up
	StreamItems int           // stream.paced: records per document
	DocEvery    time.Duration // stream.paced: one document per feed this often
	Poll        time.Duration // stream.paced: feed poll, platform flush and mesh pull interval

	SharePreload int           // share.mixed: scored events loaded before the measured phase
	ShareBatch   int           // share.mixed: events per AddEvents call
	ShareEvery   time.Duration // share.mixed: one write batch this often

	CatchupEvents     int // mesh.catchup: live events on the source
	CatchupTombstones int // mesh.catchup: events the source has expired and the sink still holds

	SetupRepeats int // set-ups per run; setup_s is their median
}

func fullSizes() sizes {
	return sizes{
		FeedItems: 50, WarmRounds: 5, MaxRounds: 400, HeapRound: 40, Patterns: 1000,
		// Half the document size at twice the document rate of the ROADMAP
		// scenario: the same 620 records/s, and twice as many poll and
		// flush phases sampled per run, which steadies the medians.
		StreamWarm: time.Second, StreamItems: 25, DocEvery: 250 * time.Millisecond, Poll: 100 * time.Millisecond,
		SharePreload: 10000, ShareBatch: 20, ShareEvery: 100 * time.Millisecond,
		CatchupEvents: 20000, CatchupTombstones: 2000,
		SetupRepeats: 3,
	}
}

// smokeSizes is the -smoke configuration the unit tests run: every
// workload and the whole correctness gate in a few seconds.
func smokeSizes() sizes {
	return sizes{
		FeedItems: 20, WarmRounds: 1, MaxRounds: 2, HeapRound: 1, Patterns: 100,
		StreamWarm: 200 * time.Millisecond, StreamItems: 20, DocEvery: 250 * time.Millisecond, Poll: 50 * time.Millisecond,
		SharePreload: 200, ShareBatch: 5, ShareEvery: 100 * time.Millisecond,
		CatchupEvents: 200, CatchupTombstones: 20,
		SetupRepeats: 1,
	}
}

// feedConfig is the generator configuration of one round of one seed.
// Rounds of one seed share nothing but the generator's value space, so
// cross-round duplicates and correlations arise the way they do between
// successive polls of a live feed.
func feedConfig(seed int64, round, items int) feedgen.Config {
	return feedgen.Config{
		Seed:            seed*1_000_003 + int64(round),
		Items:           items,
		DuplicationRate: 0.2,
		OverlapRate:     0.15,
		DefangRate:      0.3,
	}
}

// feedDefs returns the six feed definitions (name, category, parser) in
// name order; the caller installs its own fetchers.
func feedDefs(interval time.Duration) ([]feed.Feed, error) {
	return feedgen.New(feedgen.Config{Seed: 1, Items: 1}).Feeds(interval)
}

// documents renders the six feed documents of one round.
func documents(seed int64, round, items int) (map[string][]byte, error) {
	return feedgen.New(feedConfig(seed, round, items)).Documents()
}

// record is one feed record as the benchmark itself reads it from a
// generated document: the canonical indicator value and the identity
// the platform's deduplication keys on.
type record struct {
	ID    string
	Type  normalize.IoCType
	Value string
}

// parseDocument reads a generated document the way the collector does
// (feed parser, then normalization) and reports records and malformed
// lines. It is the benchmark's reference for what a document offers.
func parseDocument(def feed.Feed, doc []byte) (records []record, malformed int, err error) {
	raw, err := def.Parser.Parse(doc)
	if err != nil {
		return nil, 0, err
	}
	for _, r := range raw {
		category := def.Category
		if r.Category != "" {
			category = r.Category
		}
		ev, err := normalize.New(r.Value, category, def.Name, normalize.SourceOSINT, time.Time{})
		if err != nil {
			malformed++
			continue
		}
		records = append(records, record{ID: ev.ID, Type: ev.Type, Value: ev.Value})
	}
	return records, malformed, nil
}

// hotDomains samples domain values from the first rounds' documents, so
// that a share of the equality patterns fires on real input.
func hotDomains(seed int64, rounds, items, want int) ([]string, error) {
	defs, err := feedDefs(time.Hour)
	if err != nil {
		return nil, err
	}
	var pool []string
	seen := map[string]bool{}
	for r := 0; r < rounds; r++ {
		docs, err := documents(seed, r, items)
		if err != nil {
			return nil, err
		}
		for _, def := range defs {
			recs, _, err := parseDocument(def, docs[def.Name])
			if err != nil {
				return nil, err
			}
			for _, rec := range recs {
				if rec.Type == normalize.TypeDomain && !seen[rec.Value] {
					seen[rec.Value] = true
					pool = append(pool, rec.Value)
				}
			}
		}
	}
	return sample(seed, pool, want), nil
}

// sample picks want values from pool (all of it when smaller), the same
// ones for the same seed, in sorted order.
func sample(seed int64, pool []string, want int) []string {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > want {
		pool = pool[:want]
	}
	sort.Strings(pool)
	return pool
}

var testNets = []string{"192.0.2", "198.51.100", "203.0.113"}

// patternList builds the standing subscriptions: cmd/subload's
// 88/8/2/1/1 mix of equality, IN, score-threshold, LIKE and CIDR
// patterns, aimed at the feed generator's value space. Most equality
// patterns never fire, as in a real detection estate; hot (sampled from
// upcoming documents) makes every fourth one fire. Score thresholds sit
// on the midpoints between the four-decimal scores the analyzer writes,
// so the stored score and the in-flight score always compare alike.
func patternList(seed int64, n int, hot []string) []string {
	rng := rand.New(rand.NewSource(seed ^ 0x9a77e4))
	out := make([]string, 0, n)
	nextHot := 0
	for i := 0; i < n; i++ {
		switch m := i % 100; {
		case m < 88:
			if i%4 == 0 && nextHot < len(hot) {
				out = append(out, fmt.Sprintf("[domain-name:value = '%s']", hot[nextHot]))
				nextHot++
			} else {
				out = append(out, fmt.Sprintf("[domain-name:value = 'cold-%d.bench.invalid']", i))
			}
		case m < 96:
			a := fmt.Sprintf("%s.%d", testNets[rng.Intn(3)], 1+rng.Intn(254))
			b := fmt.Sprintf("%s.%d", testNets[rng.Intn(3)], 1+rng.Intn(254))
			out = append(out, fmt.Sprintf("[ipv4-addr:value IN ('%s', '%s')]", a, b))
		case m < 98:
			out = append(out, fmt.Sprintf("[x-caisp:threat-score >= %.5f]", 2.60005+0.015*float64(rng.Intn(20))))
		case m < 99:
			out = append(out, fmt.Sprintf("[url:value LIKE '%%/%s']", feedWords[rng.Intn(len(feedWords))]))
		default:
			out = append(out, fmt.Sprintf("[ipv4-addr:value ISSUBSET '%s.%d/28']", testNets[rng.Intn(3)], 16*rng.Intn(16)))
		}
	}
	return out
}

// feedWords is the feed generator's path vocabulary (its URL records end
// in one of these), which the LIKE patterns select on.
var feedWords = []string{
	"amber", "basilisk", "cobalt", "drifter", "ember", "falcon", "gryphon",
	"harbor", "icicle", "jackal", "kraken", "lumen", "mirage", "nomad",
	"onyx", "pylon", "quartz", "raven", "sable", "tundra", "umbra",
	"vortex", "wisp", "xenon", "yonder", "zephyr",
}

// synthBase stamps synthetic events; a fixed instant keeps preload sets
// byte-identical for one seed.
var synthBase = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// synthEvents builds n scored eIoC-shaped MISP events for the sharing
// workloads. Everything, UUIDs included, derives from the seed and
// salt. Each event carries a domain of its own, an address from a small
// shared space (so a value search returns several events), a hash, and
// the analyzer's score write-back.
func synthEvents(seed int64, salt string, n int) []*misp.Event {
	h := fnv.New64a()
	_, _ = h.Write([]byte(salt))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	out := make([]*misp.Event, n)
	for i := range out {
		at := synthBase.Add(time.Duration(i) * time.Second)
		e := &misp.Event{
			UUID:          rngUUID(rng),
			Info:          fmt.Sprintf("%s indicator %d", salt, i),
			Date:          at.Format("2006-01-02"),
			ThreatLevelID: misp.ThreatLevelUndefined,
			Distribution:  misp.DistributionCommunity,
			Timestamp:     misp.UT(at),
		}
		attr := func(typ, category, value string) {
			e.Attributes = append(e.Attributes, misp.Attribute{
				UUID: rngUUID(rng), Type: typ, Category: category, Value: value,
				ToIDS: true, Timestamp: misp.UT(at),
			})
		}
		attr("domain", "Network activity", fmt.Sprintf("%s-%d.%s.example", feedWords[rng.Intn(len(feedWords))], i, salt))
		attr("ip-dst", "Network activity", sharedAddr(rng.Intn(sharedAddrs)))
		attr("sha256", "Payload delivery", rngHex(rng, 64))
		attr("comment", "Other", heuristic.FormatScore(heuristic.ScorePrefix, 1+2*rng.Float64()))
		e.Attributes[len(e.Attributes)-1].ToIDS = false
		e.Tags = []misp.Tag{{Name: `caisp:category="malware-domain"`}, {Name: "caisp:cioc"}, {Name: "caisp:eioc"}}
		out[i] = e
	}
	return out
}

// sharedAddrs is the size of the address space synthEvents draws from:
// a value search over n preloaded events returns about n/sharedAddrs.
const sharedAddrs = 2000

func sharedAddr(i int) string {
	return "10." + strconv.Itoa(i>>8&0xff) + "." + strconv.Itoa(i&0xff) + ".7"
}

func rngUUID(rng *rand.Rand) string {
	var b [16]byte
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	b[6] = (b[6] & 0x0f) | 0x40
	b[8] = (b[8] & 0x3f) | 0x80
	return fmt.Sprintf("%x-%x-%x-%x-%x", b[0:4], b[4:6], b[6:8], b[8:10], b[10:16])
}

func rngHex(rng *rand.Rand, n int) string {
	const digits = "0123456789abcdef"
	b := make([]byte, n)
	for i := range b {
		b[i] = digits[rng.Intn(16)]
	}
	return string(b)
}

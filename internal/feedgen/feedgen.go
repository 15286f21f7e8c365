// Package feedgen generates deterministic synthetic OSINT feeds. The paper
// collects live feeds ("malware domains, vulnerability exploitation …
// provided by several sources"); an offline reproduction cannot, so this
// package synthesizes feeds with the properties that matter to the
// pipeline: heterogeneous formats (plaintext, CSV, MISP JSON, advisory
// JSON), defanged values, intra-feed duplication and cross-feed overlap at
// configurable rates. Determinism (a seed fully fixes the output) makes
// dedup/correlation results exactly reproducible.
package feedgen

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
)

// Feed kind names produced by the generator.
const (
	FeedMalwareDomains = "malware-domains"
	FeedBotnetIPs      = "botnet-ips"
	FeedPhishingURLs   = "phishing-urls"
	FeedMalwareHashes  = "malware-hashes"
	FeedAdvisories     = "vuln-advisories"
	FeedMISP           = "osint-misp"
)

// AllFeeds lists every feed kind in a stable order.
var AllFeeds = []string{
	FeedMalwareDomains, FeedBotnetIPs, FeedPhishingURLs,
	FeedMalwareHashes, FeedAdvisories, FeedMISP,
}

// Config parameterizes the generator.
type Config struct {
	// Seed fixes the pseudo-random stream; equal configs generate equal
	// feeds.
	Seed int64
	// Items is the number of records per feed (default 100).
	Items int
	// DuplicationRate is the fraction of records within a feed that repeat
	// an earlier record of the same feed (0–0.9).
	DuplicationRate float64
	// OverlapRate is the fraction of records drawn from a pool shared by
	// all feeds, creating cross-feed duplicates and correlation fodder
	// (0–0.9).
	OverlapRate float64
	// DefangRate is the fraction of domain/URL values emitted defanged.
	DefangRate float64
	// Now stamps generated MISP events and advisories.
	Now time.Time
	// Feeds selects the generated kinds; nil means AllFeeds.
	Feeds []string
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Items <= 0 {
		out.Items = 100
	}
	clamp := func(v *float64) {
		if *v < 0 {
			*v = 0
		}
		if *v > 0.9 {
			*v = 0.9
		}
	}
	clamp(&out.DuplicationRate)
	clamp(&out.OverlapRate)
	clamp(&out.DefangRate)
	if out.Now.IsZero() {
		out.Now = time.Date(2019, 6, 24, 12, 0, 0, 0, time.UTC)
	}
	if len(out.Feeds) == 0 {
		out.Feeds = AllFeeds
	}
	return out
}

// Generator produces synthetic feed documents.
type Generator struct {
	cfg Config
	rng *rand.Rand

	sharedDomains []string
	sharedIPs     []string
}

// New constructs a Generator.
func New(cfg Config) *Generator {
	c := cfg.withDefaults()
	g := &Generator{cfg: c, rng: rand.New(rand.NewSource(c.Seed))}
	poolSize := c.Items/2 + 1
	for i := 0; i < poolSize; i++ {
		g.sharedDomains = append(g.sharedDomains, g.domain())
		g.sharedIPs = append(g.sharedIPs, g.ipv4())
	}
	return g
}

// Documents renders every configured feed to its document bytes, keyed by
// feed name. The result is deterministic for a given Config.
func (g *Generator) Documents() (map[string][]byte, error) {
	out := make(map[string][]byte, len(g.cfg.Feeds))
	for _, name := range g.cfg.Feeds {
		doc, err := g.document(name)
		if err != nil {
			return nil, err
		}
		out[name] = doc
	}
	return out, nil
}

// Feeds builds feed definitions (with static fetchers over the generated
// documents) ready for a scheduler.
func (g *Generator) Feeds(interval time.Duration) ([]feed.Feed, error) {
	docs, err := g.Documents()
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(docs))
	for name := range docs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]feed.Feed, 0, len(names))
	for _, name := range names {
		out = append(out, feed.Feed{
			Name:     name,
			Category: FeedCategory(name),
			Fetcher:  &feed.StaticFetcher{Data: docs[name]},
			Parser:   feedParser(name),
			Interval: interval,
		})
	}
	return out, nil
}

// WriteDir writes each feed document to dir/<name>.<ext>.
func (g *Generator) WriteDir(dir string) error {
	docs, err := g.Documents()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("feedgen: create dir: %w", err)
	}
	for name, doc := range docs {
		path := filepath.Join(dir, name+feedExt(name))
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			return fmt.Errorf("feedgen: write %s: %w", path, err)
		}
	}
	return nil
}

// Handler serves the generated documents over HTTP at /feeds/<name>.
func (g *Generator) Handler() (http.Handler, error) {
	docs, err := g.Documents()
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	for name, doc := range docs {
		doc := doc
		mux.HandleFunc("/feeds/"+name, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("ETag", fmt.Sprintf(`"seed-%d"`, g.cfg.Seed))
			if r.Header.Get("If-None-Match") == fmt.Sprintf(`"seed-%d"`, g.cfg.Seed) {
				w.WriteHeader(http.StatusNotModified)
				return
			}
			_, _ = w.Write(doc)
		})
	}
	return mux, nil
}

func (g *Generator) document(name string) ([]byte, error) {
	switch name {
	case FeedMalwareDomains:
		return g.domainFeed(), nil
	case FeedBotnetIPs:
		return g.ipFeed(), nil
	case FeedPhishingURLs:
		return g.urlFeed(), nil
	case FeedMalwareHashes:
		return g.hashFeed(), nil
	case FeedAdvisories:
		return g.advisoryFeed()
	case FeedMISP:
		return g.mispFeed()
	default:
		return nil, fmt.Errorf("feedgen: unknown feed kind %q", name)
	}
}

// pick applies the duplication/overlap policy: with OverlapRate the value
// comes from the shared pool, with DuplicationRate a previously emitted
// value repeats, otherwise fresh() supplies a new one.
func (g *Generator) pick(emitted []string, shared []string, fresh func() string) string {
	if len(shared) > 0 && g.rng.Float64() < g.cfg.OverlapRate {
		return shared[g.rng.Intn(len(shared))]
	}
	if len(emitted) > 0 && g.rng.Float64() < g.cfg.DuplicationRate {
		return emitted[g.rng.Intn(len(emitted))]
	}
	return fresh()
}

func (g *Generator) domainFeed() []byte {
	var sb strings.Builder
	sb.WriteString("# synthetic malware domain list\n")
	var emitted []string
	for i := 0; i < g.cfg.Items; i++ {
		d := g.pick(emitted, g.sharedDomains, g.domain)
		emitted = append(emitted, d)
		sb.WriteString(g.maybeDefangDomain(d))
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

func (g *Generator) ipFeed() []byte {
	var sb strings.Builder
	sb.WriteString("ip,port,category,last_seen\n")
	var emitted []string
	for i := 0; i < g.cfg.Items; i++ {
		ip := g.pick(emitted, g.sharedIPs, g.ipv4)
		emitted = append(emitted, ip)
		port := []string{"22", "23", "80", "443", "8080"}[g.rng.Intn(5)]
		cat := []string{"c2", "scanner", "bruteforce"}[g.rng.Intn(3)]
		fmt.Fprintf(&sb, "%s,%s,%s,%s\n", ip, port, cat, g.cfg.Now.Format("2006-01-02"))
	}
	return []byte(sb.String())
}

func (g *Generator) urlFeed() []byte {
	var sb strings.Builder
	sb.WriteString("# synthetic phishing URL list\n")
	var emitted []string
	for i := 0; i < g.cfg.Items; i++ {
		u := g.pick(emitted, nil, func() string {
			// Half the URLs sit on shared malware domains: cross-feed
			// correlation fodder.
			host := g.domain()
			if g.rng.Float64() < 0.5 {
				host = g.sharedDomains[g.rng.Intn(len(g.sharedDomains))]
			}
			return fmt.Sprintf("http://%s/%s", host, g.word())
		})
		emitted = append(emitted, u)
		sb.WriteString(g.maybeDefangURL(u))
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

func (g *Generator) hashFeed() []byte {
	var sb strings.Builder
	sb.WriteString("sha256,malware,first_seen\n")
	var emitted []string
	for i := 0; i < g.cfg.Items; i++ {
		h := g.pick(emitted, nil, g.sha256)
		emitted = append(emitted, h)
		family := []string{"emotet", "trickbot", "wannacry", "dridex"}[g.rng.Intn(4)]
		fmt.Fprintf(&sb, "%s,%s,%s\n", h, family, g.cfg.Now.Format("2006-01-02"))
	}
	return []byte(sb.String())
}

func (g *Generator) advisoryFeed() ([]byte, error) {
	advisories := []feed.Advisory{{
		// The paper's §IV use case leads the feed so the end-to-end example
		// always exercises it.
		CVE:         "CVE-2017-9805",
		Description: "Apache Struts REST plugin XStream RCE via crafted POST body",
		CVSS3:       "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H",
		Products:    []string{"apache struts", "apache"},
		OS:          "debian",
		Published:   "2017-09-13",
		References:  []string{"https://capec.mitre.example/248", "https://cve.mitre.example/CVE-2017-9805"},
	}}
	oses := []string{"windows", "linux", "debian", "centos", "unknown"}
	products := []string{"apache", "nginx", "owncloud", "gitlab", "php", "openssh", "postgresql", "wordpress"}
	for i := 1; i < g.cfg.Items; i++ {
		year := 2015 + g.rng.Intn(5)
		adv := feed.Advisory{
			CVE:         fmt.Sprintf("CVE-%d-%04d", year, 1000+g.rng.Intn(9000)),
			Description: fmt.Sprintf("synthetic %s vulnerability in %s", g.word(), products[g.rng.Intn(len(products))]),
			Products:    []string{products[g.rng.Intn(len(products))]},
			OS:          oses[g.rng.Intn(len(oses))],
			Published:   g.cfg.Now.AddDate(0, 0, -g.rng.Intn(400)).Format("2006-01-02"),
		}
		if g.rng.Float64() < 0.8 {
			adv.CVSS3 = g.cvssVector()
		}
		if g.rng.Float64() < 0.6 {
			adv.References = []string{"https://nvd.example/" + adv.CVE}
		}
		advisories = append(advisories, adv)
	}
	return json.MarshalIndent(advisories, "", "  ")
}

func (g *Generator) mispFeed() ([]byte, error) {
	var wrapped []misp.Wrapped
	events := g.cfg.Items/10 + 1
	for i := 0; i < events; i++ {
		e := misp.NewEvent(fmt.Sprintf("OSINT synthetic campaign %s", g.word()), g.cfg.Now)
		// Deterministic UUIDs: derive from the seed and index so repeated
		// generation is stable.
		e.UUID = deterministicUUID(g.cfg.Seed, i)
		for j := 0; j < 10 && len(e.Attributes) < 10; j++ {
			switch g.rng.Intn(3) {
			case 0:
				d := g.sharedDomains[g.rng.Intn(len(g.sharedDomains))]
				e.AddAttribute("domain", "Network activity", d, g.cfg.Now)
			case 1:
				ip := g.sharedIPs[g.rng.Intn(len(g.sharedIPs))]
				e.AddAttribute("ip-dst", "Network activity", ip, g.cfg.Now)
			case 2:
				e.AddAttribute("sha256", "Payload delivery", g.sha256(), g.cfg.Now)
			}
		}
		// Attribute UUIDs are also derived from the seed so the document is
		// byte-stable across runs.
		for j := range e.Attributes {
			e.Attributes[j].UUID = deterministicUUID(g.cfg.Seed, (i+1)*1000+j)
		}
		wrapped = append(wrapped, misp.Wrapped{Event: e})
	}
	return json.MarshalIndent(wrapped, "", "  ")
}

var words = []string{
	"amber", "basilisk", "cobalt", "drifter", "ember", "falcon", "gryphon",
	"harbor", "icicle", "jackal", "kraken", "lumen", "mirage", "nomad",
	"onyx", "pylon", "quartz", "raven", "sable", "tundra", "umbra",
	"vortex", "wisp", "xenon", "yonder", "zephyr",
}

var tlds = []string{"example", "test", "invalid"}

func (g *Generator) word() string { return words[g.rng.Intn(len(words))] }

func (g *Generator) domain() string {
	return fmt.Sprintf("%s-%s%d.%s", g.word(), g.word(), g.rng.Intn(1000), tlds[g.rng.Intn(len(tlds))])
}

func (g *Generator) ipv4() string {
	// TEST-NET ranges keep synthetic data clearly synthetic.
	bases := []string{"192.0.2", "198.51.100", "203.0.113"}
	return fmt.Sprintf("%s.%d", bases[g.rng.Intn(len(bases))], 1+g.rng.Intn(254))
}

const hexDigits = "0123456789abcdef"

func (g *Generator) sha256() string {
	b := make([]byte, 64)
	for i := range b {
		b[i] = hexDigits[g.rng.Intn(16)]
	}
	return string(b)
}

func (g *Generator) cvssVector() string {
	pick := func(opts ...string) string { return opts[g.rng.Intn(len(opts))] }
	return fmt.Sprintf("CVSS:3.1/AV:%s/AC:%s/PR:%s/UI:%s/S:%s/C:%s/I:%s/A:%s",
		pick("N", "A", "L"), pick("L", "H"), pick("N", "L", "H"),
		pick("N", "R"), pick("U", "C"), pick("H", "L", "N"),
		pick("H", "L", "N"), pick("H", "L", "N"))
}

func (g *Generator) maybeDefangDomain(d string) string {
	if g.rng.Float64() >= g.cfg.DefangRate {
		return d
	}
	if i := strings.LastIndexByte(d, '.'); i > 0 {
		return d[:i] + "[.]" + d[i+1:]
	}
	return d
}

func (g *Generator) maybeDefangURL(u string) string {
	if g.rng.Float64() >= g.cfg.DefangRate {
		return u
	}
	return strings.Replace(u, "http://", "hxxp://", 1)
}

// FeedCategory is the threat category of the feed with the given name
// (a Feed* constant); any other name is normalize.CategoryUnknown.
func FeedCategory(name string) string {
	switch name {
	case FeedMalwareDomains, FeedMISP:
		return normalize.CategoryMalwareDomain
	case FeedBotnetIPs:
		return normalize.CategoryBotnetC2
	case FeedPhishingURLs:
		return normalize.CategoryPhishing
	case FeedMalwareHashes:
		return normalize.CategoryMalwareHash
	case FeedAdvisories:
		return normalize.CategoryVulnExploit
	default:
		return normalize.CategoryUnknown
	}
}

func feedParser(name string) feed.Parser {
	switch name {
	case FeedBotnetIPs:
		return feed.CSVParser{ValueColumn: 0, HasHeader: true}
	case FeedMalwareHashes:
		return feed.CSVParser{ValueColumn: 0, HasHeader: true}
	case FeedAdvisories:
		return feed.AdvisoryParser{}
	case FeedMISP:
		return feed.MISPFeedParser{}
	default:
		return feed.PlaintextParser{}
	}
}

func feedExt(name string) string {
	switch name {
	case FeedBotnetIPs, FeedMalwareHashes:
		return ".csv"
	case FeedAdvisories, FeedMISP:
		return ".json"
	default:
		return ".txt"
	}
}

func deterministicUUID(seed int64, i int) string {
	r := rand.New(rand.NewSource(seed ^ int64(i)*2654435761))
	var b [16]byte
	for j := range b {
		b[j] = byte(r.Intn(256))
	}
	b[6] = (b[6] & 0x0f) | 0x40
	b[8] = (b[8] & 0x3f) | 0x80
	return fmt.Sprintf("%x-%x-%x-%x-%x", b[0:4], b[4:6], b[6:8], b[8:10], b[10:16])
}

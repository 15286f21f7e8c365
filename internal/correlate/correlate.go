package correlate

import (
	"net"
	"net/url"
	"sort"
	"strings"
	"time"

	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/uuid"
)

// ComposedIoC (cIoC) is the result of composing a correlated sub-set of
// security events of one threat category into a single indicator of
// compromise.
type ComposedIoC struct {
	// ID identifies the cluster. The batch Correlator derives it from the
	// member event IDs; the streaming Incremental correlator instead uses a
	// stable cluster UUID (derived from the seed member) that survives
	// membership growth — see ContentHash for the membership-sensitive hash.
	ID string `json:"id"`
	// ContentHash is deterministic over the member event IDs: it changes
	// whenever membership changes, so downstream consumers can detect
	// whether an edit under the same ID actually altered the cluster.
	ContentHash string `json:"content_hash,omitempty"`
	// Category is the shared threat category of the members.
	Category string `json:"category"`
	// Events are the member events, sorted by ID for determinism.
	Events []normalize.Event `json:"events"`
	// CorrelationKeys are the shared keys that connected the members.
	CorrelationKeys []string `json:"correlation_keys,omitempty"`
	// FirstSeen / LastSeen bound the members' observation windows.
	FirstSeen time.Time `json:"first_seen"`
	LastSeen  time.Time `json:"last_seen"`
}

// Values returns the member indicator values of the given type.
func (c *ComposedIoC) Values(typ normalize.IoCType) []string {
	var out []string
	for _, e := range c.Events {
		if e.Type == typ {
			out = append(out, e.Value)
		}
	}
	return out
}

// Sources returns the union of member sources, sorted.
func (c *ComposedIoC) Sources() []string {
	set := make(map[string]bool)
	for _, e := range c.Events {
		for _, s := range e.Sources() {
			set[s] = true
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Correlator aggregates events by category and clusters events that share a
// correlation key. The zero value is not usable; construct with New.
type Correlator struct {
	minClusterSize int
	timeWindow     time.Duration
	// registry is only meaningful for the streaming Incremental correlator
	// (WithMetrics); the batch path ignores it.
	registry *obs.Registry
}

// Option configures a Correlator.
type Option interface{ apply(*Correlator) }

type minClusterOption int

func (o minClusterOption) apply(c *Correlator) { c.minClusterSize = int(o) }

// WithMinClusterSize discards clusters smaller than n events (n ≥ 1).
// The default of 1 keeps singletons: an uncorrelated event still becomes a
// (single-member) cIoC, as every OSINT datum must reach the heuristic stage.
func WithMinClusterSize(n int) Option { return minClusterOption(n) }

type timeWindowOption time.Duration

func (o timeWindowOption) apply(c *Correlator) { c.timeWindow = time.Duration(o) }

// WithTimeWindow only connects events whose observation times lie within d
// of each other (chained: a key seen repeatedly keeps its cluster alive as
// long as consecutive sightings stay within d). Zero, the default, imposes
// no temporal constraint.
func WithTimeWindow(d time.Duration) Option { return timeWindowOption(d) }

type metricsOption struct{ reg *obs.Registry }

func (o metricsOption) apply(c *Correlator) { c.registry = o.reg }

// WithMetrics registers the streaming correlator's caisp_correlate_*
// families into reg (Add latency histogram plus cluster-churn views).
// The batch Correlator ignores this option; a nil registry disables
// instrumentation.
func WithMetrics(reg *obs.Registry) Option { return metricsOption{reg: reg} }

// New constructs a Correlator.
func New(opts ...Option) *Correlator {
	c := &Correlator{minClusterSize: 1}
	for _, o := range opts {
		o.apply(c)
	}
	if c.minClusterSize < 1 {
		c.minClusterSize = 1
	}
	return c
}

// Correlate aggregates events by threat category, connects events within a
// category that share a correlation key, and composes each connected
// cluster into a cIoC. Output is sorted by (category, ID) for determinism.
func (c *Correlator) Correlate(events []normalize.Event) []ComposedIoC {
	byCategory := make(map[string][]normalize.Event)
	for _, e := range events {
		byCategory[e.Category] = append(byCategory[e.Category], e)
	}

	var out []ComposedIoC
	for category, group := range byCategory {
		out = append(out, c.correlateGroup(category, group)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Category != out[j].Category {
			return out[i].Category < out[j].Category
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func (c *Correlator) correlateGroup(category string, group []normalize.Event) []ComposedIoC {
	uf := newUnionFind()
	byID := make(map[string]normalize.Event, len(group))
	keyOwners := make(map[string][]string) // correlation key -> event IDs

	for _, e := range group {
		uf.add(e.ID)
		byID[e.ID] = e
		for _, key := range CorrelationKeys(e) {
			keyOwners[key] = append(keyOwners[key], e.ID)
		}
	}
	for _, owners := range keyOwners {
		if c.timeWindow <= 0 {
			for i := 1; i < len(owners); i++ {
				uf.union(owners[0], owners[i])
			}
			continue
		}
		// Temporal constraint: sort the key's sightings and union only
		// consecutive ones within the window.
		sort.Slice(owners, func(i, j int) bool {
			return byID[owners[i]].LastSeen.Before(byID[owners[j]].LastSeen)
		})
		for i := 1; i < len(owners); i++ {
			prev, cur := byID[owners[i-1]], byID[owners[i]]
			if cur.LastSeen.Sub(prev.LastSeen) <= c.timeWindow {
				uf.union(owners[i-1], owners[i])
			}
		}
	}

	var out []ComposedIoC
	for _, memberIDs := range uf.components() {
		if len(memberIDs) < c.minClusterSize {
			continue
		}
		sort.Strings(memberIDs)
		cioc := ComposedIoC{Category: category}
		keySet := make(map[string]int)
		for _, id := range memberIDs {
			e := byID[id]
			cioc.Events = append(cioc.Events, e)
			for _, k := range CorrelationKeys(e) {
				keySet[k]++
			}
			if cioc.FirstSeen.IsZero() || e.FirstSeen.Before(cioc.FirstSeen) {
				cioc.FirstSeen = e.FirstSeen
			}
			if e.LastSeen.After(cioc.LastSeen) {
				cioc.LastSeen = e.LastSeen
			}
		}
		// Only keys shared by at least two members explain the clustering.
		for k, n := range keySet {
			if n >= 2 {
				cioc.CorrelationKeys = append(cioc.CorrelationKeys, k)
			}
		}
		sort.Strings(cioc.CorrelationKeys)
		cioc.ID = composedID(memberIDs)
		cioc.ContentHash = cioc.ID
		out = append(out, cioc)
	}
	return out
}

// CorrelationKeys extracts the connection points of an event: values that,
// when shared with another event of the same category, link the two. A URL
// contributes its host; an IP contributes itself and its /24; a domain its
// registered suffix pair; context entries like campaign/malware/cve
// contribute tagged keys.
func CorrelationKeys(e normalize.Event) []string {
	var keys []string
	addHost := func(host string) {
		host = strings.ToLower(host)
		if ip := net.ParseIP(host); ip != nil {
			keys = append(keys, "ip:"+ip.String())
			if v4 := ip.To4(); v4 != nil {
				keys = append(keys, "net24:"+v4.Mask(net.CIDRMask(24, 32)).String())
			}
			return
		}
		keys = append(keys, "host:"+host)
		if reg := registeredDomain(host); reg != "" && reg != host {
			keys = append(keys, "domain:"+reg)
		} else if reg != "" {
			keys = append(keys, "domain:"+reg)
		}
	}

	switch e.Type {
	case normalize.TypeDomain:
		addHost(e.Value)
	case normalize.TypeIPv4, normalize.TypeIPv6:
		addHost(e.Value)
	case normalize.TypeURL:
		if u, err := url.Parse(e.Value); err == nil && u.Host != "" {
			addHost(u.Hostname())
		}
	case normalize.TypeMD5, normalize.TypeSHA1, normalize.TypeSHA256, normalize.TypeSHA512:
		keys = append(keys, "hash:"+e.Value)
	case normalize.TypeCVE:
		keys = append(keys, "cve:"+e.Value)
	case normalize.TypeEmail:
		if _, dom, ok := strings.Cut(e.Value, "@"); ok {
			addHost(dom)
		}
	case normalize.TypeFilename:
		keys = append(keys, "filename:"+strings.ToLower(e.Value))
	}

	for _, ctxKey := range []string{"campaign", "malware", "actor", "cve"} {
		if v, ok := e.Context[ctxKey]; ok && v != "" {
			keys = append(keys, ctxKey+":"+strings.ToLower(v))
		}
	}
	return keys
}

// registeredDomain approximates the registrable domain as the last two DNS
// labels ("a.b.evil.example" → "evil.example"). Good enough to correlate
// subdomains of a campaign without a public-suffix list.
func registeredDomain(host string) string {
	labels := strings.Split(host, ".")
	if len(labels) < 2 {
		return host
	}
	return strings.Join(labels[len(labels)-2:], ".")
}

func composedID(memberIDs []string) string {
	return uuid.NewV5(uuid.NamespaceCAISP, []byte("cioc\x00"+strings.Join(memberIDs, ","))).String()
}

package correlate

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/uuid"
)

// Incremental is a stateful streaming correlator: it maintains, per threat
// category, a correlation-key → cluster inverted index on top of a
// union-find forest, so that correlating one more flushed batch costs
// amortized O(events × keys) instead of O(history). Each Add returns the
// delta against the previously emitted cluster set — brand-new clusters,
// clusters that grew or merged (same stable UUID, new membership), and
// clusters that were absorbed into a survivor and must be retracted.
//
// Cluster identity is decoupled from membership: a cluster's UUID is
// derived from its seed (first) member and never changes as members join,
// while the membership-sensitive ContentHash follows the members. When
// two emitted clusters merge, the older one (by creation order) survives
// and the younger UUID is reported in Delta.Removed.
//
// All methods are safe for concurrent use.
type Incremental struct {
	mu sync.Mutex
	// registry receives the caisp_correlate_* families (WithMetrics).
	registry *obs.Registry
	// cats holds the per-category streaming state.
	cats map[string]*catState
	// seq orders cluster creation: on merge the lowest-seq cluster survives,
	// so identities stay sticky for downstream stores and dashboards.
	seq uint64

	stats IncrementalStats

	addDur *obs.Histogram // caisp_correlate_add_seconds; nil without WithMetrics
}

// catState is the streaming index of one threat category.
type catState struct {
	uf   *unionFind
	byID map[string]*normalize.Event
	// firstSighting maps each correlation key to the first event seen with
	// it: every sighting of a key is one set, so a newcomer unions with
	// that one representative.
	firstSighting map[string]sighting
	// clusters maps the current union-find root to the cluster rooted there.
	clusters map[string]*cluster
}

// sighting is the first event seen with a correlation key, and whether
// a second sighting has made the key shared.
type sighting struct {
	id     string
	shared bool
}

// cluster is the mutable book-keeping record behind one emitted cIoC.
type cluster struct {
	uuid     string
	seq      uint64
	category string
	// members are sorted by ID, the order compose emits them in; a list
	// compose handed out is never written again. queued holds, unsorted,
	// the members joined since, which settle merges in once per compose.
	members, queued []*normalize.Event
	// first and last bound the observation window (see widen).
	first, last *normalize.Event
	// shared lists, unsorted, the correlation keys carried two or more
	// times by members. Every sighting of a key is unioned into one
	// cluster, so a key joins the list of the cluster that holds it on its
	// second sighting, and merging clusters concatenates their lists.
	shared []string
	// emitted records that the cluster has been reported in a Delta (as New)
	// and so must be retracted via Delta.Removed if later absorbed.
	emitted bool
	// absorbed marks a cluster merged into a survivor; it is dead state kept
	// only because the dirty set of the in-flight Add may still hold it.
	absorbed bool
	base     *Base // handed out by the next composeDelta
}

// Delta is the result of one Add: the changes to the emitted cluster set.
type Delta struct {
	// New are clusters emitted for the first time.
	New []ComposedIoC
	// Updated are previously emitted clusters whose membership changed
	// (grown or merged); they keep their stable UUID.
	Updated []ComposedIoC
	// Removed are UUIDs of previously emitted clusters that were absorbed
	// into a survivor (which appears in New or Updated).
	Removed []string
	// Joined maps the ID of each cluster in New and Updated to the IDs of
	// the events this Add indexed into it, sorted.
	Joined map[string][]string
}

// Empty reports whether the delta carries no changes.
func (d *Delta) Empty() bool {
	return len(d.New) == 0 && len(d.Updated) == 0 && len(d.Removed) == 0
}

// IncrementalStats are cumulative counters of the streaming correlator.
type IncrementalStats struct {
	// Events is the number of distinct events ingested.
	Events int `json:"events"`
	// Clusters is the number of currently emitted (live) clusters.
	Clusters int `json:"clusters"`
	// New / Updated / Merges count emitted deltas: first-time emissions,
	// in-place growth emissions, and absorbed-cluster retractions.
	New     int64 `json:"new"`
	Updated int64 `json:"updated"`
	Merges  int64 `json:"merges"`
}

// NewIncremental constructs a streaming correlator.
func NewIncremental(opts ...Option) *Incremental {
	inc := &Incremental{cats: make(map[string]*catState)}
	for _, o := range opts {
		o.apply(inc)
	}
	if reg := inc.registry; reg != nil {
		inc.addDur = reg.Histogram("caisp_correlate_add_seconds",
			"Incremental.Add latency per flushed batch.")
		reg.GaugeFunc("caisp_correlate_clusters",
			"Currently emitted (live) clusters.",
			func() float64 { return float64(inc.Stats().Clusters) })
		reg.CounterFunc("caisp_correlate_events_total",
			"Distinct events folded into the streaming index.",
			func() float64 { return float64(inc.Stats().Events) })
		reg.CounterFunc("caisp_correlate_cluster_new_total",
			"Clusters emitted for the first time.",
			func() float64 { return float64(inc.Stats().New) })
		reg.CounterFunc("caisp_correlate_cluster_updated_total",
			"In-place cluster growth emissions.",
			func() float64 { return float64(inc.Stats().Updated) })
		reg.CounterFunc("caisp_correlate_cluster_merges_total",
			"Absorbed-cluster retractions.",
			func() float64 { return float64(inc.Stats().Merges) })
	}
	return inc
}

// clusterUUID derives the stable identity of a cluster from its category
// and seed member. It is independent of later membership changes.
func clusterUUID(category, seedEventID string) string {
	return uuid.NewV5(uuid.NamespaceCAISP, "", "\x00", "cluster", category, seedEventID).String()
}

func (inc *Incremental) cat(category string) *catState {
	cs := inc.cats[category]
	if cs == nil {
		cs = &catState{
			uf:            newUnionFind(),
			byID:          make(map[string]*normalize.Event),
			firstSighting: make(map[string]sighting),
			clusters:      make(map[string]*cluster),
		}
		inc.cats[category] = cs
	}
	return cs
}

// Add folds a batch of events into the streaming index and returns the
// delta of emitted clusters. Events already known (same normalized ID) are
// ignored. Output slices are sorted for determinism.
func (inc *Incremental) Add(events []normalize.Event) Delta {
	if inc.addDur != nil {
		defer func(start time.Time) {
			inc.addDur.Observe(time.Since(start).Seconds())
		}(time.Now())
	}
	inc.mu.Lock()
	defer inc.mu.Unlock()
	dirty := make(map[*cluster]bool)
	var removed []string
	// The new events, copied into one array sized so that no append
	// moves the members already indexed.
	indexed := make([]normalize.Event, 0, len(events))
	for i := range events {
		cs := inc.cat(events[i].Category)
		if _, ok := cs.byID[events[i].ID]; ok {
			continue
		}
		indexed = append(indexed, events[i])
		e := &indexed[len(indexed)-1]
		inc.stats.Events++
		cs.byID[e.ID] = e
		cs.uf.add(e.ID)
		cl := &cluster{
			uuid:     clusterUUID(e.Category, e.ID),
			seq:      inc.nextSeq(),
			category: e.Category,
			members:  []*normalize.Event{e},
			first:    e,
			last:     e,
		}
		cs.clusters[e.ID] = cl
		dirty[cl] = true
		for _, key := range CorrelationKeys(*e) {
			inc.link(cs, key, e.ID, dirty, &removed)
		}
	}
	return inc.composeDelta(dirty, removed, indexed)
}

func (inc *Incremental) nextSeq() uint64 {
	inc.seq++
	return inc.seq
}

// link records the sighting of key by event id and unions it with the key's
// first sighting, as the batch correlator unions every sighting of a key.
// The second sighting makes key a shared key of the cluster holding both.
func (inc *Incremental) link(cs *catState, key, id string, dirty map[*cluster]bool, removed *[]string) {
	first, ok := cs.firstSighting[key]
	if !ok {
		cs.firstSighting[key] = sighting{id: id}
		return
	}
	inc.unionClusters(cs, first.id, id, dirty, removed)
	if !first.shared {
		cs.firstSighting[key] = sighting{id: first.id, shared: true}
		cl := cs.clusters[cs.uf.find(id)]
		cl.shared = append(cl.shared, key)
	}
}

// unionClusters merges the clusters containing events a and b. The older
// cluster (lowest creation seq) keeps its identity; if the absorbed side
// was already emitted its UUID is appended to removed and counted as a
// merge. The smaller member list is queued for the next settle, so a
// merge costs the smaller side.
func (inc *Incremental) unionClusters(cs *catState, a, b string, dirty map[*cluster]bool, removed *[]string) {
	ra, rb := cs.uf.find(a), cs.uf.find(b)
	if ra == rb {
		return
	}
	ca, cb := cs.clusters[ra], cs.clusters[rb]
	cs.uf.union(a, b)
	root := cs.uf.find(a)
	surv, abs := ca, cb
	if cb.seq < ca.seq {
		surv, abs = cb, ca
	}
	if len(abs.members) > len(surv.members) {
		surv.members, abs.members = abs.members, surv.members
	}
	surv.queued = append(append(surv.queued, abs.members...), abs.queued...)
	surv.widen(abs.first, abs.last)
	surv.shared = append(surv.shared, abs.shared...)
	abs.absorbed = true
	delete(cs.clusters, ra)
	delete(cs.clusters, rb)
	cs.clusters[root] = surv
	dirty[surv] = true
	if abs.emitted {
		*removed = append(*removed, abs.uuid)
		inc.stats.Merges++
	}
}

// widen extends the cluster's bounds to members first and last. A zero
// FirstSeen is unset: it bounds nothing while any member has one.
func (cl *cluster) widen(first, last *normalize.Event) {
	if cl.first.FirstSeen.IsZero() || !first.FirstSeen.IsZero() && first.FirstSeen.Before(cl.first.FirstSeen) {
		cl.first = first
	}
	if last.LastSeen.After(cl.last.LastSeen) {
		cl.last = last
	}
}

// settle merges the queued members into the sorted member list. The
// merge allocates a new list, so a list compose handed out stays as it
// was.
func (cl *cluster) settle() {
	if len(cl.queued) == 0 {
		return
	}
	slices.SortFunc(cl.queued, byID)
	cl.members, cl.queued = mergeSorted(cl.members, cl.queued), nil
}

func byID(a, b *normalize.Event) int { return strings.Compare(a.ID, b.ID) }

// mergeSorted merges two lists of distinct members sorted by ID into a
// new list.
func mergeSorted(a, b []*normalize.Event) []*normalize.Event {
	out := make([]*normalize.Event, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0].ID < b[0].ID {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// composeDelta turns the dirty cluster set of one Add into a sorted Delta,
// flipping emitted flags. indexed are the events the Add indexed.
func (inc *Incremental) composeDelta(dirty map[*cluster]bool, removed []string, indexed []normalize.Event) Delta {
	var d Delta
	for cl := range dirty {
		if cl.absorbed {
			continue
		}
		c := inc.compose(cl)
		c.Base, cl.base = cl.base, nil
		if cl.emitted {
			d.Updated = append(d.Updated, c)
			inc.stats.Updated++
		} else {
			cl.emitted = true
			d.New = append(d.New, c)
			inc.stats.New++
		}
	}
	sortComposed(d.New)
	sortComposed(d.Updated)
	sort.Strings(removed)
	d.Removed = removed
	inc.stats.Clusters += len(d.New) - len(removed)
	d.Joined = make(map[string][]string, len(d.New)+len(d.Updated))
	for i := range indexed {
		cs := inc.cats[indexed[i].Category]
		id := cs.clusters[cs.uf.find(indexed[i].ID)].uuid
		d.Joined[id] = append(d.Joined[id], indexed[i].ID)
	}
	for _, ids := range d.Joined {
		sort.Strings(ids)
	}
	return d
}

// compose renders the current state of a cluster as a cIoC under its
// stable cluster UUID. Events is the cluster's settled member list itself.
func (inc *Incremental) compose(cl *cluster) ComposedIoC {
	cl.settle()
	c := ComposedIoC{ID: cl.uuid, Category: cl.category, Events: cl.members,
		FirstSeen: cl.first.FirstSeen, LastSeen: cl.last.LastSeen}
	c.CorrelationKeys = append([]string(nil), cl.shared...)
	sort.Strings(c.CorrelationKeys)
	return c
}

// Rebase makes b, the committed revision rendered from c, the base the
// next Add that composes c's cluster hands out, unless it was absorbed.
func (inc *Incremental) Rebase(c *ComposedIoC, b *Base) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if cs := inc.cats[c.Category]; cs != nil {
		if cl := cs.clusters[cs.uf.find(c.Events[0].ID)]; cl != nil && cl.uuid == c.ID {
			cl.base = b
		}
	}
}

func sortComposed(cs []ComposedIoC) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Category != cs[j].Category {
			return cs[i].Category < cs[j].Category
		}
		return cs[i].ID < cs[j].ID
	})
}

// Seed restores one persisted cluster into the index during recovery: the
// given events become a cluster under the given UUID, marked emitted so
// later growth is reported as Updated, not New. Seeded members are always
// one set regardless of keys (they were correlated before the restart).
// If seeding links the cluster to previously seeded ones (shared members
// or correlation keys), the younger emitted identities are absorbed and
// returned so the caller can retract them from its store. Call Seed in
// store order (oldest first) so surviving identities match pre-crash ones.
func (inc *Incremental) Seed(clusterID string, events []normalize.Event) (absorbed []string) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if len(events) == 0 {
		return nil
	}
	category := events[0].Category
	cs := inc.cat(category)

	var fresh []*normalize.Event // events new to the index
	var existing []string        // events already owned by another cluster
	events = slices.Clone(events)
	for i := range events {
		e := &events[i]
		if _, ok := cs.byID[e.ID]; ok {
			existing = append(existing, e.ID)
			continue
		}
		inc.stats.Events++
		cs.byID[e.ID] = e
		cs.uf.add(e.ID)
		fresh = append(fresh, e)
	}
	dirty := make(map[*cluster]bool)
	var removed []string
	staleDuplicate := false
	if len(fresh) > 0 {
		slices.SortFunc(fresh, byID)
		cl := &cluster{
			uuid:     clusterID,
			seq:      inc.nextSeq(),
			category: category,
			members:  fresh,
			first:    fresh[0],
			last:     fresh[0],
			emitted:  true,
		}
		for _, e := range fresh[1:] {
			cs.uf.union(fresh[0].ID, e.ID)
			cl.widen(e, e)
		}
		cs.clusters[cs.uf.find(fresh[0].ID)] = cl
		inc.stats.Clusters++
		// Duplicated members across persisted clusters mean the clusters
		// were already one: fold them together, oldest identity wins.
		for _, id := range existing {
			inc.unionClusters(cs, fresh[0].ID, id, dirty, &removed)
		}
		for _, e := range fresh {
			for _, key := range CorrelationKeys(*e) {
				inc.link(cs, key, e.ID, dirty, &removed)
			}
		}
	} else {
		// Every member already belongs to an older cluster: the persisted
		// record is a stale duplicate (e.g. a crash mid-retraction). Fold
		// its owners together and retract the duplicate identity itself.
		for i := 1; i < len(existing); i++ {
			inc.unionClusters(cs, existing[0], existing[i], dirty, &removed)
		}
		staleDuplicate = true
	}
	inc.stats.Clusters -= len(removed)
	if staleDuplicate {
		removed = append(removed, clusterID)
	}
	sort.Strings(removed)
	return removed
}

// Clusters snapshots every currently emitted cluster, sorted by
// (category, ID).
func (inc *Incremental) Clusters() []ComposedIoC {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	var out []ComposedIoC
	for _, cs := range inc.cats {
		for _, cl := range cs.clusters {
			if cl.emitted {
				out = append(out, inc.compose(cl))
			}
		}
	}
	sortComposed(out)
	return out
}

// LastSightings reports, for every currently emitted cluster, the most
// recent member sighting (the maximum member LastSeen — the same value
// compose publishes as the cIoC's LastSeen), read off each cluster's
// bound under the lock; the indicator-lifecycle engine calls it once per
// re-score scan and uses the result as the sighting-driven refresh
// clock for decayed eIoC scores, so a key re-observed since the last
// composition resets decay without waiting for a membership change.
func (inc *Incremental) LastSightings() map[string]time.Time {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	out := make(map[string]time.Time)
	for _, cs := range inc.cats {
		for _, cl := range cs.clusters {
			if cl.absorbed || !cl.emitted {
				continue
			}
			out[cl.uuid] = cl.last.LastSeen
		}
	}
	return out
}

// Stats snapshots the correlator's cumulative counters.
func (inc *Incremental) Stats() IncrementalStats {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.stats
}

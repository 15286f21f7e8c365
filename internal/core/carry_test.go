package core

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/correlate"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/worker"
)

// strutsMembers are members of one vulnerability cluster: advisories
// with their decorators and indicators, linked by a campaign.
func strutsMembers(t *testing.T, values ...string) []normalize.Event {
	t.Helper()
	var out []normalize.Event
	for _, v := range values {
		out = append(out, ctxEvent(t, v, normalize.CategoryVulnExploit, map[string]string{
			"campaign":    "op-struts-wave",
			"products":    "apache struts,apache",
			"os":          "debian",
			"cvss-vector": "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H",
			"description": "struts exploitation " + v,
		}))
	}
	return out
}

// carryRig is a platform whose analyzer, when capture is set, also hands
// the rIoCs it pushes to the test.
type carryRig struct {
	*Platform
	dir     string // the data directory
	capture bool
	mu      sync.Mutex
	riocs   []heuristic.RIoC
}

func newCarryRig(t *testing.T, cfg Config, capture bool) *carryRig {
	r := &carryRig{Platform: newPlatform(t, cfg), capture: capture}
	if capture {
		r.analyzer = worker.NewAnalyzer(r.engine, r.collector, r.clk, func(x heuristic.RIoC) {
			r.mu.Lock()
			r.riocs = append(r.riocs, x)
			r.mu.Unlock()
			r.pushRIoC(x)
		})
	}
	return r
}

// flush flushes events and returns the one cluster the flush stored.
func (r *carryRig) flush(t *testing.T, events []normalize.Event) string {
	t.Helper()
	r.mu.Lock()
	r.riocs = nil
	r.mu.Unlock()
	stored, err := r.Platform.flush(events)
	if err != nil || len(stored) != 1 {
		t.Fatalf("flush: %d stored, %v", len(stored), err)
	}
	return stored[0].UUID
}

// checkLikeFresh: the revision the last flush stored for cluster is
// ToMISP of the cluster as an analyzer that has scored nothing scores
// it, attribute UUIDs aside, and the flush pushed that analyzer's rIoCs
// (when the rig captures them).
func (r *carryRig) checkLikeFresh(t *testing.T, cluster string) {
	t.Helper()
	var c *correlate.ComposedIoC
	for _, cl := range r.corr.Clusters() {
		if cl.ID == cluster {
			c = &cl
		}
	}
	want, err := correlate.ToMISP(c, r.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	var fresh []heuristic.RIoC
	if _, err := worker.NewAnalyzer(r.engine, r.collector, r.clk, func(x heuristic.RIoC) {
		fresh = append(fresh, x)
	}).Score(want); err != nil {
		t.Fatal(err)
	}
	got, err := r.store.Get(cluster)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := blankV4(t, got), blankV4(t, want); g != w {
		t.Fatalf("stored revision differs from a fresh one:\n%s\n%s", g, w)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, w := blankV4(t, r.riocs), blankV4(t, fresh); r.capture && g != w {
		t.Fatalf("pushed rIoCs differ from a fresh analyzer's:\n%s\n%s", g, w)
	}
}

// blankV4 encodes v with the identifiers drawn from a random source
// blanked.
func blankV4(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return v4Re.ReplaceAllString(string(raw), "v4")
}

// TestBrokenBaseScoresAsAFreshAnalyzer grows one cluster over flushes and
// breaks, between the last two, what proves the stored revision is the
// one the flush committed, or the analyzer record it was scored into.
// The next revision then takes the full path: it equals ToMISP, attribute
// UUIDs aside, and scores and pushes rIoCs like a fresh analyzer.
func TestBrokenBaseScoresAsAFreshAnalyzer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		brk   func(t *testing.T, r *carryRig, cluster string, older *misp.Event) *carryRig
		grows bool // the revision after the break is stored
	}{
		{name: "REST post of the cluster's UUID", brk: func(t *testing.T, r *carryRig, cluster string, _ *misp.Event) *carryRig {
			posted, err := r.store.GetClone(cluster)
			if err != nil {
				t.Fatal(err)
			}
			posted.Attributes[0].Comment = "edited through REST"
			if _, err := r.TIP().AddEvent(posted); err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{name: "lifecycle decayed-score write", brk: func(t *testing.T, r *carryRig, _ string, _ *misp.Event) *carryRig {
			// A week on, by RunOnce's own instant: the platform's lifecycle
			// loop waits on the fake clock, which stays where it is.
			res, err := r.Lifecycle().RunOnce(r.clk.Now().Add(7 * 24 * time.Hour))
			if err != nil || res.Rescored == 0 || res.Expired != 0 {
				t.Fatalf("lifecycle pass: %+v, %v; want a re-score", res, err)
			}
			return r
		}},
		{name: "analyzer-follower write-back", brk: func(t *testing.T, r *carryRig, cluster string, _ *misp.Event) *carryRig {
			// The cluster posted unscored, as another node would, and the
			// follower's write-back of its score.
			var c correlate.ComposedIoC
			for _, cl := range r.corr.Clusters() {
				if cl.ID == cluster {
					c = cl
				}
			}
			posted, err := correlate.ToMISP(&c, r.clk.Now())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.TIP().AddEvent(posted); err != nil {
				t.Fatal(err)
			}
			page, _, _, err := r.TIP().ChangesPage(r.store.Seq()-1, 0)
			if err != nil || len(page) != 1 || !heuristic.Unscored(page[0]) {
				t.Fatalf("change log page %d, %v; want the unscored post", len(page), err)
			}
			before := r.store.Seq()
			if err := r.analyzePage(page, 0); err != nil || r.store.Seq() != before+1 {
				t.Fatalf("write-back: %v, seq %d → %d", err, before, r.store.Seq())
			}
			return r
		}},
		{name: "commit refused by a tombstone", brk: func(t *testing.T, r *carryRig, cluster string, _ *misp.Event) *carryRig {
			clk := r.clk.(*clock.Fake)
			if _, err := r.TIP().DeleteEventsAt([]storage.Deletion{{UUID: cluster, At: clk.Now().Add(time.Hour)}}); err != nil {
				t.Fatal(err)
			}
			if stored, err := r.Platform.flush(strutsMembers(t, "http://refused.example/x")); err != nil || len(stored) != 0 {
				t.Fatalf("revision older than the deletion: %d stored, %v", len(stored), err)
			}
			clk.Advance(2 * time.Hour)
			return r
		}},
		{name: "follower scored an older revision", brk: func(t *testing.T, r *carryRig, _ string, older *misp.Event) *carryRig {
			if _, err := r.analyzer.Score(older.Clone()); err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{name: "record evicted", brk: func(t *testing.T, r *carryRig, cluster string, _ *misp.Event) *carryRig {
			r.analyzer.Forget(cluster)
			return r
		}},
		{name: "restart", brk: func(t *testing.T, r *carryRig, _ string, _ *misp.Event) *carryRig {
			cfg := Config{Clock: r.clk, DataDir: r.dir, AnalyzerPool: 1, DisableMetrics: true}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			next := newCarryRig(t, cfg, true)
			next.dir = r.dir
			return next
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r := newCarryRig(t, Config{Clock: clock.NewFake(batchTime), DataDir: dir, AnalyzerPool: 1, DisableMetrics: true}, true)
			r.dir = dir
			cluster := r.flush(t, strutsMembers(t, "CVE-2017-9805", "http://struts.example/a", "CVE-2017-5638"))
			older, err := r.store.GetClone(cluster)
			if err != nil {
				t.Fatal(err)
			}
			// The advisory sorts first, so the base's blocks lie where none
			// of the older revision's like blocks did.
			r.flush(t, strutsMembers(t, "CVE-2018-11776"))
			r.checkLikeFresh(t, cluster)
			r = tc.brk(t, r, cluster, older)
			// The URL joins the cluster by its host after a restart too,
			// which keeps no campaign.
			if got := r.flush(t, strutsMembers(t, "CVE-2017-12611", "http://struts.example/c")); got != cluster {
				t.Fatalf("the grown cluster was stored as %s, want %s", got, cluster)
			}
			r.checkLikeFresh(t, cluster)
		})
	}
}

// TestUnbrokenBaseConvertsOnlyNewMembers: with nothing between two
// flushes, the grown cluster's revision copies the members it had and
// the analyzer converts only the new members' blocks, and the revision
// still equals a fresh one.
func TestUnbrokenBaseConvertsOnlyNewMembers(t *testing.T) {
	r := newCarryRig(t, Config{Clock: clock.NewFake(batchTime), AnalyzerPool: 1}, false)
	cluster := r.flush(t, strutsMembers(t, "CVE-2017-9805", "http://struts.example/a", "CVE-2017-5638", "http://struts.example/b"))
	converted := func() float64 {
		return metricValue(t, scrape(t, r.Platform), `caisp_analyzer_blocks_total{outcome="converted"}`)
	}
	before := converted()
	members, carried := r.Members()
	// One indicator member, one block. It sorts last, into the last
	// advisory's span, whose key it leaves as it was.
	grown := strutsMembers(t, "http://struts.example/c")
	r.flush(t, grown)
	r.checkLikeFresh(t, cluster)
	if got := converted() - before; got != 1 {
		t.Fatalf("the grown revision converted %v blocks, want the new member's 1", got)
	}
	m, c := r.Members()
	if m-members != 5 || c-carried != 4 {
		t.Fatalf("the grown revision carried %d of %d members, want 4 of 5", c-carried, m-members)
	}
}

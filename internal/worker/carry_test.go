package worker

import (
	"fmt"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/correlate"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
)

// picks hands out the fuzzer's choices one byte at a time, then zeros.
type picks []byte

func (p *picks) pick(n int) int {
	if len(*p) == 0 {
		return 0
	}
	b := (*p)[0]
	*p = (*p)[1:]
	return int(b) % n
}

// pickedMember builds member n from the picks: an indicator, an advisory
// with its decorators, or a value of no known type that decorates one
// (os:, products:), seen on a few shared hosts and campaigns, with or
// without LastSeen.
func pickedMember(t *testing.T, p *picks, n int) normalize.Event {
	values := []string{
		fmt.Sprintf("h%d.dom%d.example", n, p.pick(3)),
		fmt.Sprintf("198.51.%d.%d", p.pick(2), n%250+1),
		fmt.Sprintf("CVE-2017-%d", 1000+n),
		fmt.Sprintf("CVE-2018-%d", 1000+n),
	}
	seen := evalTime.Add(-time.Duration(p.pick(24*40)) * time.Hour)
	e, err := normalize.New(values[p.pick(len(values))], normalize.CategoryMalwareDomain, "feed-a", normalize.SourceOSINT, seen)
	if err != nil {
		t.Fatal(err)
	}
	if p.pick(3) == 0 {
		e.Type = normalize.TypeUnknown
		e.Value = []string{"os:debian", "os:windows", "products:apache storm", "products:nginx"}[p.pick(4)]
	}
	if p.pick(4) == 0 {
		e.LastSeen = time.Time{}
	}
	e.Context = map[string]string{"campaign": fmt.Sprintf("c%d", p.pick(3))}
	for _, kv := range [][2]string{
		{"description", "apache struts exploit"},
		{"published", "2017-09-13"},
		{"cvss-vector", "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H"},
		{"os", "debian"},
		{"products", "apache struts"},
		{"references", "https://cve.mitre.example/a,https://b.example/2"},
	} {
		if p.pick(2) == 0 {
			e.Context[kv[0]] = kv[1]
		}
	}
	return e
}

// FuzzScoreCarried grows and merges random clusters as the flush does:
// each revision is rendered from the cluster's base (correlate.Render),
// scored by one Analyzer with what it copied (ScoreFrom), stored, and
// becomes the base with the record's token. A fresh Analyzer scores the
// full render of the same revision (no base). The clock moves across score
// lifetimes, and the record is sometimes replaced meanwhile by a scoring
// of one of the cluster's stored revisions, which stales the token. Every scoring must
// equal a fresh Analyzer's: outcome, score, the scored event and the
// rIoCs.
func FuzzScoreCarried(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte("grow clusters, merge them by campaign and let scores expire"))
	f.Add([]byte{1, 0, 2, 3, 1, 0, 0, 1, 2, 1, 0, 3, 1, 0, 4, 2, 0, 2, 1, 1, 3, 0, 2, 2, 4, 1, 0, 0, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := picks(data)
		collector, err := infra.NewCollector(infra.PaperInventory())
		if err != nil {
			t.Fatal(err)
		}
		clk := clock.NewFake(evalTime)
		engine := heuristic.NewEngine(heuristic.WithInfrastructure(collector), heuristic.WithClock(clk))
		keptRIoCs := &riocCollector{}
		kept := NewAnalyzer(engine, collector, clk, keptRIoCs.add)
		inc := correlate.NewIncremental()
		stored := make(map[string][]*misp.Event) // every revision stored, the last one current
		n := 0
		for step := 0; step < 8; step++ {
			var batch []normalize.Event
			for k := 1 + p.pick(3); k > 0; k-- {
				batch = append(batch, pickedMember(t, &p, n))
				n++
			}
			clk.Advance(time.Duration(p.pick(4)) * 3 * 24 * time.Hour)
			d := inc.Add(batch)
			for _, id := range d.Removed {
				delete(stored, id)
				kept.Forget(id)
			}
			for _, c := range append(d.New, d.Updated...) {
				var prev *misp.Event
				if revs := stored[c.ID]; len(revs) > 0 {
					prev = revs[len(revs)-1]
					if p.pick(4) == 0 { // some revision of it, scored after the base
						if _, err := kept.Score(revs[p.pick(len(revs))].Clone()); err != nil {
							t.Fatal(err)
						}
					}
				}
				rev, err := correlate.Render(&c, prev, clk.Now())
				if err != nil {
					t.Fatal(err)
				}
				full := c
				full.Base = nil
				want, err := correlate.Render(&full, prev, clk.Now())
				if err != nil {
					t.Fatal(err)
				}
				freshRIoCs := &riocCollector{}
				fresh := NewAnalyzer(engine, collector, clk, freshRIoCs.add)
				a, b := rev.Event, want.Event
				before := keptRIoCs.len()
				resA, errA := kept.ScoreFrom(a, rev.Token, rev.Copied)
				resB, errB := fresh.Score(b)
				if fmt.Sprint(errA) != fmt.Sprint(errB) || resA.Outcome != resB.Outcome || resA.Score != resB.Score {
					t.Fatalf("step %d: carried %v/%v/%v, fresh %v/%v/%v", step,
						resA.Outcome, resA.Score, errA, resB.Outcome, resB.Score, errB)
				}
				if ga, gb := canonicalJSON(t, a, false), canonicalJSON(t, b, false); ga != gb {
					t.Fatalf("step %d: scored events differ:\ncarried %s\nfresh   %s", step, ga, gb)
				}
				keptRIoCs.mu.Lock()
				got := append([]heuristic.RIoC(nil), keptRIoCs.items[before:]...)
				keptRIoCs.mu.Unlock()
				if canonicalJSON(t, got, false) != canonicalJSON(t, freshRIoCs.items, false) {
					t.Fatalf("step %d: rIoCs differ:\ncarried %+v\nfresh   %+v", step, got, freshRIoCs.items)
				}
				stored[c.ID] = append(stored[c.ID], a.Clone())
				inc.Rebase(&c, &correlate.Base{Seq: 1, Token: resA.Token, Events: c.Events, Starts: rev.Starts})
			}
		}
	})
}

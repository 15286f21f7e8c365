package subscribe

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/tip"
	"github.com/caisplatform/caisp/internal/wsock"
)

// newTIP is an in-memory TIP for a detections loop to follow.
func newTIP(t *testing.T) *tip.Service {
	t.Helper()
	store, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return tip.NewService(store)
}

// caughtUp is a Feed that closes caught when its reader asks for the page
// after head. A Follower asks for a page only once it has handled every
// page before it.
type caughtUp struct {
	tip.Feed
	head   uint64
	caught chan struct{}
}

func (f *caughtUp) NextPage(ctx context.Context, after uint64, limit int) ([]*misp.Event, uint64, error) {
	if after == f.head && f.caught != nil {
		close(f.caught)
		f.caught = nil // the follower is this Feed's only reader
	}
	return f.Feed.NextPage(ctx, after, limit)
}

// TestDetectionsEvaluateEveryCommittedEvent: a burst of ten times the old
// 256-deep subscription queue, committed before the detections start, is
// evaluated event by event and every event matches. Detections follow the
// change log from a cursor, so a late or slow reader loses nothing.
func TestDetectionsEvaluateEveryCommittedEvent(t *testing.T) {
	service := newTIP(t)
	subs := NewEngine()
	defer subs.Close()
	sub := mustRegister(t, subs, "siem", "[domain-name:value = 'evil.example']")

	from := service.StoreSeq()
	const batches, per = 10, 256
	at := time.Date(2019, 6, 24, 12, 0, 0, 0, time.UTC)
	for b := 0; b < batches; b++ {
		batch := make([]*misp.Event, per)
		for i := range batch {
			me := misp.NewEvent(fmt.Sprintf("sighting %d/%d", b, i), at)
			me.AddAttribute("domain", "Network activity", "evil.example", at)
			batch[i] = me
		}
		if _, err := service.AddEvents(batch); err != nil {
			t.Fatal(err)
		}
	}

	feed := &caughtUp{Feed: service, head: service.StoreSeq(), caught: make(chan struct{})}
	caught := feed.caught
	d := subs.Detections(feed, from, serial)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.Run(ctx)
	}()
	select {
	case <-caught:
	case <-time.After(10 * time.Second):
		t.Fatalf("detections stuck %d entries behind %d", d.Lag(feed.head), feed.head)
	}
	cancel()
	<-done

	st := subs.Stats()
	got, _ := subs.Get(sub.ID)
	if st.Evaluated != batches*per || got.Matches != batches*per {
		t.Fatalf("evaluated %d and matched %d of %d committed events", st.Evaluated, got.Matches, batches*per)
	}
	if lag := d.Lag(service.StoreSeq()); lag != 0 {
		t.Fatalf("lag %d after catching up", lag)
	}
}

// watchFrames attaches a watcher to e and returns a function that waits
// until the frames received carry every match e has counted, and renders
// each as "stage info pattern,pattern" in arrival order.
func watchFrames(t *testing.T, e *Engine) func() []string {
	t.Helper()
	sc, cc := net.Pipe()
	t.Cleanup(func() { cc.Close() })
	e.AddWatcher(wsock.NewConn(sc, false))
	frames := make(chan EventFrame, 16)
	go func() {
		defer close(frames)
		for {
			op, payload, err := wsock.ReadFrameInto(cc, make([]byte, 4096))
			if err != nil {
				return
			}
			var f EventFrame
			if op == wsock.OpText && json.Unmarshal(payload, &f) == nil && f.Kind == "match" {
				frames <- f
			}
		}
	}()
	return func() []string {
		var out []string
		var matched int64
		timeout := time.After(5 * time.Second)
		for matched < e.Stats().Matches {
			select {
			case f := <-frames:
				pats := make([]string, len(f.Matches))
				for i, m := range f.Matches {
					pats[i] = m.Pattern
				}
				sort.Strings(pats)
				out = append(out, fmt.Sprintf("%s %s %s", f.Stage, f.Info, strings.Join(pats, ",")))
				matched += int64(len(f.Matches))
			case <-timeout:
				t.Fatalf("frames %v carry %d of %d matches", out, matched, e.Stats().Matches)
			}
		}
		return out
	}
}

// TestStageRule pins which stage each kind of committed revision meets,
// and with which score, when the detections loop reads it from the
// change log. The rule reads the revision alone.
func TestStageRule(t *testing.T) {
	const (
		domain = "[domain-name:value = 'evil.example']"
		high   = "[x-caisp:threat-score > 0.5]"
		low    = "[x-caisp:threat-score < 0.5]"
	)
	at := time.Date(2019, 6, 24, 12, 0, 0, 0, time.UTC)
	event := func(info string, tags ...string) *misp.Event {
		me := misp.NewEvent(info, at)
		me.AddAttribute("domain", "Network activity", "evil.example", at)
		for _, tag := range tags {
			me.AddTag(tag)
		}
		return me
	}
	cioc := func(info string) *misp.Event {
		return event(info, "caisp:cioc", `caisp:category="malware-infection"`)
	}
	eioc := func(info string) *misp.Event {
		me := cioc(info)
		heuristic.SetBaseScore(me, 0.8, at)
		me.AddTag("caisp:eioc")
		return me
	}
	decayed := func(info string) *misp.Event {
		me := eioc(info)
		heuristic.SetDecayedScore(me, 0.4, at)
		return me
	}
	for _, tc := range []struct {
		name string
		page []*misp.Event
		want []string
	}{{
		name: "posted cIoC",
		page: []*misp.Event{cioc("posted")},
		want: []string{"cioc posted " + domain},
	}, {
		name: "flush eIoC committed scored",
		page: []*misp.Event{eioc("flushed")},
		want: []string{"cioc flushed " + domain, "eioc flushed " + domain + "," + high},
	}, {
		// The write-back of a posted cIoC is an eIoC revision like the
		// flush's: it repeats the cIoC-stage frame its base fired.
		name: "write-back eIoC",
		page: []*misp.Event{eioc("written back")},
		want: []string{"cioc written back " + domain, "eioc written back " + domain + "," + high},
	}, {
		name: "lifecycle decayed-score eIoC",
		page: []*misp.Event{decayed("decayed")},
		want: []string{"eioc decayed " + domain + "," + low},
	}, {
		name: "non-cIoC event",
		page: []*misp.Event{event("raw")},
		want: []string{"cioc raw " + domain},
	}, {
		name: "page: the cIoC pass before the eIoC pass",
		page: []*misp.Event{eioc("a"), eioc("b")},
		want: []string{
			"cioc a " + domain, "cioc b " + domain,
			"eioc a " + domain + "," + high, "eioc b " + domain + "," + high,
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			service := newTIP(t)
			subs := NewEngine()
			defer subs.Close()
			for _, p := range []string{domain, high, low} {
				mustRegister(t, subs, "siem", p)
			}
			frames := watchFrames(t, subs)
			d := subs.Detections(service, service.StoreSeq(), serial)
			if _, err := service.AddEvents(tc.page); err != nil {
				t.Fatal(err)
			}
			d.Drain(service.StoreSeq())
			if lag := d.Lag(service.StoreSeq()); lag != 0 {
				t.Fatalf("lag %d after a drain", lag)
			}
			if got := frames(); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("frames\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}

// serial runs a page's evaluations in order, on the caller's goroutine.
func serial(n int, fn func(i int)) {
	for i := range n {
		fn(i)
	}
}

// parallel runs a page's evaluations each on its own goroutine.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// TestOnePassAgreesWithPerStage is the differential test of the stage
// rule's one evaluation per revision: over seeded random pattern sets and
// pages, evaluatePage pushes the frames (a multiset per stage) and counts
// the evaluations and matches, in total and per subscription, that
// evaluating each stage on its own with EvaluateMISP does.
func TestOnePassAgreesWithPerStage(t *testing.T) {
	at := time.Date(2019, 6, 24, 12, 0, 0, 0, time.UTC)
	domains := []string{"a.example", "b.example", "c.example", "d.test"}
	ips := []string{"10.0.0.1", "10.0.0.2", "10.0.0.5", "10.0.0.6"}
	scores := []float64{0.25, 0.5, 0.75}
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		pick := func(from []string) string { return from[r.Intn(len(from))] }
		score := func() float64 { return scores[r.Intn(len(scores))] }
		patterns := make([]string, 48)
		for i := range patterns {
			switch r.Intn(12) {
			case 0:
				patterns[i] = fmt.Sprintf("[domain-name:value = '%s']", pick(domains))
			case 1:
				patterns[i] = fmt.Sprintf("[ipv4-addr:value IN ('%s', '%s')]", pick(ips), pick(ips))
			case 2:
				patterns[i] = fmt.Sprintf("[domain-name:value LIKE '%%.%s']", []string{"example", "test"}[r.Intn(2)])
			case 3:
				patterns[i] = fmt.Sprintf("[ipv4-addr:value ISSUBSET '10.0.0.%d/30']", r.Intn(8)&^3)
			case 4:
				patterns[i] = fmt.Sprintf("[domain-name:value NOT = '%s']", pick(domains))
			case 5:
				patterns[i] = fmt.Sprintf("[x-caisp:threat-score > %v]", score())
			case 6:
				patterns[i] = fmt.Sprintf("[x-caisp:threat-score = %v]", score())
			case 7:
				patterns[i] = fmt.Sprintf("[x-caisp:threat-score IN (%v, %v)]", score(), score())
			case 8:
				patterns[i] = fmt.Sprintf("[x-caisp:threat-score >= %v AND domain-name:value = '%s']", score(), pick(domains))
			case 9:
				patterns[i] = fmt.Sprintf("[x-caisp:threat-score < %v OR ipv4-addr:value = '%s']", score(), pick(ips))
			case 10:
				// Reached through the domain alone when the score differs.
				patterns[i] = fmt.Sprintf("[x-caisp:threat-score = %v OR domain-name:value = '%s']", score(), pick(domains))
			case 11:
				patterns[i] = "[x-caisp:category = 'malware-infection']"
			}
		}
		onePass, perStage := NewEngine(), NewEngine()
		defer onePass.Close()
		defer perStage.Close()
		ids := make([][2]string, len(patterns))
		for i, p := range patterns {
			ids[i] = [2]string{mustRegister(t, onePass, "siem", p).ID, mustRegister(t, perStage, "siem", p).ID}
		}
		onePassFrames, perStageFrames := watchFrames(t, onePass), watchFrames(t, perStage)

		for round := range 6 {
			page := make([]*misp.Event, 8)
			for i := range page {
				me := misp.NewEvent("", at)
				for range 1 + r.Intn(3) {
					if r.Intn(2) == 0 {
						me.AddAttribute("domain", "Network activity", pick(domains), at)
					} else {
						me.AddAttribute("ip-dst", "Network activity", pick(ips), at)
					}
				}
				kind := r.Intn(5)
				if kind > 0 { // all but a non-cIoC event
					me.AddTag("caisp:cioc")
					me.AddTag(`caisp:category="malware-infection"`)
				}
				switch kind {
				case 1:
					me.Info = "unscorable cIoC"
				case 2:
					me.Info = "scored eIoC"
					heuristic.SetBaseScore(me, score(), at)
				case 3:
					me.Info = "decayed-score eIoC"
					heuristic.SetBaseScore(me, score(), at)
					heuristic.SetDecayedScore(me, score(), at)
				case 4:
					me.Info = "eIoC without a score"
				default:
					me.Info = "non-cIoC event"
				}
				if kind >= 2 {
					me.AddTag("caisp:eioc")
				}
				me.Info = fmt.Sprintf("seed %d round %d #%d %s", seed, round, i, me.Info)
				page[i] = me
			}
			onePass.evaluatePage(page, parallel)
			for _, me := range page {
				if _, decayed := heuristic.DecayedScoreOf(me); !decayed {
					perStage.EvaluateMISP(me, StageCIoC, -1)
				}
			}
			for _, me := range page {
				if me.HasTag("caisp:eioc") {
					perStage.EvaluateMISP(me, StageEIoC, -1)
				}
			}
		}

		got, want := onePassFrames(), perStageFrames()
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("seed %d: frames\none pass:\n%s\nper stage:\n%s", seed, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		if a, b := onePass.Stats(), perStage.Stats(); a.Evaluated != b.Evaluated || a.Matches != b.Matches || b.Matches == 0 {
			t.Fatalf("seed %d: one pass evaluated %d and matched %d, per stage %d and %d",
				seed, a.Evaluated, a.Matches, b.Evaluated, b.Matches)
		}
		for i, id := range ids {
			a, _ := onePass.Get(id[0])
			b, _ := perStage.Get(id[1])
			if a.Matches != b.Matches {
				t.Fatalf("seed %d: %s matched %d times in one pass, %d per stage", seed, patterns[i], a.Matches, b.Matches)
			}
		}
	}
}

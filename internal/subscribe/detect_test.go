package subscribe

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"strings"
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

package worker

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/bus"
	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/correlate"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/tip"
)

var evalTime = time.Date(2018, 6, 1, 12, 0, 0, 0, time.UTC)

// distributedRig wires a TIP with a TCP publish socket (the "MISP
// instance") and a worker (the "heuristic component") as separate
// components talking only over the network, as in the paper's deployment.
type distributedRig struct {
	service  *tip.Service
	listener *bus.Listener
	worker   *Worker
	riocs    *riocCollector
	cancel   context.CancelFunc
	runDone  chan struct{}
}

type riocCollector struct {
	mu    sync.Mutex
	items []heuristic.RIoC
}

func (c *riocCollector) add(r heuristic.RIoC) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items = append(c.items, r)
}

func (c *riocCollector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

func (c *riocCollector) first() heuristic.RIoC {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.items[0]
}

func newRig(t *testing.T) *distributedRig {
	t.Helper()
	store, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })

	broker := bus.NewBroker()
	t.Cleanup(broker.Close)
	listener, err := broker.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { listener.Close() })

	service := tip.NewService(store, tip.WithBroker(broker), tip.WithName("misp-instance"))
	apiServer := httptest.NewServer(tip.NewAPI(service, "worker-key"))
	t.Cleanup(apiServer.Close)

	collector, err := infra.NewCollector(infra.PaperInventory())
	if err != nil {
		t.Fatal(err)
	}
	riocs := &riocCollector{}
	w, err := New(Config{
		BusAddr:   listener.Addr(),
		TIP:       tip.NewClient(apiServer.URL, "worker-key"),
		Collector: collector,
		RIoCSink:  riocs.add,
		Clock:     clock.NewFake(evalTime),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-runDone
	})
	// Pub/sub delivers only to attached subscribers: wait for the worker's
	// TCP subscription before any test publishes.
	waitFor(t, func() bool { return broker.TCPConns() == 1 })
	return &distributedRig{
		service: service, listener: listener, worker: w,
		riocs: riocs, cancel: cancel, runDone: runDone,
	}
}

// strutsCIoC builds the use-case cIoC as the input module would store it.
func strutsCIoC(t *testing.T) *misp.Event {
	t.Helper()
	e, err := normalize.New("CVE-2017-9805", normalize.CategoryVulnExploit, "vuln-advisories", normalize.SourceOSINT,
		time.Date(2017, 9, 13, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	e.Context = map[string]string{
		"description": "Apache Struts REST plugin XStream RCE",
		"cvss-vector": "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H",
		"products":    "apache struts,apache",
		"os":          "debian",
		"published":   "2017-09-13",
		"references":  "https://capec.mitre.example/248,https://cve.mitre.example/CVE-2017-9805",
	}
	ciocs := correlate.New().Correlate([]normalize.Event{e})
	if len(ciocs) != 1 {
		t.Fatalf("ciocs = %d", len(ciocs))
	}
	me, err := correlate.ToMISP(&ciocs[0], evalTime)
	if err != nil {
		t.Fatal(err)
	}
	return me
}

func TestDistributedHeuristicComponent(t *testing.T) {
	rig := newRig(t)

	// The "MISP instance" stores a cIoC; the publish socket fans it out to
	// the remote worker, which scores it and writes the eIoC back over the
	// REST API.
	if _, err := rig.service.AddEvent(strutsCIoC(t)); err != nil {
		t.Fatal(err)
	}

	waitFor(t, func() bool { return rig.worker.Stats().Enriched > 0 })

	// The rIoC reproduces the paper's use case.
	if rig.riocs.len() != 1 {
		t.Fatalf("riocs = %d", rig.riocs.len())
	}
	r := rig.riocs.first()
	if r.CVE != "CVE-2017-9805" || r.ThreatScore != 2.7407 {
		t.Fatalf("rIoC = %+v", r)
	}
	if len(r.NodeIDs) != 1 || r.NodeIDs[0] != "node4" {
		t.Fatalf("nodes = %v", r.NodeIDs)
	}

	// The stored event became an eIoC with the threat-score attribute.
	waitFor(t, func() bool {
		events, err := rig.service.Search(tip.SearchQuery{Tag: "caisp:eioc"})
		return err == nil && len(events) == 1
	})
	events, err := rig.service.Search(tip.SearchQuery{Tag: "caisp:eioc"})
	if err != nil || len(events) != 1 {
		t.Fatalf("eIoC search: %d, %v", len(events), err)
	}
	found := false
	for _, a := range events[0].Attributes {
		if strings.HasPrefix(a.Value, "threat-score:2.7407") {
			found = true
		}
	}
	if !found {
		t.Fatalf("threat-score attribute missing: %+v", events[0].Attributes)
	}

	// The write-back's own edit publication (an eIoC) must not loop back
	// into the analyzer.
	st := rig.worker.Stats()
	if st.Enriched != 1 || st.Failures != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWorkerSkipsNonCIoCs(t *testing.T) {
	rig := newRig(t)
	plain := misp.NewEvent("infrastructure data", evalTime)
	plain.AddAttribute("ip-dst", "Network activity", "10.0.0.14", evalTime)
	if _, err := rig.service.AddEvent(plain); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return rig.worker.Stats().Received >= 1 })
	st := rig.worker.Stats()
	if st.Skipped == 0 || st.Enriched != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWorkerIdempotentPerUUID(t *testing.T) {
	rig := newRig(t)
	cioc := strutsCIoC(t)
	if _, err := rig.service.AddEvent(cioc); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return rig.worker.Stats().Enriched == 1 })

	// The same revision again is skipped by the idempotency key.
	if res, err := rig.worker.analyzer.Analyze(cioc.Clone()); res.Outcome != Duplicate || err != nil {
		t.Fatalf("replayed revision: outcome %d, err %v", res.Outcome, err)
	}
	if st := rig.worker.Stats(); st.Enriched != 1 {
		t.Fatalf("duplicate enrichment: %+v", st)
	}
}

// TestScoreStoresNothing: Score turns a composed cluster into its eIoC in
// place and leaves storing it to the caller; it scores a revision even
// when seen before, and remembers it, so the revision's bus copy is a
// Duplicate to Analyze. A cluster of free-text members is Unscorable.
func TestScoreStoresNothing(t *testing.T) {
	collector, err := infra.NewCollector(infra.PaperInventory())
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewFake(evalTime)
	riocs := &riocCollector{}
	a := NewAnalyzer(heuristic.NewEngine(heuristic.WithInfrastructure(collector), heuristic.WithClock(clk)),
		collector, clk, riocs.add)

	me := strutsCIoC(t)
	for i := 0; i < 2; i++ {
		res, err := a.Score(me)
		if err != nil || res.Outcome != Enriched || res.Score != 2.7407 || len(res.SDOs) == 0 {
			t.Fatalf("score %d: %+v, %v", i, res, err)
		}
	}
	if !me.HasTag("caisp:eioc") || riocs.len() != 2 {
		t.Fatalf("eioc tag %v, %d rIoCs pushed, want the tag and one rIoC per Score", me.HasTag("caisp:eioc"), riocs.len())
	}
	if res, err := a.Analyze(me.Clone()); err != nil || res.Outcome != Duplicate {
		t.Fatalf("bus copy of a scored revision: %+v, %v", res, err)
	}

	e, err := normalize.New("opaque-token", normalize.CategoryMalwareDomain, "t", normalize.SourceOSINT, evalTime)
	if err != nil {
		t.Fatal(err)
	}
	text, err := correlate.ToMISP(&correlate.New().Correlate([]normalize.Event{e})[0], evalTime)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := a.Score(text); err != nil || res.Outcome != Unscorable || text.HasTag("caisp:eioc") {
		t.Fatalf("free-text cluster: %+v, %v", res, err)
	}
}

// TestWorkerRescoresGrownCluster: a grown revision of a scored cluster —
// same stable UUID, new content hash — arrives on the edit topic and is
// scored again, and the stored eIoC carries one base score, not two.
func TestWorkerRescoresGrownCluster(t *testing.T) {
	rig := newRig(t)
	corr := correlate.NewIncremental()
	revise := func(cve string) *misp.Event {
		e, err := normalize.New(cve, normalize.CategoryVulnExploit, "vuln-advisories", normalize.SourceOSINT,
			time.Date(2017, 9, 13, 0, 0, 0, 0, time.UTC))
		if err != nil {
			t.Fatal(err)
		}
		e.Context = map[string]string{
			"campaign":    "op-struts-wave",
			"products":    "apache struts,apache",
			"os":          "debian",
			"cvss-vector": "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H",
		}
		delta := corr.Add([]normalize.Event{e})
		ciocs := append(delta.New, delta.Updated...)
		if len(ciocs) != 1 {
			t.Fatalf("delta = %+v", delta)
		}
		me, err := correlate.ToMISP(&ciocs[0], evalTime)
		if err != nil {
			t.Fatal(err)
		}
		return me
	}

	first := revise("CVE-2017-9805")
	if _, err := rig.service.AddEvent(first); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return rig.worker.Stats().Enriched == 1 })

	grown := revise("CVE-2017-5638")
	if grown.UUID != first.UUID || correlate.ClusterContentOf(grown) == correlate.ClusterContentOf(first) {
		t.Fatalf("second revision %s/%s is not a grown %s", grown.UUID, correlate.ClusterContentOf(grown), first.UUID)
	}
	if _, err := rig.service.AddEvent(grown); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return rig.worker.Stats().Enriched == 2 })

	stored, err := rig.service.GetEvent(first.UUID)
	if err != nil {
		t.Fatal(err)
	}
	scores := 0
	for _, a := range stored.Attributes {
		if strings.HasPrefix(a.Value, heuristic.ScorePrefix) {
			scores++
		}
	}
	if scores != 1 || !stored.HasTag("caisp:eioc") || correlate.ClusterContentOf(stored) != correlate.ClusterContentOf(grown) {
		t.Fatalf("stored revision has %d score attributes (eioc tag %v): %+v",
			scores, stored.HasTag("caisp:eioc"), stored.Attributes)
	}
}

func TestNewValidation(t *testing.T) {
	collector, err := infra.NewCollector(infra.PaperInventory())
	if err != nil {
		t.Fatal(err)
	}
	client := tip.NewClient("http://127.0.0.1:1", "")
	if _, err := New(Config{TIP: client, Collector: collector}); err == nil {
		t.Fatal("missing bus address accepted")
	}
	if _, err := New(Config{BusAddr: "x", Collector: collector}); err == nil {
		t.Fatal("missing client accepted")
	}
	if _, err := New(Config{BusAddr: "x", TIP: client}); err == nil {
		t.Fatal("missing collector accepted")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Distributed deployment, the paper's actual architecture (§IV-A): the
// MISP-like TIP instance and the heuristic component run as separate
// services connected only by the REST API. The heuristic component follows
// the TIP's change log (GET /events/changes?wait=), where the paper
// subscribes to zeroMQ. An OSINT collector posts a cIoC to the TIP; the
// remote heuristic component scores it against its own inventory and
// writes the enriched IoC back.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"strings"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/correlate"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/tip"
	"github.com/caisplatform/caisp/internal/worker"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	evalTime := time.Date(2018, 6, 1, 12, 0, 0, 0, time.UTC)

	// --- Service 1: the TIP ("MISP instance") serving its change log. ---
	store, err := storage.Open("")
	if err != nil {
		return err
	}
	defer store.Close()
	service := tip.NewService(store, tip.WithName("misp-instance"))
	api := httptest.NewServer(tip.NewAPI(service, "shared-key"))
	defer api.Close()
	fmt.Printf("TIP:             %s (change log GET /events/changes)\n", api.URL)

	// --- Service 2: the heuristic component (separate process shape). ---
	collector, err := infra.NewCollector(infra.PaperInventory())
	if err != nil {
		return err
	}
	w, err := worker.New(worker.Config{
		TIP:       tip.NewClient(api.URL, "shared-key"),
		Collector: collector,
		RIoCSink: func(r heuristic.RIoC) {
			fmt.Printf("rIoC:            %s TS=%.4f (%s) → nodes %v\n",
				r.CVE, r.ThreatScore, r.Priority, r.NodeIDs)
		},
		Clock: clock.NewFake(evalTime),
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		w.Run(ctx)
	}()
	defer func() {
		cancel()
		<-workerDone
	}()
	fmt.Println("heuristic:       following the change log")

	// --- Service 3: an OSINT collector posting a cIoC over the API. -----
	event, err := normalize.New("CVE-2017-9805", normalize.CategoryVulnExploit,
		"vuln-advisories", normalize.SourceOSINT, time.Date(2017, 9, 13, 0, 0, 0, 0, time.UTC))
	if err != nil {
		return err
	}
	event.Context = map[string]string{
		"description": "Apache Struts REST plugin XStream RCE",
		"cvss-vector": "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H",
		"products":    "apache struts,apache",
		"os":          "debian",
		"published":   "2017-09-13",
		"references":  "https://capec.mitre.example/248,https://cve.mitre.example/CVE-2017-9805",
	}
	ciocs := correlate.New().Correlate([]normalize.Event{event})
	me, err := correlate.ToMISP(&ciocs[0], evalTime)
	if err != nil {
		return err
	}
	collectorClient := tip.NewClient(api.URL, "shared-key")
	if _, err := collectorClient.AddEvent(context.Background(), me); err != nil {
		return err
	}
	fmt.Println("collector:       cIoC posted to the TIP")

	// The enrichment happens asynchronously across the two services.
	waitUntil(func() bool { return w.Stats().Enriched == 1 })
	events, err := service.Search(tip.SearchQuery{Tag: "caisp:eioc"})
	if err != nil || len(events) != 1 {
		return fmt.Errorf("eIoC not stored: %v", err)
	}
	for _, a := range events[0].Attributes {
		if strings.HasPrefix(a.Value, heuristic.ScorePrefix) {
			fmt.Printf("TIP (enriched):  %s\n", a.Value)
		}
	}
	st := w.Stats()
	fmt.Printf("worker stats:    enriched=%d riocs=%d\n", st.Enriched, st.RIoCs)
	return nil
}

func waitUntil(cond func() bool) {
	for !cond() {
		time.Sleep(10 * time.Millisecond)
	}
}

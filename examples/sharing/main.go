// Information sharing between organizations (paper §III-C2 / §IV-A): a
// producing platform scores an IoC and stores the eIoC in its TIP; a
// partner TIP instance pulls it over the change feed with a one-peer
// federation mesh; a non-MISP consumer fetches the same intelligence as
// STIX 2.0 over TAXII.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"github.com/caisplatform/caisp"
	"github.com/caisplatform/caisp/internal/experiments"
	"github.com/caisplatform/caisp/internal/mesh"
	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/taxii"
	"github.com/caisplatform/caisp/internal/tip"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Producer: the full platform processes the RCE advisory and shares
	// the resulting eIoC.
	scenario, err := experiments.NewScenario()
	if err != nil {
		return err
	}
	defer scenario.Close()
	producer := scenario.Platform
	fmt.Printf("producer TIP stores %d events (%d eIoCs)\n",
		producer.TIP().Len(), producer.Stats().EIoCs)

	// --- MISP-style sharing: a partner TIP pulls over the REST API. ----
	producerAPI := httptest.NewServer(tip.NewAPI(producer.TIP(), "producer-key"))
	defer producerAPI.Close()

	partnerStore, err := storage.Open("")
	if err != nil {
		return err
	}
	defer partnerStore.Close()
	partner := tip.NewService(partnerStore, tip.WithName("partner"))
	pull, err := mesh.New(partner, []mesh.Peer{
		{Name: "producer", Remote: tip.NewClient(producerAPI.URL, "producer-key")},
	}, nil)
	if err != nil {
		return err
	}
	defer pull.Close()
	imported, err := pull.SyncOnce(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("partner TIP pulled %d events over the change feed\n", imported)

	eiocs, err := partner.Search(tip.SearchQuery{Tag: "caisp:eioc"})
	if err != nil {
		return err
	}
	for _, e := range eiocs {
		fmt.Printf("partner received eIoC %q (%d attributes)\n", e.Info, len(e.Attributes))
	}

	// --- STIX/TAXII sharing for non-MISP consumers. ---------------------
	taxiiServer := httptest.NewServer(producer.TAXII())
	defer taxiiServer.Close()
	consumer := taxii.NewClient(taxiiServer.URL, "")
	discovery, err := consumer.Discover()
	if err != nil {
		return err
	}
	fmt.Printf("\nTAXII discovery: %s (api roots %v)\n", discovery.Title, discovery.APIRoots)
	objs, err := consumer.AllObjects("caisp", "eiocs", time.Time{})
	if err != nil {
		return err
	}
	for _, obj := range objs {
		c := obj.GetCommon()
		score, _ := c.ExtraFloat("x_caisp_threat_score")
		fmt.Printf("consumer fetched %s  threat score %.4f\n", c.ID, score)
	}

	// The consumer re-scores against its own infrastructure context: a
	// Windows-only shop does not run Apache Struts, so the same
	// intelligence rates lower there (application: present 2 → absent 1).
	windowsShop := &caisp.Inventory{
		Nodes: []caisp.Node{
			{ID: "dc1", Name: "domain-controller", OS: "windows", Applications: []string{"windows", "active directory", "iis"}},
			{ID: "ws1", Name: "workstation", OS: "windows", Applications: []string{"windows", "office"}},
		},
	}
	for _, obj := range objs {
		if obj.GetCommon().Type != "vulnerability" {
			continue
		}
		res, err := caisp.Score(obj, windowsShop, experiments.EvalTime)
		if err != nil {
			continue
		}
		fmt.Printf("consumer re-scored %s against its windows-only inventory: TS=%.4f (%s)\n",
			obj.GetCommon().ID, res.Score, res.Priority())
	}
	return nil
}

package caisp_test

import (
	"fmt"
	"time"

	"github.com/caisplatform/caisp"
	"github.com/caisplatform/caisp/internal/stix"
)

// ExampleScore evaluates the paper's §IV use-case IoC against the Table III
// inventory at the paper's evaluation instant.
func ExampleScore() {
	created := time.Date(2017, 9, 13, 0, 0, 0, 0, time.UTC)
	vuln := stix.NewVulnerability(stix.NewID(stix.TypeVulnerability), "CVE-2017-9805",
		"Apache Struts REST plugin XStream RCE via crafted POST body", created)
	vuln.ExternalReferences = []stix.ExternalReference{
		{SourceName: "capec", ExternalID: "CAPEC-248"},
		{SourceName: "cve", ExternalID: "CVE-2017-9805"},
	}
	vuln.SetExtra("x_caisp_os", "debian")
	vuln.SetExtra("x_caisp_products", "apache struts,apache")
	vuln.SetExtra("x_caisp_cvss_vector", "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H")
	vuln.SetExtra("x_caisp_source_type", "osint")

	at := time.Date(2018, 6, 1, 12, 0, 0, 0, time.UTC)
	res, err := caisp.Score(vuln, caisp.PaperInventory(), at)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("TS = %.4f (Cp = %.4f, priority %s)\n", res.Score, res.Completeness, res.Priority())
	// Output: TS = 2.7407 (Cp = 0.8889, priority medium)
}

// ExampleInventory_Match demonstrates the §IV matching rule that decides
// which nodes a reduced IoC is associated with.
func ExampleInventory_Match() {
	inv := caisp.PaperInventory()

	specific := inv.Match([]string{"apache struts", "apache"})
	fmt.Println("apache struts →", specific.NodeIDs)

	common := inv.Match([]string{"linux"})
	fmt.Println("linux → all nodes:", common.AllNodes)

	none := inv.Match([]string{"windows", "iis"})
	fmt.Println("windows/iis matched:", none.Matched())
	// Output:
	// apache struts → [node4]
	// linux → all nodes: true
	// windows/iis matched: false
}

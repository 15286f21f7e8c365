package infra

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/stixpattern"
)

var now = time.Date(2019, 6, 24, 12, 0, 0, 0, time.UTC)

func TestPaperInventoryTableIII(t *testing.T) {
	inv := PaperInventory()
	if err := inv.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(inv.Nodes) != 4 {
		t.Fatalf("got %d nodes, want 4 (Table III)", len(inv.Nodes))
	}
	tests := []struct {
		id   string
		name string
		app  string
	}{
		{id: "node1", name: "OwnCloud", app: "owncloud"},
		{id: "node2", name: "GitLab", app: "gitlab"},
		{id: "node3", name: "XL-SIEM", app: "php"},
		{id: "node4", name: "XL-SIEM", app: "apache"},
	}
	for _, tt := range tests {
		n := inv.Node(tt.id)
		if n == nil {
			t.Fatalf("node %s missing", tt.id)
		}
		if n.Name != tt.name || !n.HasApplication(tt.app) {
			t.Errorf("node %s = %+v, want name %s with app %s", tt.id, n, tt.name, tt.app)
		}
	}
	if len(inv.CommonKeywords) != 1 || inv.CommonKeywords[0] != "linux" {
		t.Fatalf("common keywords = %v", inv.CommonKeywords)
	}
}

func TestMatchRuleFromSectionIV(t *testing.T) {
	inv := PaperInventory()
	tests := []struct {
		name      string
		terms     []string
		wantNodes []string
		wantAll   bool
	}{
		{
			name:      "apache struts matches node4 via apache",
			terms:     []string{"apache struts", "apache"},
			wantNodes: []string{"node4"},
		},
		{
			name:    "common keyword linux matches all nodes",
			terms:   []string{"linux"},
			wantAll: true,
		},
		{
			name:  "no match produces nothing",
			terms: []string{"windows", "iis"},
		},
		{
			name:      "os keyword matches",
			terms:     []string{"debian"},
			wantNodes: []string{"node4"},
		},
		{
			name:      "shared app matches several nodes",
			terms:     []string{"snort"},
			wantNodes: []string{"node1", "node2", "node3"},
		},
		{
			name:      "case insensitive",
			terms:     []string{"GitLab"},
			wantNodes: []string{"node2"},
		},
		{
			name:  "empty terms",
			terms: []string{"", "   "},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res := inv.Match(tt.terms)
			if res.AllNodes != tt.wantAll {
				t.Fatalf("AllNodes = %v, want %v", res.AllNodes, tt.wantAll)
			}
			if len(res.NodeIDs) != len(tt.wantNodes) {
				t.Fatalf("NodeIDs = %v, want %v", res.NodeIDs, tt.wantNodes)
			}
			for i := range tt.wantNodes {
				if res.NodeIDs[i] != tt.wantNodes[i] {
					t.Fatalf("NodeIDs = %v, want %v", res.NodeIDs, tt.wantNodes)
				}
			}
			if res.Matched() != (tt.wantAll || len(tt.wantNodes) > 0) {
				t.Fatal("Matched() inconsistent")
			}
		})
	}
}

func TestMatchResultNodes(t *testing.T) {
	inv := PaperInventory()
	all := inv.Match([]string{"linux"})
	got := all.Nodes(inv)
	if len(got) != 4 {
		t.Fatalf("all-nodes resolution = %v", got)
	}
	one := inv.Match([]string{"owncloud"})
	if got := one.Nodes(inv); len(got) != 1 || got[0] != "node1" {
		t.Fatalf("single resolution = %v", got)
	}
}

func TestInventoryValidation(t *testing.T) {
	bad := &Inventory{Nodes: []Node{{ID: "", Name: "x", Applications: []string{"a"}}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty id accepted")
	}
	dup := &Inventory{Nodes: []Node{
		{ID: "n", Applications: []string{"a"}},
		{ID: "n", Applications: []string{"b"}},
	}}
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate id accepted")
	}
	noApps := &Inventory{Nodes: []Node{{ID: "n"}}}
	if err := noApps.Validate(); err == nil {
		t.Fatal("empty applications accepted")
	}
}

func TestParseInventory(t *testing.T) {
	data, err := json.Marshal(PaperInventory())
	if err != nil {
		t.Fatal(err)
	}
	inv, err := ParseInventory(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(inv.Nodes) != 4 {
		t.Fatalf("round trip lost nodes: %d", len(inv.Nodes))
	}
	if _, err := ParseInventory([]byte(`{"nodes":[{"id":""}]}`)); err == nil {
		t.Fatal("invalid inventory accepted")
	}
	if _, err := ParseInventory([]byte(`garbage`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestLoadInventory: no path is the paper's inventory; a file is parsed
// and validated; a missing file is an error.
func TestLoadInventory(t *testing.T) {
	if inv, err := LoadInventory(""); err != nil || len(inv.Nodes) != len(PaperInventory().Nodes) {
		t.Fatalf("no path: %v, %v", inv, err)
	}
	path := filepath.Join(t.TempDir(), "inventory.json")
	if err := os.WriteFile(path, []byte(`{"nodes":[{"id":"n1","name":"web","applications":["nginx"]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if inv, err := LoadInventory(path); err != nil || len(inv.Nodes) != 1 || inv.Nodes[0].ID != "n1" {
		t.Fatalf("%s: %+v, %v", path, inv, err)
	}
	if _, err := LoadInventory(path + ".absent"); err == nil {
		t.Fatal("a missing inventory file loaded")
	}
}

func TestSeverityJSONRoundTrip(t *testing.T) {
	for _, s := range []Severity{SeverityLow, SeverityMedium, SeverityHigh} {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Severity
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != s {
			t.Fatalf("round trip %v -> %v", s, back)
		}
	}
	var s Severity
	if err := json.Unmarshal([]byte(`"high"`), &s); err != nil || s != SeverityHigh {
		t.Fatalf("severity word decode: %v %v", s, err)
	}
	if err := json.Unmarshal([]byte(`"purple"`), &s); err == nil {
		t.Fatal("unknown severity accepted")
	}
	if SeverityLow.String() != "green" || SeverityMedium.String() != "yellow" || SeverityHigh.String() != "red" {
		t.Fatal("severity colours wrong")
	}
}

func collector(t *testing.T) *Collector {
	t.Helper()
	c, err := NewCollector(PaperInventory())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAddAlarmValidation(t *testing.T) {
	c := collector(t)
	if _, err := c.AddAlarm(Alarm{NodeID: "ghost", Severity: SeverityLow, Description: "x"}); err == nil {
		t.Fatal("alarm for unknown node accepted")
	}
	if _, err := c.AddAlarm(Alarm{NodeID: "node1", Severity: 0, Description: "x"}); err == nil {
		t.Fatal("invalid severity accepted")
	}
	a, err := c.AddAlarm(Alarm{NodeID: "node1", Severity: SeverityHigh, Description: "port scan"})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == "" || a.At.IsZero() {
		t.Fatalf("defaults not applied: %+v", a)
	}
}

func TestAlarmQueries(t *testing.T) {
	c := collector(t)
	mustAlarm := func(nodeID string, sev Severity, app, desc string) {
		t.Helper()
		if _, err := c.AddAlarm(Alarm{NodeID: nodeID, Severity: sev, Application: app, Description: desc, At: now}); err != nil {
			t.Fatal(err)
		}
	}
	mustAlarm("node1", SeverityHigh, "owncloud", "brute force against owncloud login")
	mustAlarm("node1", SeverityLow, "", "ping sweep")
	mustAlarm("node4", SeverityMedium, "apache", "suspicious POST to apache struts endpoint")

	if got := len(c.Alarms()); got != 3 {
		t.Fatalf("Alarms = %d", got)
	}
	if got := len(c.AlarmsForNode("node1")); got != 2 {
		t.Fatalf("AlarmsForNode(node1) = %d", got)
	}
	if got := len(c.AlarmsForNode("node3")); got != 0 {
		t.Fatalf("AlarmsForNode(node3) = %d", got)
	}
	if got := c.AlarmsMatchingApplication("apache"); len(got) != 1 || got[0].NodeID != "node4" {
		t.Fatalf("AlarmsMatchingApplication(apache) = %+v", got)
	}
	if got := c.AlarmsMatchingApplication("struts"); len(got) != 1 {
		t.Fatalf("description match failed: %+v", got)
	}
	if got := c.AlarmsMatchingApplication(""); got != nil {
		t.Fatalf("empty keyword matched: %+v", got)
	}
	counts := c.SeverityCounts("node1")
	if counts[SeverityHigh] != 1 || counts[SeverityLow] != 1 || counts[SeverityMedium] != 0 {
		t.Fatalf("SeverityCounts = %+v", counts)
	}
}

func TestInternalIoCs(t *testing.T) {
	c := collector(t)
	e, err := c.AddInternalIoC("EVIL[.]example", normalize.CategoryMalwareDomain, "nids", now)
	if err != nil {
		t.Fatal(err)
	}
	if e.SourceType != normalize.SourceInfrastructure {
		t.Fatalf("source type = %q", e.SourceType)
	}
	if e.Value != "evil.example" {
		t.Fatalf("not normalized: %q", e.Value)
	}
	if !c.HasInternalSighting("evil.example") {
		t.Fatal("sighting not found")
	}
	if c.HasInternalSighting("other.example") {
		t.Fatal("phantom sighting")
	}
	if got := len(c.internal); got != 1 {
		t.Fatalf("recorded %d internal IoCs, want 1", got)
	}
	if _, err := c.AddInternalIoC("  ", normalize.CategoryUnknown, "nids", now); err == nil {
		t.Fatal("empty IoC accepted")
	}
}

// TestObservationsSnapshot: the snapshot is rebuilt after each alarm or
// internal IoC and shared until then, a snapshot handed out earlier is
// never changed by a later arrival, and readers racing writers (run
// under -race) always see a whole snapshot.
func TestObservationsSnapshot(t *testing.T) {
	c := collector(t)
	alarm := func(i int) Alarm {
		return Alarm{NodeID: "node3", Severity: SeverityLow, SrcIP: fmt.Sprintf("198.51.100.%d", 1+i%250), At: now}
	}
	empty := c.Observations()
	if len(empty) != 0 {
		t.Fatalf("empty collector: %d observations", len(empty))
	}
	if _, err := c.AddAlarm(alarm(0)); err != nil {
		t.Fatal(err)
	}
	first := c.Observations()
	if len(first) != 1 || &c.Observations()[0] != &first[0] {
		t.Fatalf("after one alarm: %d observations, or not shared", len(first))
	}
	if _, err := c.AddInternalIoC("203.0.113.7", normalize.CategoryScanner, "nids", now); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Observations()); got != 2 || len(first) != 1 || first[0].Fields["ipv4-addr:value"][0] != "198.51.100.1" {
		t.Fatalf("after an internal IoC: %d observations; the earlier snapshot reads %+v", got, first)
	}

	const writers, perWriter = 2, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := c.AddAlarm(alarm(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for i := 0; i < 2*perWriter; i++ {
				obs := c.Observations()
				if len(obs) < last {
					t.Errorf("snapshot shrank from %d to %d", last, len(obs))
					return
				}
				for _, o := range obs {
					if len(o.Fields["ipv4-addr:value"]) == 0 {
						t.Errorf("observation without a value: %+v", o)
						return
					}
				}
				last = len(obs)
			}
		}()
	}
	wg.Wait()
	if got, want := len(c.Observations()), 2+writers*perWriter; got != want {
		t.Fatalf("final snapshot holds %d observations, want %d", got, want)
	}
}

func TestObservationsMatchableByPatterns(t *testing.T) {
	c := collector(t)
	if _, err := c.AddInternalIoC("203.0.113.7", normalize.CategoryScanner, "nids", now); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddAlarm(Alarm{
		NodeID: "node3", Severity: SeverityHigh,
		SrcIP: "198.51.100.9", DstIP: "10.0.0.13",
		Description: "ssh brute force", At: now,
	}); err != nil {
		t.Fatal(err)
	}
	obs := c.Observations()
	if len(obs) != 2 {
		t.Fatalf("Observations = %d, want 2", len(obs))
	}
	p, err := stixpattern.Parse("[ipv4-addr:value = '198.51.100.9']")
	if err != nil {
		t.Fatal(err)
	}
	ok, err := p.Match(obs)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("alarm source IP not matchable")
	}
	p2, err := stixpattern.Parse("[ipv4-addr:value = '203.0.113.7']")
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := p2.Match(obs); !ok {
		t.Fatal("internal IoC not matchable")
	}
}

func TestApplicationKeywords(t *testing.T) {
	c := collector(t)
	keywords := c.ApplicationKeywords()
	joined := strings.Join(keywords, ",")
	for _, want := range []string{"apache", "owncloud", "gitlab", "php", "linux", "debian", "ubuntu"} {
		if !strings.Contains(joined, want) {
			t.Errorf("keyword %q missing from %v", want, keywords)
		}
	}
	// Sorted and unique.
	for i := 1; i < len(keywords); i++ {
		if keywords[i-1] >= keywords[i] {
			t.Fatalf("keywords not sorted/unique at %d: %v", i, keywords)
		}
	}
}

func TestNewCollectorValidation(t *testing.T) {
	if _, err := NewCollector(nil); err == nil {
		t.Fatal("nil inventory accepted")
	}
	if _, err := NewCollector(&Inventory{Nodes: []Node{{ID: ""}}}); err == nil {
		t.Fatal("invalid inventory accepted")
	}
}

// TestGenerationCountsChanges: every alarm and internal IoC the collector
// takes moves its generation; a refused one and every read leave it.
func TestGenerationCountsChanges(t *testing.T) {
	c, err := NewCollector(PaperInventory())
	if err != nil {
		t.Fatal(err)
	}
	if g := c.Generation(); g != 0 {
		t.Fatalf("fresh collector at generation %d", g)
	}
	if _, err := c.AddAlarm(Alarm{NodeID: "node1", Severity: SeverityLow, At: now}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddAlarm(Alarm{NodeID: "no-such-node", Severity: SeverityLow, At: now}); err == nil {
		t.Fatal("alarm on an unknown node accepted")
	}
	if _, err := c.AddInternalIoC("198.51.100.7", normalize.CategoryScanner, "ids", now); err != nil {
		t.Fatal(err)
	}
	c.Observations()
	c.HasInternalSighting("198.51.100.7")
	if g := c.Generation(); g != 2 {
		t.Fatalf("generation %d after one alarm and one internal IoC, want 2", g)
	}
}

// Package infra implements the Infrastructure Data Collector (paper
// §III-A2): the system inventory (nodes and their installed applications),
// alarms raised by monitoring devices, and internal indicators of
// compromise. The heuristic component contrasts OSINT IoCs against this
// data ("a system inventory containing the nodes and their installed
// applications is required to perform the match", §III-C1), and the
// matching rule of §IV applies: an application match associates the rIoC
// with specific nodes, a common-keyword match (e.g. "linux") with all
// nodes, no match suppresses the rIoC.
package infra

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// Node is one asset of the monitored infrastructure.
type Node struct {
	// ID is a short unique identifier ("node1").
	ID string `json:"id"`
	// Name is the human-readable asset name ("OwnCloud").
	Name string `json:"name"`
	// Type classifies the asset (e.g. "Server", "Workstation").
	Type string `json:"type,omitempty"`
	// OS is the operating system keyword ("ubuntu", "debian").
	OS string `json:"os,omitempty"`
	// IPs are the node's addresses.
	IPs []string `json:"ips,omitempty"`
	// Networks lists connected networks ("LAN", "WAN").
	Networks []string `json:"networks,omitempty"`
	// Applications are installed-application keywords, lower-case.
	Applications []string `json:"applications"`
}

// HasApplication reports whether the node lists the (case-insensitive)
// application keyword.
func (n *Node) HasApplication(app string) bool {
	app = strings.ToLower(strings.TrimSpace(app))
	for _, a := range n.Applications {
		if strings.ToLower(a) == app {
			return true
		}
	}
	return false
}

// Inventory is the set of monitored nodes plus keywords that apply to every
// node (paper Table III's "All Nodes: linux" row).
type Inventory struct {
	// Nodes are the monitored assets.
	Nodes []Node `json:"nodes"`
	// CommonKeywords match every node.
	CommonKeywords []string `json:"common_keywords,omitempty"`
}

// MatchResult reports how a set of search terms matched the inventory.
type MatchResult struct {
	// NodeIDs are the specific nodes whose applications matched.
	NodeIDs []string
	// AllNodes is true when a common keyword matched: the result applies
	// to the whole infrastructure.
	AllNodes bool
	// MatchedTerms are the terms that hit, lower-cased.
	MatchedTerms []string
}

// Matched reports whether anything matched at all.
func (m MatchResult) Matched() bool { return m.AllNodes || len(m.NodeIDs) > 0 }

// Nodes resolves the result to concrete node IDs against inv.
func (m MatchResult) Nodes(inv *Inventory) []string {
	if m.AllNodes {
		ids := make([]string, 0, len(inv.Nodes))
		for _, n := range inv.Nodes {
			ids = append(ids, n.ID)
		}
		sort.Strings(ids)
		return ids
	}
	out := make([]string, len(m.NodeIDs))
	copy(out, m.NodeIDs)
	sort.Strings(out)
	return out
}

// Match applies the paper's §IV matching rule to a set of terms (typically
// product names extracted from an IoC): terms matching node applications
// select those nodes; terms matching a common keyword select all nodes.
func (inv *Inventory) Match(terms []string) MatchResult {
	var res MatchResult
	nodeSet := make(map[string]bool)
	matched := make(map[string]bool)
	for _, raw := range terms {
		term := strings.ToLower(strings.TrimSpace(raw))
		if term == "" {
			continue
		}
		for _, common := range inv.CommonKeywords {
			if strings.ToLower(common) == term {
				res.AllNodes = true
				matched[term] = true
			}
		}
		for i := range inv.Nodes {
			if inv.Nodes[i].HasApplication(term) || strings.ToLower(inv.Nodes[i].OS) == term {
				nodeSet[inv.Nodes[i].ID] = true
				matched[term] = true
			}
		}
	}
	for id := range nodeSet {
		res.NodeIDs = append(res.NodeIDs, id)
	}
	sort.Strings(res.NodeIDs)
	for term := range matched {
		res.MatchedTerms = append(res.MatchedTerms, term)
	}
	sort.Strings(res.MatchedTerms)
	return res
}

// Node returns the node with the given ID, or nil.
func (inv *Inventory) Node(id string) *Node {
	for i := range inv.Nodes {
		if inv.Nodes[i].ID == id {
			return &inv.Nodes[i]
		}
	}
	return nil
}

// Validate checks inventory invariants.
func (inv *Inventory) Validate() error {
	seen := make(map[string]bool, len(inv.Nodes))
	for _, n := range inv.Nodes {
		if n.ID == "" {
			return fmt.Errorf("infra: node %q has empty id", n.Name)
		}
		if seen[n.ID] {
			return fmt.Errorf("infra: duplicate node id %q", n.ID)
		}
		seen[n.ID] = true
		if len(n.Applications) == 0 {
			return fmt.Errorf("infra: node %q lists no applications", n.ID)
		}
	}
	return nil
}

// ParseInventory decodes an inventory from JSON and validates it.
func ParseInventory(data []byte) (*Inventory, error) {
	var inv Inventory
	if err := json.Unmarshal(data, &inv); err != nil {
		return nil, fmt.Errorf("infra: decode inventory: %w", err)
	}
	if err := inv.Validate(); err != nil {
		return nil, err
	}
	return &inv, nil
}

// LoadInventory reads and validates the inventory JSON at path; an empty
// path is the paper's Table III inventory.
func LoadInventory(path string) (*Inventory, error) {
	if path == "" {
		return PaperInventory(), nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseInventory(raw)
}

// PaperInventory reproduces Table III of the paper: four nodes plus the
// common keyword "linux" that matches all nodes.
func PaperInventory() *Inventory {
	return &Inventory{
		Nodes: []Node{
			{
				ID: "node1", Name: "OwnCloud", Type: "Server", OS: "ubuntu",
				IPs: []string{"10.0.0.11"}, Networks: []string{"LAN"},
				Applications: []string{"ubuntu", "owncloud", "ossec", "snort", "suricata", "nids", "hids"},
			},
			{
				ID: "node2", Name: "GitLab", Type: "Server", OS: "ubuntu",
				IPs: []string{"10.0.0.12"}, Networks: []string{"LAN"},
				Applications: []string{"ubuntu", "gitlab", "ossec", "snort", "suricata", "nids", "hids"},
			},
			{
				ID: "node3", Name: "XL-SIEM", Type: "Server", OS: "ubuntu",
				IPs: []string{"10.0.0.13"}, Networks: []string{"LAN", "WAN"},
				Applications: []string{"ubuntu", "snort", "suricata", "nids", "php"},
			},
			{
				ID: "node4", Name: "XL-SIEM", Type: "Server", OS: "debian",
				IPs: []string{"10.0.0.14"}, Networks: []string{"LAN", "WAN"},
				Applications: []string{"debian", "apache", "apache storm", "apache zookeeper", "server"},
			},
		},
		CommonKeywords: []string{"linux"},
	}
}

// Severity bands an alarm. The dashboard renders them as green, yellow and
// red circles (paper §III-C1).
type Severity int

// Alarm severities.
const (
	SeverityLow Severity = iota + 1
	SeverityMedium
	SeverityHigh
)

// String returns the dashboard colour name of the severity.
func (s Severity) String() string {
	switch s {
	case SeverityLow:
		return "green"
	case SeverityMedium:
		return "yellow"
	case SeverityHigh:
		return "red"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// MarshalJSON encodes the severity as its colour name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts colour names and severity words.
func (s *Severity) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	switch strings.ToLower(name) {
	case "green", "low":
		*s = SeverityLow
	case "yellow", "medium":
		*s = SeverityMedium
	case "red", "high":
		*s = SeverityHigh
	default:
		return fmt.Errorf("infra: unknown severity %q", name)
	}
	return nil
}

// Alarm is one issue raised by the infrastructure's monitoring devices.
// "Alarms will indicate the number of issues, IP source and destination, as
// well as a brief description of the issue" (§III-C1).
type Alarm struct {
	ID          string    `json:"id"`
	NodeID      string    `json:"node_id"`
	Severity    Severity  `json:"severity"`
	SrcIP       string    `json:"src_ip,omitempty"`
	DstIP       string    `json:"dst_ip,omitempty"`
	Description string    `json:"description"`
	Application string    `json:"application,omitempty"`
	At          time.Time `json:"at"`
}

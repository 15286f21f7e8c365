package infra

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/stixpattern"
	"github.com/caisplatform/caisp/internal/uuid"
)

// Collector aggregates infrastructure-side threat data: the inventory,
// alarms and internal IoCs. Safe for concurrent use. The inventory is
// fixed at construction: nothing replaces or edits it afterwards, which
// is what lets the keyword vocabulary be derived once.
type Collector struct {
	inventory *Inventory
	keywords  []string // ApplicationKeywords, derived from inventory once

	mu       sync.RWMutex
	alarms   []Alarm
	internal []normalize.Event
	// observations is the Observations snapshot of alarms and internal;
	// nil until first asked for after either changes.
	observations []stixpattern.Observation
	// gen counts changes to alarms and internal.
	gen uint64
}

// NewCollector wraps an inventory. The collector takes the inventory as
// read-only from here on; callers must not modify it afterwards.
func NewCollector(inv *Inventory) (*Collector, error) {
	if inv == nil {
		return nil, fmt.Errorf("infra: nil inventory")
	}
	if err := inv.Validate(); err != nil {
		return nil, err
	}
	return &Collector{inventory: inv, keywords: applicationKeywords(inv)}, nil
}

// Inventory returns the wrapped inventory (treat as read-only).
func (c *Collector) Inventory() *Inventory { return c.inventory }

// AddAlarm records an alarm; the node must exist. An empty ID is assigned.
func (c *Collector) AddAlarm(a Alarm) (Alarm, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inventory.Node(a.NodeID) == nil {
		return Alarm{}, fmt.Errorf("infra: alarm references unknown node %q", a.NodeID)
	}
	if a.Severity < SeverityLow || a.Severity > SeverityHigh {
		return Alarm{}, fmt.Errorf("infra: alarm has invalid severity %d", a.Severity)
	}
	if a.ID == "" {
		a.ID = uuid.NewV4().String()
	}
	if a.At.IsZero() {
		a.At = time.Now().UTC()
	}
	c.alarms = append(c.alarms, a)
	c.observations = nil
	c.gen++
	return a, nil
}

// Generation counts the changes to the collector's alarms and internal
// IoCs. Everything the collector answers, save the fixed inventory, is
// the same between two reads of the same generation.
func (c *Collector) Generation() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.gen
}

// Alarms returns all alarms, newest last.
func (c *Collector) Alarms() []Alarm {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Alarm, len(c.alarms))
	copy(out, c.alarms)
	return out
}

// AlarmsForNode returns the node's alarms.
func (c *Collector) AlarmsForNode(nodeID string) []Alarm {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []Alarm
	for _, a := range c.alarms {
		if a.NodeID == nodeID {
			out = append(out, a)
		}
	}
	return out
}

// AlarmsMatchingApplication returns alarms whose application or description
// mentions the keyword — the vuln_app_in_alarm feature ("check if
// incidents/alarms are related to specific applications", Table IV).
func (c *Collector) AlarmsMatchingApplication(keyword string) []Alarm {
	keyword = strings.ToLower(strings.TrimSpace(keyword))
	if keyword == "" {
		return nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []Alarm
	for _, a := range c.alarms {
		if strings.Contains(strings.ToLower(a.Application), keyword) ||
			strings.Contains(strings.ToLower(a.Description), keyword) {
			out = append(out, a)
		}
	}
	return out
}

// SeverityCounts tallies a node's alarms per severity (the dashboard's
// circle indicator).
func (c *Collector) SeverityCounts(nodeID string) map[Severity]int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[Severity]int, 3)
	for _, a := range c.alarms {
		if a.NodeID == nodeID {
			out[a.Severity]++
		}
	}
	return out
}

// AddInternalIoC records an indicator produced inside the infrastructure
// (hashes, signatures, IPs, domains, URLs — §III-A2). The value is
// normalized; the event is tagged with SourceInfrastructure.
func (c *Collector) AddInternalIoC(value, category, source string, seen time.Time) (normalize.Event, error) {
	e, err := normalize.New(value, category, source, normalize.SourceInfrastructure, seen)
	if err != nil {
		return normalize.Event{}, err
	}
	c.mu.Lock()
	c.internal = append(c.internal, e)
	c.observations = nil
	c.gen++
	c.mu.Unlock()
	return e, nil
}

// HasInternalSighting reports whether the infrastructure itself has
// reported the given canonical indicator value (any category) — the
// source_diversity feature's "infrastructure_source" attribute.
func (c *Collector) HasInternalSighting(canonicalValue string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, e := range c.internal {
		if e.Value == canonicalValue {
			return true
		}
	}
	return false
}

// Observations renders internal IoCs and alarms as STIX pattern
// observations so indicator patterns can be matched against the
// infrastructure's own telemetry. The snapshot is built once per change
// to either and shared by every caller until the next: callers must not
// modify the slice or its field maps.
func (c *Collector) Observations() []stixpattern.Observation {
	c.mu.RLock()
	out := c.observations
	c.mu.RUnlock()
	if out != nil {
		return out
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.observations == nil {
		c.observations = c.renderObservations()
	}
	return c.observations
}

// renderObservations builds the Observations snapshot; c.mu must be held.
func (c *Collector) renderObservations() []stixpattern.Observation {
	out := make([]stixpattern.Observation, 0, len(c.internal)+len(c.alarms))
	for _, e := range c.internal {
		out = append(out, stixpattern.Observation{
			At:     e.LastSeen,
			Fields: e.ObservationFields(),
		})
	}
	for _, a := range c.alarms {
		fields := make(map[string][]string, 2)
		if a.SrcIP != "" {
			fields["ipv4-addr:value"] = append(fields["ipv4-addr:value"], a.SrcIP)
		}
		if a.DstIP != "" {
			fields["ipv4-addr:value"] = append(fields["ipv4-addr:value"], a.DstIP)
		}
		if len(fields) == 0 {
			continue
		}
		out = append(out, stixpattern.Observation{At: a.At, Fields: fields})
	}
	return out
}

// ApplicationKeywords returns the union of all inventory application
// keywords plus common keywords, lower-cased and sorted — the vocabulary
// the heuristic extracts product terms against. The slice is computed once
// at construction and shared: callers must not modify it.
func (c *Collector) ApplicationKeywords() []string { return c.keywords }

func applicationKeywords(inv *Inventory) []string {
	set := make(map[string]bool)
	for _, n := range inv.Nodes {
		for _, app := range n.Applications {
			set[strings.ToLower(app)] = true
		}
		if n.OS != "" {
			set[strings.ToLower(n.OS)] = true
		}
	}
	for _, k := range inv.CommonKeywords {
		set[strings.ToLower(k)] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

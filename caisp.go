// Package caisp is the public API of the Context-Aware OSINT Intelligence
// Sharing Platform, a complete reproduction of "Enhancing Information
// Sharing and Visualization Capabilities in Security Data Analytic
// Platforms" (DSN 2019).
//
// The platform collects Open Source Intelligence feeds, normalizes and
// deduplicates their records, aggregates and correlates them into composed
// IoCs (cIoCs), stores them in a MISP-format threat-intelligence platform,
// computes a context-aware Threat Score against the monitored
// infrastructure (enriched IoCs, eIoCs), and pushes reduced IoCs (rIoCs)
// to a live dashboard while sharing eIoCs over TAXII.
//
// Quick start:
//
//	p, err := caisp.New(caisp.Config{Feeds: myFeeds})
//	if err != nil { ... }
//	defer p.Close()
//	if err := p.RunBatch(ctx); err != nil { ... }
//	for _, r := range p.Dashboard().RIoCs() {
//		fmt.Println(r.CVE, r.ThreatScore)
//	}
//
// See the examples directory for runnable end-to-end programs.
package caisp

import (
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/core"
	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/feedgen"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/report"
	"github.com/caisplatform/caisp/internal/stix"
)

// Core platform types.
type (
	// Platform is a running Context-Aware OSINT Platform instance.
	Platform = core.Platform
	// Config parameterizes New.
	Config = core.Config
	// Stats counts pipeline activity.
	Stats = core.Stats
	// Feed couples a named OSINT source with its fetcher, parser and
	// schedule.
	Feed = feed.Feed
	// Inventory describes the monitored infrastructure.
	Inventory = infra.Inventory
	// Node is one monitored asset.
	Node = infra.Node
	// Alarm is one infrastructure monitoring alert.
	Alarm = infra.Alarm
	// RIoC is a reduced IoC as shown on the dashboard.
	RIoC = heuristic.RIoC
	// ThreatScore is the result of one heuristic evaluation.
	ThreatScore = heuristic.Result
)

// Alarm severities (dashboard colours green/yellow/red).
const (
	SeverityLow    = infra.SeverityLow
	SeverityMedium = infra.SeverityMedium
	SeverityHigh   = infra.SeverityHigh
)

// New assembles a platform. A nil Config.Inventory uses the paper's
// Table III inventory; an empty Config.DataDir keeps the event store in
// memory.
func New(cfg Config) (*Platform, error) { return core.New(cfg) }

// PaperInventory returns the paper's Table III infrastructure inventory.
func PaperInventory() *Inventory { return infra.PaperInventory() }

// SyntheticFeeds generates deterministic synthetic OSINT feeds (the
// offline substitute for live sources): six feeds in heterogeneous formats
// with the given per-feed record count and duplication/overlap rates.
func SyntheticFeeds(seed int64, items int, duplicationRate, overlapRate float64, interval time.Duration) ([]Feed, error) {
	gen := feedgen.New(feedgen.Config{
		Seed:            seed,
		Items:           items,
		DuplicationRate: duplicationRate,
		OverlapRate:     overlapRate,
		DefangRate:      0.3,
	})
	return gen.Feeds(interval)
}

// Score evaluates a single STIX object against the default heuristics and
// an optional infrastructure inventory (nil uses no infrastructure
// context), returning the threat-score breakdown.
func Score(obj stix.Object, inventory *Inventory, at time.Time) (*ThreatScore, error) {
	opts := []heuristic.Option{}
	if inventory != nil {
		collector, err := infra.NewCollector(inventory)
		if err != nil {
			return nil, err
		}
		opts = append(opts, heuristic.WithInfrastructure(collector))
	}
	if !at.IsZero() {
		opts = append(opts, heuristic.WithClock(clock.NewFake(at)))
	}
	return heuristic.NewEngine(opts...).Evaluate(obj)
}

// ParseBundle decodes a STIX 2.0 bundle.
func ParseBundle(data []byte) (*stix.Bundle, error) { return stix.ParseBundle(data) }

// Report is the analyst-facing situation summary.
type Report = report.Report

// BuildReport aggregates the platform's current state into a situation
// report; render it with Report.Markdown. topK bounds the rIoC list.
func BuildReport(p *Platform, topK int, at time.Time) *Report {
	return report.Build(p, topK, at)
}

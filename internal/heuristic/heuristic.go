// Package heuristic implements the paper's core contribution: the heuristic
// engine of the Operational Module (§III-B2). It evaluates a set of
// features per STIX Domain Object type and produces a Threat Score
//
//	TS = Cp × Σ Xi·Pi,   0 ≤ TS ≤ 5
//
// where Xi is the value of feature i (Table IV), Pi its weight and Cp the
// completeness (non-empty features over total features).
//
// Weights follow the paper's §IV-B construction: each feature carries
// expert points on four criteria — Relevance, Accuracy, Timeliness,
// Variety — and Pi is that feature's point total over the point total of
// all *evaluated* (non-empty) features: the paper discards the empty
// valid_until feature "from our analysis", computing the remaining eight
// Pi over 84 points, while completeness still counts it (Cp = 8/9).
// StaticScore reproduces the fixed-weight variant of Table I.
package heuristic

import (
	"fmt"
	"log/slog"
	"math"
	"sort"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/stix"
)

// MaxScore is the upper bound of feature values and threat scores.
const MaxScore = 5.0

// CriteriaPoints is the expert point assignment of one feature over the
// four weighting criteria of §III-B2b.
type CriteriaPoints struct {
	Relevance  int `json:"relevance"`
	Accuracy   int `json:"accuracy"`
	Timeliness int `json:"timeliness"`
	Variety    int `json:"variety"`
}

// Total sums the four criteria.
func (c CriteriaPoints) Total() int {
	return c.Relevance + c.Accuracy + c.Timeliness + c.Variety
}

// Context is everything an evaluator may consult.
type Context struct {
	// Now is the evaluation instant (timeliness buckets).
	Now time.Time
	// Infra is the infrastructure collector; nil means no infrastructure
	// knowledge (accuracy-style features then evaluate as empty or their
	// no-information attribute).
	Infra *infra.Collector
}

// Evaluator produces a feature value for one STIX object. present=false
// marks the feature empty: it contributes nothing and lowers completeness.
type Evaluator func(ctx *Context, obj stix.Object) (value float64, present bool)

// FeatureSpec declares one feature of a heuristic.
type FeatureSpec struct {
	// Name is the feature identifier used in Tables II/IV/V.
	Name string
	// Description documents what the feature measures.
	Description string
	// Points carries the expert criteria points; Pi derives from them.
	Points CriteriaPoints
	// Evaluate extracts the feature value.
	Evaluate Evaluator
}

// Heuristic is a named feature set for one SDO type (Table II row).
type Heuristic struct {
	// SDOType is the STIX object type the heuristic applies to.
	SDOType string
	// Features is the ordered feature list.
	Features []FeatureSpec
}

// FeatureResult is the evaluation of one feature.
type FeatureResult struct {
	Name    string         `json:"name"`
	Value   float64        `json:"value"`  // Xi
	Weight  float64        `json:"weight"` // Pi (0 when discarded as empty)
	Points  CriteriaPoints `json:"points"`
	Present bool           `json:"present"`
}

// Result is the full outcome of a threat-score evaluation.
type Result struct {
	// SDOType names the heuristic applied.
	SDOType string `json:"sdo_type"`
	// Features lists per-feature values and weights in heuristic order.
	Features []FeatureResult `json:"features"`
	// Completeness is Cp = present / total.
	Completeness float64 `json:"completeness"`
	// WeightedSum is Σ Xi·Pi over present features.
	WeightedSum float64 `json:"weighted_sum"`
	// Score is the final TS.
	Score float64 `json:"score"`
	// EvaluatedAt is the Context.Now used.
	EvaluatedAt time.Time `json:"evaluated_at"`
}

// PresentCount returns the number of non-empty features.
func (r *Result) PresentCount() int {
	n := 0
	for _, f := range r.Features {
		if f.Present {
			n++
		}
	}
	return n
}

// Priority buckets the score for analysts: low < 1.7, medium < 3.3,
// high ≥ 3.3 (even thirds of the 0–5 range).
func (r *Result) Priority() string {
	switch {
	case r.Score < MaxScore/3:
		return "low"
	case r.Score < 2*MaxScore/3:
		return "medium"
	default:
		return "high"
	}
}

// Engine evaluates STIX objects against a heuristic registry.
type Engine struct {
	registry map[string]*Heuristic
	infra    *infra.Collector
	clk      clock.Clock
	logger   *slog.Logger
	slowAt   time.Duration  // slow-op log threshold; 0 disables
	evalDur  *obs.Histogram // caisp_heuristic_eval_seconds; nil without WithMetrics
}

// Option configures an Engine.
type Option interface{ apply(*Engine) }

type infraOption struct{ c *infra.Collector }

func (o infraOption) apply(e *Engine) { e.infra = o.c }

// WithInfrastructure supplies the infrastructure collector used by
// accuracy-style features.
func WithInfrastructure(c *infra.Collector) Option { return infraOption{c: c} }

type clockOption struct{ clk clock.Clock }

func (o clockOption) apply(e *Engine) { e.clk = o.clk }

// WithClock sets the evaluation clock; a clock.Fake pins the instant for
// tests and experiment reproduction.
func WithClock(clk clock.Clock) Option { return clockOption{clk: clk} }

type loggerOption struct{ l *slog.Logger }

func (o loggerOption) apply(e *Engine) { e.logger = o.l }

// WithLogger sets the engine's logger (slow-op reports; see
// WithSlowThreshold). Nil restores the default logger.
func WithLogger(l *slog.Logger) Option { return loggerOption{l: l} }

type slowThresholdOption time.Duration

func (o slowThresholdOption) apply(e *Engine) { e.slowAt = time.Duration(o) }

// WithSlowThreshold logs a warning with the SDO type and object ID for
// every Evaluate call slower than d. Zero (the default) disables slow-op
// logging.
func WithSlowThreshold(d time.Duration) Option { return slowThresholdOption(d) }

type metricsOption struct{ reg *obs.Registry }

func (o metricsOption) apply(e *Engine) {
	if o.reg == nil {
		return
	}
	e.evalDur = o.reg.Histogram("caisp_heuristic_eval_seconds",
		"Threat-score evaluation latency per SDO.")
}

// WithMetrics registers the engine's caisp_heuristic_* families into reg
// (nil disables instrumentation).
func WithMetrics(reg *obs.Registry) Option { return metricsOption{reg: reg} }

// NewEngine builds an engine with the default registry (the six SDO
// heuristics of Table II).
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		registry: make(map[string]*Heuristic, 6),
		clk:      clock.Real(),
		logger:   slog.Default(),
	}
	for _, h := range DefaultHeuristics() {
		e.registry[h.SDOType] = h
	}
	for _, o := range opts {
		o.apply(e)
	}
	if e.logger == nil {
		e.logger = slog.Default()
	}
	return e
}

// SupportedTypes lists SDO types with a registered heuristic, sorted.
func (e *Engine) SupportedTypes() []string {
	out := make([]string, 0, len(e.registry))
	for typ := range e.registry {
		out = append(out, typ)
	}
	sort.Strings(out)
	return out
}

// Heuristic returns the registered heuristic for an SDO type, or nil.
func (e *Engine) Heuristic(sdoType string) *Heuristic {
	return e.registry[sdoType]
}

// Evaluate computes the threat score of a STIX object using the heuristic
// registered for its type.
func (e *Engine) Evaluate(obj stix.Object) (*Result, error) {
	common := obj.GetCommon()
	h, ok := e.registry[common.Type]
	if !ok {
		return nil, fmt.Errorf("heuristic: no heuristic registered for SDO type %q", common.Type)
	}
	var start time.Time
	if e.evalDur != nil || e.slowAt > 0 {
		start = time.Now()
	}
	ctx := &Context{Now: e.clk.Now().UTC(), Infra: e.infra}
	res := evaluate(h, ctx, obj)
	if !start.IsZero() {
		elapsed := time.Since(start)
		if e.evalDur != nil {
			e.evalDur.Observe(elapsed.Seconds())
		}
		if e.slowAt > 0 && elapsed > e.slowAt {
			e.logger.Warn("slow heuristic evaluation",
				"stage", "analyze", "sdo_type", common.Type, "id", common.ID,
				"elapsed_ms", float64(elapsed)/float64(time.Millisecond),
				"threshold_ms", float64(e.slowAt)/float64(time.Millisecond))
		}
	}
	return res, nil
}

// evaluate runs every feature, derives Pi over the present features'
// points, and assembles the score.
func evaluate(h *Heuristic, ctx *Context, obj stix.Object) *Result {
	res := &Result{
		SDOType:     h.SDOType,
		Features:    make([]FeatureResult, 0, len(h.Features)),
		EvaluatedAt: ctx.Now,
	}
	presentPoints := 0
	for _, spec := range h.Features {
		value, present := spec.Evaluate(ctx, obj)
		if value < 0 {
			value = 0
		}
		if value > MaxScore {
			value = MaxScore
		}
		res.Features = append(res.Features, FeatureResult{
			Name:    spec.Name,
			Value:   value,
			Points:  spec.Points,
			Present: present,
		})
		if present {
			presentPoints += spec.Points.Total()
		}
	}
	total := len(h.Features)
	if total == 0 {
		return res
	}
	present := res.PresentCount()
	res.Completeness = float64(present) / float64(total)
	if presentPoints == 0 {
		return res
	}
	for i := range res.Features {
		f := &res.Features[i]
		if !f.Present {
			continue
		}
		f.Weight = float64(f.Points.Total()) / float64(presentPoints)
		res.WeightedSum += f.Value * f.Weight
	}
	res.Score = roundTo(res.Completeness*res.WeightedSum, 4)
	return res
}

// StaticScore reproduces the Table I computation: fixed weights, features
// with value zero counted as empty for completeness but keeping their
// weight in the sum (their contribution is zero anyway).
func StaticScore(values, weights []float64) (float64, error) {
	if len(values) != len(weights) {
		return 0, fmt.Errorf("heuristic: %d values vs %d weights", len(values), len(weights))
	}
	if len(values) == 0 {
		return 0, fmt.Errorf("heuristic: empty feature vector")
	}
	var sum float64
	present := 0
	for i, v := range values {
		if v < 0 || v > MaxScore {
			return 0, fmt.Errorf("heuristic: feature value %g out of [0, %g]", v, MaxScore)
		}
		if weights[i] < 0 {
			return 0, fmt.Errorf("heuristic: negative weight %g", weights[i])
		}
		if v > 0 {
			present++
		}
		sum += v * weights[i]
	}
	cp := float64(present) / float64(len(values))
	return roundTo(cp*sum, 4), nil
}

func roundTo(v float64, decimals int) float64 {
	scale := math.Pow(10, float64(decimals))
	return math.Round(v*scale) / scale
}

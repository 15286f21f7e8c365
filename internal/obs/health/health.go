// Package health is the cluster-facing answer to "is this node alive,
// and is it ready to serve?" — a registry of named component checks
// (WAL writable, compaction backlog, mesh peer staleness, lifecycle
// scheduler liveness, hub saturation) aggregated into the /healthz and
// /readyz probes every daemon mounts and into the machine-readable
// verdict GET /cluster/status embeds. Checks are plain funcs evaluated
// on demand, so a probe always reflects the current state rather than a
// background snapshot.
package health

import (
	"net/http"
	"sync"

	"github.com/caisplatform/caisp/internal/obs"
)

// Status is one check's (or the whole node's) verdict, ordered by
// severity so aggregation is a max.
type Status int

const (
	// OK: the component is fully operational.
	OK Status = iota
	// Degraded: the component works but something needs attention (a
	// stale peer, a growing backlog). The node stays live but reports
	// not-ready, so orchestrators stop routing new work to it.
	Degraded
	// Down: the component is broken (WAL not writable). Liveness fails.
	Down
)

// String renders the status the way probes and metrics label it.
func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Degraded:
		return "degraded"
	default:
		return "down"
	}
}

// Result is one check evaluation: the verdict plus a human-readable
// reason (empty when OK).
type Result struct {
	Status Status
	Detail string
}

// Pass is the all-clear result.
func Pass() Result { return Result{Status: OK} }

// Degradedf flags a component as needing attention.
func Degradedf(detail string) Result { return Result{Status: Degraded, Detail: detail} }

// Downf flags a component as broken.
func Downf(detail string) Result { return Result{Status: Down, Detail: detail} }

// Check evaluates one component. Checks must be safe for concurrent
// calls and cheap enough to run on every probe.
type Check func() Result

// CheckResult is one named check's verdict in a Report.
type CheckResult struct {
	Name   string `json:"name"`
	Status string `json:"status"`
	Detail string `json:"detail,omitempty"`
}

// Report is a full evaluation: the aggregate verdict (max severity
// across checks) plus every check's individual result, in registration
// order — the machine-readable degraded-reasons payload /readyz serves.
type Report struct {
	Status string        `json:"status"`
	Checks []CheckResult `json:"checks"`
}

// Registry holds a node's named checks. The zero value is not usable;
// construct with New.
type Registry struct {
	mu     sync.Mutex
	names  []string
	checks map[string]Check

	perCheck *obs.GaugeVec // caisp_health_check_status{check}
}

// New builds a check registry. When reg is non-nil, the registry
// registers caisp_health_status (aggregate verdict, evaluated at scrape
// time) and caisp_health_check_status{check} (per-check verdict,
// refreshed by every evaluation). Values encode OK=0, Degraded=1,
// Down=2.
func New(reg *obs.Registry) *Registry {
	r := &Registry{checks: make(map[string]Check)}
	if reg != nil {
		r.perCheck = reg.GaugeVec("caisp_health_check_status",
			"Per-component health verdict: 0 ok, 1 degraded, 2 down.", "check")
		reg.GaugeFunc("caisp_health_status",
			"Aggregate node health verdict: 0 ok, 1 degraded, 2 down.",
			func() float64 { return float64(r.eval().status()) })
	}
	return r
}

// Register adds (or replaces) a named check. Registration order is the
// report order.
func (r *Registry) Register(name string, c Check) {
	if r == nil || name == "" || c == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.checks[name]; !ok {
		r.names = append(r.names, name)
	}
	r.checks[name] = c
}

// evaluated is an internal evaluation result keeping the numeric
// verdicts alongside the wire report.
type evaluated struct {
	report Report
	worst  Status
}

func (e evaluated) status() Status { return e.worst }

// eval runs every check outside the registry lock (a check may itself
// take locks or do I/O) and refreshes the per-check gauge family.
func (r *Registry) eval() evaluated {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	checks := make([]Check, len(names))
	for i, n := range names {
		checks[i] = r.checks[n]
	}
	r.mu.Unlock()

	out := evaluated{report: Report{Checks: make([]CheckResult, 0, len(names))}}
	for i, c := range checks {
		res := c()
		if res.Status > out.worst {
			out.worst = res.Status
		}
		out.report.Checks = append(out.report.Checks, CheckResult{
			Name:   names[i],
			Status: res.Status.String(),
			Detail: res.Detail,
		})
		if r.perCheck != nil {
			r.perCheck.With(names[i]).Set(float64(res.Status))
		}
	}
	out.report.Status = out.worst.String()
	return out
}

// Evaluate runs every registered check and returns the aggregate
// report. Nil-safe: a nil registry reports OK with no checks.
func (r *Registry) Evaluate() Report {
	if r == nil {
		return Report{Status: OK.String(), Checks: []CheckResult{}}
	}
	return r.eval().report
}

// Liveness is the GET /healthz handler: 200 while the node is live
// (every check OK or merely Degraded), 503 with the full report once
// any check is Down. Orchestrators restart on liveness failure, so only
// broken-beyond-serving components (an unwritable WAL) may fail it.
func (r *Registry) Liveness() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		ev := r.safeEval()
		if ev.status() >= Down {
			obs.WriteJSON(w, http.StatusServiceUnavailable, ev.report)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
}

// Readiness is the GET /readyz handler: 200 with the report while every
// check passes, 503 with the machine-readable degraded reasons once any
// check is Degraded or Down. Load balancers drain on readiness failure
// while the node keeps serving its backlog.
func (r *Registry) Readiness() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		ev := r.safeEval()
		code := http.StatusOK
		if ev.status() >= Degraded {
			code = http.StatusServiceUnavailable
		}
		obs.WriteJSON(w, code, ev.report)
	})
}

// safeEval is eval with nil-receiver tolerance for handler closures.
func (r *Registry) safeEval() evaluated {
	if r == nil {
		return evaluated{report: Report{Status: OK.String(), Checks: []CheckResult{}}}
	}
	return r.eval()
}

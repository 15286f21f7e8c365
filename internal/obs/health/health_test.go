package health

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/obs"
)

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.String()
}

func TestDirWritableTransitions(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	check := DirWritable(dir)
	if res := check(); res.Status != OK {
		t.Fatalf("writable dir = %+v", res)
	}
	// The probe file must not linger between evaluations.
	if _, err := os.Stat(filepath.Join(dir, probeFile)); !os.IsNotExist(err) {
		t.Fatalf("probe file left behind: %v", err)
	}

	// The injected failure: the WAL directory vanishes out from under
	// the store. (chmod is useless under root, removal is not.)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	res := check()
	if res.Status != Down {
		t.Fatalf("removed dir = %+v, want Down", res)
	}
	if !strings.Contains(res.Detail, "not writable") {
		t.Fatalf("detail = %q", res.Detail)
	}

	// Recovery: recreate the directory, the same check passes again.
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if res := check(); res.Status != OK {
		t.Fatalf("recovered dir = %+v", res)
	}

	// Memory-only stores (empty dir) always pass.
	if res := DirWritable("")(); res.Status != OK {
		t.Fatalf("empty dir = %+v", res)
	}
}

func TestProgressStalledClock(t *testing.T) {
	var counter int64
	clk := clock.NewFake(time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC))
	check := Progress(func() int64 { return counter }, time.Minute, clk)

	// First evaluation establishes the baseline — a fresh boot passes.
	if res := check(); res.Status != OK {
		t.Fatalf("baseline = %+v", res)
	}
	// Still inside the window: no progress required yet.
	clk.Advance(30 * time.Second)
	if res := check(); res.Status != OK {
		t.Fatalf("inside window = %+v", res)
	}
	// Stalled past the window: degraded, with the stuck value named.
	clk.Advance(2 * time.Minute)
	res := check()
	if res.Status != Degraded {
		t.Fatalf("stalled = %+v, want Degraded", res)
	}
	if !strings.Contains(res.Detail, "no progress") || !strings.Contains(res.Detail, "stuck at 0") {
		t.Fatalf("detail = %q", res.Detail)
	}
	// The counter moves: recovery is immediate even after a long stall.
	counter = 5
	if res := check(); res.Status != OK {
		t.Fatalf("advanced = %+v", res)
	}
	// And the stall timer restarts from the advance, not from boot.
	clk.Advance(59 * time.Second)
	if res := check(); res.Status != OK {
		t.Fatalf("restarted window = %+v", res)
	}
	clk.Advance(2 * time.Second)
	if res := check(); res.Status != Degraded {
		t.Fatalf("second stall = %+v, want Degraded", res)
	}
}

func TestMaxThreshold(t *testing.T) {
	v := 0.5
	check := Max("hub fill", func() float64 { return v }, 0.9)
	if res := check(); res.Status != OK {
		t.Fatalf("under limit = %+v", res)
	}
	v = 0.9 // at the limit is still fine; only exceeding degrades
	if res := check(); res.Status != OK {
		t.Fatalf("at limit = %+v", res)
	}
	v = 0.95
	res := check()
	if res.Status != Degraded {
		t.Fatalf("over limit = %+v, want Degraded", res)
	}
	if !strings.Contains(res.Detail, "hub fill") || !strings.Contains(res.Detail, "0.9") {
		t.Fatalf("detail = %q", res.Detail)
	}
}

func TestRegistryAggregationAndProbes(t *testing.T) {
	reg := obs.NewRegistry()
	r := New(reg)

	status := map[string]Result{
		"wal_writable": Pass(),
		"mesh_peers":   Pass(),
	}
	// Registration order is report order; register out of alphabetical
	// order to prove it.
	r.Register("wal_writable", func() Result { return status["wal_writable"] })
	r.Register("mesh_peers", func() Result { return status["mesh_peers"] })

	// All green: /healthz 200 plain, /readyz 200 with the full report.
	if code, body := get(t, r.Liveness(), "/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q", code, body)
	}
	code, body := get(t, r.Readiness(), "/readyz")
	if code != http.StatusOK {
		t.Fatalf("readyz = %d", code)
	}
	var rep Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != "ok" || len(rep.Checks) != 2 ||
		rep.Checks[0].Name != "wal_writable" || rep.Checks[1].Name != "mesh_peers" {
		t.Fatalf("report = %+v", rep)
	}

	// One degraded check: still live, no longer ready, reason named.
	status["mesh_peers"] = Degradedf("replication stale: peerX 120s behind")
	if code, _ := get(t, r.Liveness(), "/healthz"); code != http.StatusOK {
		t.Fatalf("degraded liveness = %d, want 200", code)
	}
	code, body = get(t, r.Readiness(), "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded readyz = %d, want 503", code)
	}
	if !strings.Contains(body, `"status":"degraded"`) || !strings.Contains(body, "peerX") {
		t.Fatalf("degraded report = %s", body)
	}

	// A down check fails both probes.
	status["wal_writable"] = Downf("data dir not writable: gone")
	if code, body := get(t, r.Liveness(), "/healthz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "not writable") {
		t.Fatalf("down liveness = %d %q", code, body)
	}
	if code, _ := get(t, r.Readiness(), "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("down readyz = %d", code)
	}
	if rep := r.Evaluate(); rep.Status != "down" {
		t.Fatalf("aggregate = %q, want down (max severity)", rep.Status)
	}

	// The verdicts land on the metrics surface too.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"caisp_health_status 2\n",
		`caisp_health_check_status{check="wal_writable"} 2`,
		`caisp_health_check_status{check="mesh_peers"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryNilAndReplace(t *testing.T) {
	var r *Registry
	if rep := r.Evaluate(); rep.Status != "ok" || len(rep.Checks) != 0 {
		t.Fatalf("nil registry report = %+v", rep)
	}
	if code, _ := get(t, r.Liveness(), "/healthz"); code != http.StatusOK {
		t.Fatal("nil registry liveness not 200")
	}
	if code, _ := get(t, r.Readiness(), "/readyz"); code != http.StatusOK {
		t.Fatal("nil registry readiness not 200")
	}
	r.Register("x", func() Result { return Pass() }) // no-op, no panic

	// Re-registering a name replaces the check without duplicating the
	// report entry.
	live := New(nil)
	live.Register("c", func() Result { return Pass() })
	live.Register("c", func() Result { return Degradedf("v2") })
	live.Register("", func() Result { return Pass() }) // ignored
	live.Register("n", nil)                            // ignored
	rep := live.Evaluate()
	if len(rep.Checks) != 1 || rep.Checks[0].Detail != "v2" {
		t.Fatalf("replaced report = %+v", rep)
	}
}

func TestStatusHandler(t *testing.T) {
	r := New(nil)
	r.Register("ok", func() Result { return Pass() })
	h := StatusHandler(func() NodeStatus {
		return NodeStatus{Node: "n1", Role: "tipd", Events: 3, StoreSeq: 9,
			Peers:  []PeerInfo{{Name: "n2", LagSeconds: 0.5}},
			Health: r.Evaluate()}
	})
	code, body := get(t, h, "/cluster/status")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var st NodeStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Node != "n1" || st.Role != "tipd" || st.Events != 3 || st.StoreSeq != 9 ||
		len(st.Peers) != 1 || st.Peers[0].Name != "n2" || st.Health.Status != "ok" {
		t.Fatalf("round-trip = %+v", st)
	}
}

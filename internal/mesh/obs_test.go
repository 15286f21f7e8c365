package mesh

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/obs/health"
	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/tip"
)

// obsNode is one in-process TIP instance with the full observability
// sidecar: named service, provenance table, tracer and registry — the
// wiring tipd does at boot.
type obsNode struct {
	name   string
	svc    *tip.Service
	prov   *obs.ProvTable
	tracer *obs.Tracer
	reg    *obs.Registry
}

func newObsNode(t *testing.T, name string) *obsNode {
	t.Helper()
	store, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	reg := obs.NewRegistry()
	prov := obs.NewProvTable(0)
	return &obsNode{
		name:   name,
		svc:    tip.NewService(store, tip.WithName(name), tip.WithProvenance(prov)),
		prov:   prov,
		tracer: obs.NewTracer(reg),
		reg:    reg,
	}
}

// pullFrom builds n's engine pulling from upstream.
func pullFrom(t *testing.T, n, upstream *obsNode) *Engine {
	t.Helper()
	e, err := New(n.svc,
		[]Peer{{Name: upstream.name, Remote: svcRemote{upstream.svc}}},
		nil,
		WithMetrics(n.reg),
		WithProvenance(n.name, n.prov),
		WithTracer(n.tracer))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestProvenancePropagatesAcrossHops(t *testing.T) {
	// A three-node chain a <- b <- c: b pulls a, c pulls b. The terminal
	// node must see origin=a with both intermediate hops in pull order —
	// the cross-node trace the issue's acceptance demo checks over HTTP.
	a, b, c := newObsNode(t, "a"), newObsNode(t, "b"), newObsNode(t, "c")
	events := sampleEvents(t, 3)
	if _, err := a.svc.AddEvents(events); err != nil {
		t.Fatal(err)
	}

	eb := pullFrom(t, b, a)
	ec := pullFrom(t, c, b)
	syncAll(t, eb, ec)
	if b.svc.Len() != 3 || c.svc.Len() != 3 {
		t.Fatalf("no convergence: b=%d c=%d", b.svc.Len(), c.svc.Len())
	}

	uuid := events[0].UUID
	// Origin's own table: self-origin, no hops, seq filled at serve time.
	if p := a.prov.Lookup(uuid); p == nil || p.Origin != "a" || len(p.Hops) != 0 {
		t.Fatalf("origin provenance = %+v", p)
	}
	// One hop in on b.
	pb := b.prov.Lookup(uuid)
	if pb == nil || pb.Origin != "a" || len(pb.Hops) != 1 || pb.Hops[0].Node != "b" {
		t.Fatalf("b provenance = %+v", pb)
	}
	if pb.OriginSeq == 0 {
		t.Fatal("origin seq not filled at serve time")
	}
	if pb.IngestUnixNano == 0 {
		t.Fatal("origin ingest time lost in transit")
	}
	// Terminal node: full two-hop path, monotonic pull times.
	pc := c.prov.Lookup(uuid)
	if pc == nil || pc.Origin != "a" || len(pc.Hops) != 2 ||
		pc.Hops[0].Node != "b" || pc.Hops[1].Node != "c" {
		t.Fatalf("terminal provenance = %+v", pc)
	}
	if pc.Hops[1].PulledUnixNano < pc.Hops[0].PulledUnixNano {
		t.Fatalf("hop times not monotonic: %+v", pc.Hops)
	}
	if pc.OriginSeq != pb.OriginSeq {
		t.Fatalf("origin seq changed in transit: b=%d c=%d", pb.OriginSeq, pc.OriginSeq)
	}

	// The tracer on the terminal node retained the import traces...
	found := false
	for _, rec := range c.tracer.Imports() {
		if rec.ID == uuid {
			found = true
			if rec.Origin != "a" || len(rec.Hops) != 2 || rec.Hops[1].MS < 0 {
				t.Fatalf("import trace = %+v", rec)
			}
		}
	}
	if !found {
		t.Fatalf("no import trace for %s on terminal node", uuid)
	}

	// ...and the latency histograms saw every import.
	var sb strings.Builder
	if err := c.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`caisp_mesh_hop_latency_seconds_count{peer="b"} 3`,
		"caisp_mesh_replication_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

// toggleRemote serves the upstream service until failing is set, then
// errors every pull — a peer that died mid-conversation.
type toggleRemote struct {
	svc     *tip.Service
	failing *atomic.Bool
}

var errPeerDown = errors.New("connection refused")

func (r toggleRemote) Changes(_ context.Context, afterSeq uint64, limit int) ([]storage.Change, uint64, bool, error) {
	if r.failing.Load() {
		return nil, 0, false, errPeerDown
	}
	return r.svc.Changes(afterSeq, limit)
}

func TestPeerFailureLagAndHealth(t *testing.T) {
	local, upstream := newObsNode(t, "local"), newObsNode(t, "up")
	if _, err := upstream.svc.AddEvents(sampleEvents(t, 2)); err != nil {
		t.Fatal(err)
	}
	var failing atomic.Bool
	e, err := New(local.svc,
		[]Peer{{Name: "up", Remote: toggleRemote{svc: upstream.svc, failing: &failing}}},
		nil, WithMetrics(local.reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)

	// Healthy round: last success stamped, no failures, check passes.
	if _, err := e.SyncOnce(t.Context()); err != nil {
		t.Fatal(err)
	}
	st := e.PeerInfos()
	if len(st) != 1 || st[0].Failures != 0 || st[0].LastSuccessUnix == 0 || st[0].LastError != "" {
		t.Fatalf("healthy status = %+v", st)
	}
	check := PeersCheck(e, time.Millisecond)
	if res := check(); res.Status != health.OK {
		t.Fatalf("healthy check = %+v", res)
	}

	// The peer dies: failures accumulate, the lag gauge grows as
	// seconds-since-last-success instead of freezing, and the health
	// check degrades once the last success ages past staleAfter.
	failing.Store(true)
	time.Sleep(5 * time.Millisecond)
	if _, err := e.SyncOnce(t.Context()); err == nil {
		t.Fatal("sync against dead peer succeeded")
	}
	st = e.PeerInfos()
	if st[0].Failures != 1 || !strings.Contains(st[0].LastError, "connection refused") {
		t.Fatalf("failing status = %+v", st)
	}
	firstLag := st[0].LagSeconds
	if firstLag <= 0 {
		t.Fatalf("lag frozen at %g after failure", firstLag)
	}
	time.Sleep(5 * time.Millisecond)
	if _, err := e.SyncOnce(t.Context()); err == nil {
		t.Fatal("second sync against dead peer succeeded")
	}
	st = e.PeerInfos()
	if st[0].Failures != 2 || st[0].LagSeconds <= firstLag {
		t.Fatalf("lag not growing: %+v (was %g)", st[0], firstLag)
	}
	res := check()
	if res.Status != health.Degraded {
		t.Fatalf("stale check = %+v, want Degraded", res)
	}
	if !strings.Contains(res.Detail, "up") {
		t.Fatalf("degraded reason does not name the peer: %q", res.Detail)
	}

	// The last-success watermark is on the metrics surface for alerting.
	var sb strings.Builder
	if err := local.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `caisp_mesh_last_success_unix_seconds{peer="up"}`) {
		t.Fatalf("last-success gauge missing:\n%s", sb.String())
	}

	// Recovery: one drained round clears failures and the stale verdict.
	failing.Store(false)
	if _, err := e.SyncOnce(t.Context()); err != nil {
		t.Fatal(err)
	}
	st = e.PeerInfos()
	if st[0].Failures != 0 || st[0].LastError != "" {
		t.Fatalf("recovered status = %+v", st)
	}
	if res := check(); res.Status != health.OK {
		t.Fatalf("recovered check = %+v", res)
	}
}

func TestPeersCheckNeverSyncedPeer(t *testing.T) {
	local := newObsNode(t, "local")
	var failing atomic.Bool
	failing.Store(true)
	e, err := New(local.svc,
		[]Peer{{Name: "ghost", Remote: toggleRemote{svc: local.svc, failing: &failing}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	check := PeersCheck(e, time.Minute)

	// Early boot failures do not flap readiness...
	for i := 0; i < 2; i++ {
		_, _ = e.SyncOnce(t.Context())
	}
	if res := check(); res.Status != health.OK {
		t.Fatalf("early boot check = %+v", res)
	}
	// ...but a peer that keeps failing with no drained round ever is
	// reported once failures accumulate.
	_, _ = e.SyncOnce(t.Context())
	res := check()
	if res.Status != health.Degraded || !strings.Contains(res.Detail, "ghost") {
		t.Fatalf("never-synced check = %+v", res)
	}
}

func TestPeerInfosProjection(t *testing.T) {
	local, upstream := newObsNode(t, "local"), newObsNode(t, "up")
	if _, err := upstream.svc.AddEvents(sampleEvents(t, 1)); err != nil {
		t.Fatal(err)
	}
	e, err := New(local.svc,
		[]Peer{{Name: "up", Remote: svcRemote{upstream.svc}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	infos := e.PeerInfos()
	if len(infos) != 1 || infos[0].LastSuccessUnix != 0 {
		t.Fatalf("pre-sync infos = %+v", infos)
	}
	if _, err := e.SyncOnce(t.Context()); err != nil {
		t.Fatal(err)
	}
	infos = e.PeerInfos()
	if infos[0].Name != "up" || infos[0].LastSuccessUnix == 0 || infos[0].Cursor == 0 {
		t.Fatalf("post-sync infos = %+v", infos)
	}
}

// series parses reg's exposition into sample (name and labels) → value.
func series(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatal(err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestTotalsAndGaugesReadPeerState: one SyncOnce round meeting an echo, a
// local-wins and a remote-wins conflict, a replicated delete, a fresh
// import and a failing peer. Totals equals the sums of the {peer}
// counters, the lag, backoff and last-success gauges equal PeerInfos,
// and every {peer} family carries exactly the configured peers.
func TestTotalsAndGaugesReadPeerState(t *testing.T) {
	local, up := newObsNode(t, "local"), newObsNode(t, "up")
	evs := sampleEvents(t, 5)
	echo, localWins, remoteWins, gone, fresh := evs[0], evs[1], evs[2], evs[3], evs[4]
	newer := func(e *misp.Event) *misp.Event {
		c := e.Clone()
		c.Info = "edited"
		c.Timestamp = misp.UT(now.Add(2 * time.Second))
		return c
	}
	if _, err := local.svc.AddEvents([]*misp.Event{echo.Clone(), newer(localWins), remoteWins.Clone(), gone.Clone()}); err != nil {
		t.Fatal(err)
	}
	if _, err := up.svc.AddEvents([]*misp.Event{echo.Clone(), localWins.Clone(), newer(remoteWins), gone.Clone(), fresh.Clone()}); err != nil {
		t.Fatal(err)
	}
	if _, err := up.svc.DeleteEventsAt([]storage.Deletion{{UUID: gone.UUID, At: now.Add(time.Second)}}); err != nil {
		t.Fatal(err)
	}
	var failing atomic.Bool
	failing.Store(true)
	e, err := New(local.svc, []Peer{
		{Name: "up", Remote: svcRemote{up.svc}},
		{Name: "down", Remote: toggleRemote{svc: up.svc, failing: &failing}},
	}, nil, WithMetrics(local.reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	if _, err := e.SyncOnce(t.Context()); err == nil {
		t.Fatal("a round with a failing peer reported no error")
	}

	tot := e.Totals()
	want := Totals{Pages: 1, Pulled: 5, Imported: 2, EchoSuppressed: 1,
		ConflictLocal: 1, ConflictRemote: 1, Deleted: 1, Errors: 1, Rounds: 1}
	if tot != want {
		t.Fatalf("totals = %+v, want %+v", tot, want)
	}
	got := series(t, local.reg)
	peers := []string{"down", "up"}
	sum := func(family string, extra string) int64 {
		var n float64
		for _, p := range peers {
			n += got[fmt.Sprintf(`%s{peer=%q%s}`, family, p, extra)]
		}
		return int64(n)
	}
	for family, want := range map[string]int64{
		"caisp_mesh_pages_total":           tot.Pages,
		"caisp_mesh_events_pulled_total":   tot.Pulled,
		"caisp_mesh_events_imported_total": tot.Imported,
		"caisp_mesh_echo_suppressed_total": tot.EchoSuppressed,
		"caisp_mesh_deletes_applied_total": tot.Deleted,
		"caisp_mesh_errors_total":          tot.Errors,
	} {
		if n := sum(family, ""); n != want {
			t.Errorf("%s sums to %d over {peer}, Totals reads %d", family, n, want)
		}
	}
	for winner, want := range map[string]int64{"local": tot.ConflictLocal, "remote": tot.ConflictRemote} {
		if n := sum("caisp_mesh_conflicts_total", `,winner="`+winner+`"`); n != want {
			t.Errorf("conflicts{winner=%q} sum to %d, Totals reads %d", winner, n, want)
		}
	}
	for _, pi := range e.PeerInfos() {
		for family, want := range map[string]float64{
			"caisp_mesh_lag_seconds":               pi.LagSeconds,
			"caisp_mesh_backoff_seconds":           pi.BackoffSeconds,
			"caisp_mesh_last_success_unix_seconds": float64(pi.LastSuccessUnix),
		} {
			if v := got[fmt.Sprintf(`%s{peer=%q}`, family, pi.Name)]; v != want {
				t.Errorf("%s{peer=%q} = %g, PeerInfos reads %g", family, pi.Name, v, want)
			}
		}
	}
	// The {peer} label set is the configured peers, no more.
	for sample := range got {
		name, labels, ok := strings.Cut(sample, "{")
		if !ok || !strings.HasPrefix(name, "caisp_mesh_") || strings.HasSuffix(name, "_bucket") {
			continue
		}
		if !strings.HasPrefix(labels, `peer="down"`) && !strings.HasPrefix(labels, `peer="up"`) {
			t.Errorf("sample %s names no configured peer", sample)
		}
	}
	for _, family := range []string{"caisp_mesh_pages_total", "caisp_mesh_events_pulled_total",
		"caisp_mesh_events_imported_total", "caisp_mesh_echo_suppressed_total",
		"caisp_mesh_deletes_applied_total", "caisp_mesh_errors_total", "caisp_mesh_lag_seconds",
		"caisp_mesh_backoff_seconds", "caisp_mesh_last_success_unix_seconds"} {
		for _, p := range peers {
			if _, ok := got[fmt.Sprintf(`%s{peer=%q}`, family, p)]; !ok {
				t.Errorf("%s has no series for peer %q", family, p)
			}
		}
	}
}

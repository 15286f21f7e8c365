package daemon

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/lifecycle"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/obs/health"
	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/subscribe"
	"github.com/caisplatform/caisp/internal/taxii"
	"github.com/caisplatform/caisp/internal/tip"
	"github.com/caisplatform/caisp/internal/wsock"
)

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// waitUp polls until addr accepts connections.
func waitUp(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never came up: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestRunReturnsListenError: a server whose address is taken makes Run
// return the bind error at once, after cancelling the context its
// workers run on — a daemon fails fast instead of serving half its
// surface.
func TestRunReturnsListenError(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	rt := New(nil)
	rt.Serve(freeAddr(t), http.NotFoundHandler())
	rt.Serve(taken.Addr().String(), http.NotFoundHandler())
	workerStopped := false
	rt.Go(func(ctx context.Context) {
		<-ctx.Done()
		workerStopped = true
	})
	err = rt.Run()
	if !errors.Is(err, syscall.EADDRINUSE) {
		t.Fatalf("Run = %v, want the address-in-use bind error", err)
	}
	if !workerStopped {
		t.Fatal("Run returned before its worker drained")
	}
}

// TestMuxServesObservabilitySurface: the shared routes answer with the
// standard store checks registered and the health report filled into
// /cluster/status.
func TestMuxServesObservabilitySurface(t *testing.T) {
	store, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rt := New(nil)
	defer rt.stop()
	rt.StoreChecks(t.TempDir(), store.Durability, nil)
	srv := httptest.NewServer(rt.Mux(nil, false, func() health.NodeStatus {
		return health.NodeStatus{Node: "n1", Role: "tipd"}
	}))
	defer srv.Close()

	for _, tc := range []struct{ path, want string }{
		{"/metrics", "caisp_build_info"},
		{"/metrics", "caisp_go_goroutines"},
		{"/debug/traces", "[]"},
		{"/healthz", "ok"},
		{"/readyz", `"status":"ok"`},
		{"/readyz", `"compaction_backlog"`},
		{"/readyz", `"wal_writable"`},
	} {
		if code, body := get(t, srv.URL+tc.path); code != http.StatusOK || !strings.Contains(body, tc.want) {
			t.Errorf("GET %s = %d %q, want 200 containing %q", tc.path, code, body, tc.want)
		}
	}
	_, body := get(t, srv.URL+"/cluster/status")
	var st health.NodeStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Role != "tipd" || st.Health.Status != "ok" || len(st.Health.Checks) != 2 {
		t.Fatalf("/cluster/status = %+v", st)
	}
	if code, _ := get(t, srv.URL+"/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("pprof mounted without opting in: %d", code)
	}
}

// TestServerBoundsSpareLongLivedRoutes: with ReadTimeout and
// ReadHeaderTimeout short, a change-feed request parked on ?wait= and a
// /ws/matches stream both outlive readTimeout and deliver what wakes
// them, while a client that never finishes its headers is cut at
// ReadHeaderTimeout. Shutdown then drains cleanly.
func TestServerBoundsSpareLongLivedRoutes(t *testing.T) {
	const bound = 300 * time.Millisecond
	store, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	service := tip.NewService(store)
	subs := subscribe.NewEngine()
	defer subs.Close()
	if _, err := subs.Register("siem", "[domain-name:value = 'late.example']"); err != nil {
		t.Fatal(err)
	}

	rt := New(nil)
	mux := rt.Mux(nil, false, func() health.NodeStatus { return health.NodeStatus{Role: "tipd"} })
	subscribe.NewAPI(subs).Register(mux)
	mux.Handle("/", tip.NewAPI(service, ""))
	addr := freeAddr(t)
	rt.Serve(addr, mux)
	rt.servers[0].ReadHeaderTimeout, rt.servers[0].ReadTimeout = bound, bound
	ran := make(chan error, 1)
	go func() { ran <- rt.Run() }()
	waitUp(t, addr)

	type answer struct {
		status int
		body   string
		took   time.Duration
		err    error
	}
	polled := make(chan answer, 1)
	go func() {
		start := time.Now()
		resp, err := http.Get("http://" + addr + "/events/changes?wait=10s")
		if err != nil {
			polled <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		polled <- answer{resp.StatusCode, string(body), time.Since(start), err}
	}()

	ws, err := wsock.Dial("ws://" + addr + "/ws/matches")
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	if _, hello, err := ws.ReadMessage(); err != nil || !strings.Contains(string(hello), `"hello"`) {
		t.Fatalf("greeting = %q (%v)", hello, err)
	}

	loris, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer loris.Close()
	lorisStart := time.Now()
	if _, err := loris.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}

	time.Sleep(2 * bound)
	e := misp.NewEvent("late", time.Now().UTC())
	e.AddAttribute("domain", "Network activity", "late.example", time.Now().UTC())
	if _, err := service.AddEvent(e); err != nil {
		t.Fatal(err)
	}
	if n := subs.EvaluateMISP(e, subscribe.StageCIoC, -1); n != 1 {
		t.Fatalf("EvaluateMISP = %d, want 1", n)
	}

	select {
	case a := <-polled:
		if a.err != nil || a.status != http.StatusOK || !strings.Contains(a.body, e.UUID) {
			t.Fatalf("parked change-feed request: status %d err %v body %q", a.status, a.err, a.body)
		}
		if a.took <= bound {
			t.Fatalf("change-feed request answered after %s, not parked past ReadTimeout %s", a.took, bound)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked change-feed request never answered")
	}

	framed := make(chan string, 1)
	go func() {
		_, payload, err := ws.ReadMessage()
		if err != nil {
			framed <- err.Error()
			return
		}
		framed <- string(payload)
	}()
	select {
	case frame := <-framed:
		if !strings.Contains(frame, `"match"`) || !strings.Contains(frame, e.UUID) {
			t.Fatalf("match stream after ReadTimeout: %q", frame)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no match frame after ReadTimeout")
	}

	// The server closes the slow-loris connection without an answer.
	if err := loris.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := loris.Read(make([]byte, 1))
	if took := time.Since(lorisStart); n != 0 || !errors.Is(err, io.EOF) || took < bound {
		t.Fatalf("slow-loris read = %d, %v after %s; want EOF at ReadHeaderTimeout %s", n, err, took, bound)
	}

	rt.stop()
	select {
	case err := <-ran:
		if err != nil {
			t.Fatalf("Run after stop = %v", err)
		}
	case <-time.After(2 * drainTimeout):
		t.Fatal("Run did not drain")
	}
}

// TestSlowBodyAnswers408: a body still arriving when readTimeout runs
// out is cut, and the TIP and TAXII routes answer 408 instead of a 400
// that reads like a malformed body.
func TestSlowBodyAnswers408(t *testing.T) {
	const bound = 300 * time.Millisecond
	store, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	share := taxii.NewServer("CAISP TAXII", "caisp")
	share.AddCollection("eiocs", "Enriched IoCs", "", true)

	rt := New(nil)
	tipAddr, taxiiAddr := freeAddr(t), freeAddr(t)
	rt.Serve(tipAddr, tip.NewAPI(tip.NewService(store), ""))
	rt.Serve(taxiiAddr, share)
	for _, srv := range rt.servers {
		srv.ReadTimeout = bound
	}
	ran := make(chan error, 1)
	go func() { ran <- rt.Run() }()
	defer func() {
		rt.stop()
		if err := <-ran; err != nil {
			t.Errorf("Run after stop = %v", err)
		}
	}()
	waitUp(t, tipAddr)
	waitUp(t, taxiiAddr)

	for _, tc := range []struct{ addr, path string }{
		{tipAddr, "/events/batch"},
		{taxiiAddr, "/caisp/collections/eiocs/objects/"},
	} {
		// The server's ReadTimeout runs from when it starts reading the
		// connection, which cannot be before the dial.
		start := time.Now()
		conn, err := net.Dial("tcp", tc.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// The headers promise 1000 bytes; the first 13 arrive, then none.
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: x\r\nContent-Type: %s\r\nContent-Length: 1000\r\n\r\n{\"objects\":[{",
			tc.path, taxii.ContentType)
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("POST %s with a stalled body: %v", tc.path, err)
		}
		resp.Body.Close()
		if took := time.Since(start); resp.StatusCode != http.StatusRequestTimeout || took < bound {
			t.Errorf("POST %s with a stalled body = %d after %s, want 408 at readTimeout %s",
				tc.path, resp.StatusCode, took, bound)
		}
	}
}

// TestRunDrainOverrunIsNotAFailure: a worker that outlives drainTimeout
// is reported, not returned, so a signalled stop still exits 0.
func TestRunDrainOverrunIsNotAFailure(t *testing.T) {
	rt := New(nil)
	release := make(chan struct{})
	defer close(release)
	rt.Go(func(context.Context) { <-release })
	rt.stop()
	start := time.Now()
	if err := rt.Run(); err != nil {
		t.Fatalf("Run with an overrunning worker = %v, want nil", err)
	}
	if took := time.Since(start); took < drainTimeout {
		t.Fatalf("Run returned after %s, before drainTimeout %s", took, drainTimeout)
	}
}

// TestLifecycleProgressCountsSteps: a pass over 6 000 stored events
// takes twelve one-minute steps, longer than lifecycle_progress's
// five-minute window. The check counts steps on the engine's clock, so
// it stays ok through the whole pass.
func TestLifecycleProgressCountsSteps(t *testing.T) {
	store, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	start := time.Date(2019, 6, 24, 12, 0, 0, 0, time.UTC)
	batch := make([]*misp.Event, 6000)
	for i := range batch {
		batch[i] = misp.NewEvent(fmt.Sprintf("indicator %d", i), start)
	}
	if _, err := store.PutBatch(batch, nil); err != nil {
		t.Fatal(err)
	}
	clk := clock.NewFake(start)
	lc := lifecycle.New(store, lifecycle.WithClock(clk))
	rt := New(nil)
	defer rt.stop()
	rt.StoreChecks(t.TempDir(), store.Durability, lc)
	for minute := 1; minute <= 12; minute++ {
		clk.Advance(time.Minute)
		if _, err := lc.RunOnce(clk.Now()); err != nil {
			t.Fatal(err)
		}
		if passes := lc.Stats().Passes; minute < 12 && passes != 0 {
			t.Fatalf("a pass ended after %d minutes, want 12", minute)
		}
		checks := rt.Health.Evaluate().Checks
		i := slices.IndexFunc(checks, func(c health.CheckResult) bool { return c.Name == "lifecycle_progress" })
		if i < 0 || checks[i].Status != "ok" {
			t.Fatalf("minute %d: checks %+v, want lifecycle_progress ok", minute, checks)
		}
	}
}

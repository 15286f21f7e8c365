// Package daemon is the serving runtime caispd, tipd and heuristicd
// share: the observability routes, the standard store checks, one
// SIGINT/SIGTERM context and one bounded serve-and-drain path.
package daemon

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"github.com/caisplatform/caisp/internal/lifecycle"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/obs/health"
	"github.com/caisplatform/caisp/internal/par"
	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/tip"
)

// Every listener's bounds. None of them cuts a running handler: net/http
// clears the read deadline once a request's body is read and on Hijack,
// so a change-feed request parked on ?wait= and a /ws/* stream outlive
// readTimeout. There is no write timeout for the same reason. readTimeout
// fits a 32 MiB body (the TIP and TAXII cap) at 1 Mbit/s: 268 s.
const (
	readHeaderTimeout = 10 * time.Second // a client that never finishes its headers
	readTimeout       = 5 * time.Minute  // reading one whole request, body included
	idleTimeout       = 2 * time.Minute  // an idle keep-alive connection
	drainTimeout      = 5 * time.Second  // shutdown of every server and worker at once
)

// Runtime is one daemon process's serving scaffold: build it with New,
// add servers and workers, then call Run once.
type Runtime struct {
	Metrics *obs.Registry    // carries caisp_build_info and caisp_go_*
	Health  *health.Registry // evaluated by /healthz, /readyz and /cluster/status

	ctx     context.Context
	stop    context.CancelFunc
	servers []*http.Server
	workers sync.WaitGroup
}

// New builds a runtime around reg (nil creates one) and starts listening
// for SIGINT and SIGTERM.
func New(reg *obs.Registry) *Runtime {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	obs.RegisterBuildInfo(reg)
	obs.RegisterRuntime(reg)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	return &Runtime{Metrics: reg, Health: health.New(reg), ctx: ctx, stop: stop}
}

// Context ends on SIGINT, SIGTERM or a failed listener. It is every
// server's BaseContext, so shutdown also releases parked requests.
func (rt *Runtime) Context() context.Context { return rt.ctx }

// StoreChecks registers the standard store checks: wal_writable
// (liveness: a data dir that refuses writes cannot commit), and as
// readiness compaction_backlog (ten compaction triggers' worth of WAL
// ops: the store's compactor fell far behind) and, when lc is non-nil,
// lifecycle_progress (no re-score step for five minutes).
func (rt *Runtime) StoreChecks(dir string, durability func() storage.DurabilityStats, lc *lifecycle.Engine) {
	rt.Health.Register("wal_writable", health.DirWritable(dir))
	rt.Health.Register("compaction_backlog", health.Max("wal ops since snapshot",
		func() float64 { return float64(durability().WALOps) }, 10*storage.CompactAfterOps))
	if lc != nil {
		rt.Health.Register("lifecycle_progress", lifecycle.ProgressCheck(lc, 5*time.Minute))
	}
}

// Mux returns a mux serving /metrics, /debug/traces (a nil tracer serves
// an empty list), /healthz, /readyz, /cluster/status and, with pprof
// set, net/http/pprof under /debug/pprof/ (nothing is mounted on
// http.DefaultServeMux). status fills the node's part of
// /cluster/status; the runtime adds the health report.
func (rt *Runtime) Mux(tracer *obs.Tracer, withPprof bool, status func() health.NodeStatus) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", rt.Metrics.Handler())
	mux.Handle("GET /debug/traces", tracer.Handler())
	mux.Handle("GET /healthz", rt.Health.Liveness())
	mux.Handle("GET /readyz", rt.Health.Readiness())
	mux.Handle("GET /cluster/status", health.StatusHandler(func() health.NodeStatus {
		st := status()
		st.Health = rt.Health.Evaluate()
		return st
	}))
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// TIPStatus is the /cluster/status projection of the node svc names.
// The store sequence advances on every put, edit and delete, so it
// doubles as the monotonic ingest counter caisp-top turns into a rate.
func TIPStatus(role string, svc *tip.Service) health.NodeStatus {
	seq, st := svc.StoreSeq(), svc.Stats()
	return health.NodeStatus{Node: svc.Name(), Role: role, StoreSeq: seq, Events: st.Events,
		WALOps: st.WALOps, IngestTotal: int64(seq)}
}

// Serve adds a server for handler on addr; Run binds and starts it.
func (rt *Runtime) Serve(addr string, handler http.Handler) {
	rt.servers = append(rt.servers, &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
		BaseContext:       func(net.Listener) context.Context { return rt.ctx },
	})
}

// Go runs fn with the runtime's context; Run's drain waits for it.
func (rt *Runtime) Go(fn func(ctx context.Context)) {
	rt.workers.Add(1)
	go func() {
		defer rt.workers.Done()
		fn(rt.ctx)
	}()
}

// Every calls fn once per period until shutdown begins.
func (rt *Runtime) Every(period time.Duration, fn func()) {
	rt.Go(func(ctx context.Context) {
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				fn()
			}
		}
	})
}

// Run binds every server and serves until SIGINT, SIGTERM or the first
// listener failure. It then cancels the context, shuts the servers down
// and waits for the Go functions, all at once under drainTimeout. It
// returns the first bind or serve error; a drain overrun is only
// printed. The caller's deferred closes run after it.
func (rt *Runtime) Run() error {
	defer rt.stop()
	failed := make(chan error, len(rt.servers))
	for _, srv := range rt.servers {
		ln, err := net.Listen("tcp", srv.Addr)
		if err != nil {
			failed <- err
			break
		}
		go func() { failed <- srv.Serve(ln) }()
	}
	var err error
	select {
	case <-rt.ctx.Done():
	case err = <-failed: // before Shutdown, any return is a failure
	}
	rt.stop()

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drained := make(chan struct{})
	go func() {
		par.Do(len(rt.servers), len(rt.servers), func(i int) {
			_ = rt.servers[i].Shutdown(ctx) // fails only past ctx
		})
		rt.workers.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		fmt.Fprintf(os.Stderr, "drain: still busy after %s, exiting anyway\n", drainTimeout)
	}
	return err
}

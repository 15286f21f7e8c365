package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("caisp_test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	c.Add(-3) // negative adds are ignored
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("caisp_test_depth", "depth")
	g.Set(2.5)
	g.Add(1.5)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %g, want 4", got)
	}
	g.Add(-5)
	if got := g.Value(); got != -1 {
		t.Fatalf("gauge = %g, want -1", got)
	}
}

func TestNilRegistryNoops(t *testing.T) {
	var r *Registry
	// Every constructor on a nil registry returns a nil handle whose
	// methods no-op — the WithNoopMetrics ablation.
	r.Counter("caisp_x", "x").Inc()
	r.Gauge("caisp_x", "x").Set(1)
	r.Histogram("caisp_x", "x").Observe(1)
	r.CounterFunc("caisp_x", "x", func() float64 { return 1 })
	r.GaugeFunc("caisp_x", "x", func() float64 { return 1 })
	r.CounterVec("caisp_x", "x", "l").With("v").Inc()
	r.CounterVec("caisp_x", "x", "l").Func(func() float64 { return 1 }, "v")
	r.GaugeVec("caisp_x", "x", "l").With("v").Set(1)
	r.HistogramVec("caisp_x", "x", nil, "l").With("v").Observe(1)
	if names := r.Names(); names != nil {
		t.Fatalf("nil registry names = %v", names)
	}
	var tr *Tracer
	tr.Start("a")
	tr.Mark("a", StageIngest)
	tr.Adopt("b", StageCorrelate, []string{"a"})
	tr.Drop("a")
	tr.Finish("b", StagePublish)
	if tr.Active() != 0 || tr.Slowest() != nil {
		t.Fatal("nil tracer not inert")
	}
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"", "nope", "caisp_", "caisp_Upper", "caisp_has1digit"} {
		name := name
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q accepted", name)
				}
			}()
			r.Counter(name, "bad")
		}()
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("caisp_dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration accepted")
		}
	}()
	r.Counter("caisp_dup_total", "second")
}

func TestHistogramSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("caisp_hist_seconds", "h", 0.1, 1, 10)
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	if want := 0.05 + 0.5 + 0.5 + 5 + 50; s.Sum != want {
		t.Fatalf("sum = %g, want %g", s.Sum, want)
	}
	// Cumulative counts per bound: ≤0.1 → 1, ≤1 → 3, ≤10 → 4, +Inf → 5.
	wantCum := []int64{1, 3, 4, 5}
	for i, want := range wantCum {
		if s.Counts[i] != want {
			t.Fatalf("bucket[%d] = %d, want %d", i, s.Counts[i], want)
		}
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("caisp_conc_seconds", "h")
	c := r.Counter("caisp_conc_total", "c")
	vec := r.CounterVec("caisp_conc_vec_total", "v", "worker")
	var wg sync.WaitGroup
	const workers, iters = 8, 1000
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			label := string(rune('a' + w))
			for i := 0; i < iters; i++ {
				h.Observe(float64(i) / iters)
				c.Inc()
				vec.With(label).Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if s := h.Snapshot(); s.Count != workers*iters {
		t.Fatalf("histogram count = %d, want %d", s.Count, workers*iters)
	}
	for w := 0; w < workers; w++ {
		if got := vec.With(string(rune('a' + w))).Value(); got != iters {
			t.Fatalf("vec[%d] = %d, want %d", w, got, iters)
		}
	}
}

func TestVecLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("caisp_arity_total", "v", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity accepted")
		}
	}()
	vec.With("only-one")
}

func TestVecFuncLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("caisp_arity_total", "v", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity accepted")
		}
	}()
	vec.Func(func() float64 { return 0 }, "only-one")
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("caisp_requests_total", "Requests served.").Add(3)
	r.Gauge("caisp_queue_depth", "Queue depth.").Set(2)
	r.Histogram("caisp_latency_seconds", "Latency.", 0.1, 1).Observe(0.5)
	r.CounterVec("caisp_errors_total", "Errors.", "stage").With("in\"g\\est\n").Inc()
	r.GaugeFunc("caisp_live_value", "Live.", func() float64 { return 7.5 })
	fed := r.CounterVec("caisp_fed_total", "Fed.", "feed", "kind")
	fed.Func(func() float64 { return 4 }, "a", "x")
	fed.Func(func() float64 { return 0 }, "b", "x")
	fed.Func(func() float64 { return 9 }, "a", "x") // the first child stays

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# HELP caisp_requests_total Requests served.\n",
		"# TYPE caisp_requests_total counter\n",
		"caisp_requests_total 3\n",
		"# TYPE caisp_queue_depth gauge\n",
		"caisp_queue_depth 2\n",
		"# TYPE caisp_latency_seconds histogram\n",
		`caisp_latency_seconds_bucket{le="0.1"} 0`,
		`caisp_latency_seconds_bucket{le="1"} 1`,
		`caisp_latency_seconds_bucket{le="+Inf"} 1`,
		"caisp_latency_seconds_sum 0.5\n",
		"caisp_latency_seconds_count 1\n",
		// Label escaping: backslash, quote and newline.
		`caisp_errors_total{stage="in\"g\\est\n"} 1`,
		"caisp_live_value 7.5\n",
		"# TYPE caisp_fed_total counter\n",
		`caisp_fed_total{feed="a",kind="x"} 4` + "\n",
		// A Func child reads from registration, before any value moves.
		`caisp_fed_total{feed="b",kind="x"} 0` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Families render in sorted order.
	if strings.Index(out, "caisp_errors_total") > strings.Index(out, "caisp_latency_seconds") {
		t.Fatal("families not sorted")
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("caisp_handler_total", "h").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "caisp_handler_total 1") {
		t.Fatalf("handler body:\n%s", buf[:n])
	}
}

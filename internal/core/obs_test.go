package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/feedgen"
)

// scrape renders the platform registry as Prometheus text.
func scrape(t *testing.T, p *Platform) string {
	t.Helper()
	var sb strings.Builder
	if err := p.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// metricValue extracts the value of an exact sample line ("name value" or
// "name{labels} value").
func metricValue(t *testing.T, exposition, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		rest, ok := strings.CutPrefix(line, sample+" ")
		if !ok {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("sample %q not found in exposition:\n%s", sample, exposition)
	return 0
}

// TestMetricsEndToEnd runs a full synthetic pipeline pass and asserts the
// ISSUE acceptance criteria on the /metrics surface: at least 20 distinct
// caisp_* families spanning every pipeline stage, counters that agree with
// Stats(), and per-stage trace histograms populated end to end.
func TestMetricsEndToEnd(t *testing.T) {
	gen := feedgen.New(feedgen.Config{
		Seed: 7, Items: 60, DuplicationRate: 0.2, OverlapRate: 0.2, DefangRate: 0.3,
		Now: batchTime.Add(-24 * time.Hour),
	})
	feeds, err := gen.Feeds(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// A real data dir so the WAL commit path (caisp_store_commit_seconds)
	// is exercised too.
	p := newPlatform(t, Config{Feeds: feeds, DataDir: t.TempDir()})
	if err := p.RunBatch(context.Background()); err != nil {
		t.Fatal(err)
	}

	names := p.Metrics().Names()
	distinct := make(map[string]bool, len(names))
	for _, n := range names {
		if !strings.HasPrefix(n, "caisp_") {
			t.Fatalf("non-caisp family %q registered", n)
		}
		if distinct[n] {
			t.Fatalf("family %q listed twice", n)
		}
		distinct[n] = true
	}
	if len(distinct) < 20 {
		t.Fatalf("only %d caisp_* families registered: %v", len(distinct), names)
	}
	// Every pipeline stage contributes at least one family.
	for _, prefix := range []string{
		"caisp_feed_", "caisp_dedup_", "caisp_correlate_", "caisp_store_",
		"caisp_consumer_", "caisp_tip_", "caisp_heuristic_", "caisp_dashboard_",
		"caisp_pipeline_", "caisp_trace_",
	} {
		found := false
		for n := range distinct {
			if strings.HasPrefix(n, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no %s* family registered; have %v", prefix, names)
		}
	}

	out := scrape(t, p)
	stats := p.Stats()

	// The registry views read the same atomics as Stats(): they must agree.
	if got := metricValue(t, out, "caisp_pipeline_collected_total"); got != float64(stats.EventsCollected) {
		t.Fatalf("collected metric = %g, stats = %d", got, stats.EventsCollected)
	}
	if got := metricValue(t, out, "caisp_pipeline_duplicates_total"); got != float64(stats.Duplicates) {
		t.Fatalf("duplicates metric = %g, stats = %d", got, stats.Duplicates)
	}
	if got := metricValue(t, out, "caisp_store_events"); got != float64(stats.StoredEvents) {
		t.Fatalf("store events metric = %g, stats = %d", got, stats.StoredEvents)
	}

	// The write path and analysis latency histograms saw traffic.
	for _, sample := range []string{
		"caisp_dedup_offer_seconds_count",
		"caisp_correlate_add_seconds_count",
		"caisp_store_put_batch_seconds_count",
		"caisp_store_commit_seconds_count",
		"caisp_pipeline_flush_seconds_count",
		"caisp_pipeline_analyze_seconds_count",
		"caisp_heuristic_eval_seconds_count",
	} {
		if metricValue(t, out, sample) == 0 {
			t.Fatalf("%s = 0 after an end-to-end batch", sample)
		}
	}

	// Per-stage trace histograms are populated across the whole journey,
	// and at least one end-to-end trace finished.
	for _, stage := range []string{"ingest", "correlate", "store_commit", "analyze", "publish"} {
		sample := fmt.Sprintf("caisp_trace_stage_seconds_count{stage=%q}", stage)
		if metricValue(t, out, sample) == 0 {
			t.Fatalf("trace stage %s never observed", stage)
		}
	}
	if metricValue(t, out, "caisp_trace_end_to_end_seconds_count") == 0 {
		t.Fatal("no end-to-end trace finished")
	}
	if len(p.Tracer().Slowest()) == 0 {
		t.Fatal("no slow traces retained for /debug/traces")
	}
}

// TestDisableMetrics asserts the ablation baseline: no registry, no
// tracer, and an otherwise fully working pipeline.
func TestDisableMetrics(t *testing.T) {
	p := newPlatform(t, Config{
		Feeds:          []feed.Feed{advisoryFeed(strutsAdvisory)},
		DisableMetrics: true,
	})
	if p.Metrics() != nil || p.Tracer() != nil {
		t.Fatal("DisableMetrics left instrumentation active")
	}
	if err := p.RunBatch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.EIoCs == 0 || st.RIoCs == 0 {
		t.Fatalf("uninstrumented pipeline stalled: %+v", st)
	}
}

// TestSharedRegistryAcrossPlatform asserts a caller-supplied registry is
// used as-is (daemons mount it on their own mux).
func TestSharedRegistryAcrossPlatform(t *testing.T) {
	p := newPlatform(t, Config{Feeds: []feed.Feed{advisoryFeed(strutsAdvisory)}})
	if err := p.RunBatch(context.Background()); err != nil {
		t.Fatal(err)
	}
	out := scrape(t, p)
	// The analyzer's lag gauge is exported, at 0 outside streaming mode.
	if !strings.Contains(out, `caisp_consumer_lag{consumer="analyzer"} 0`) {
		t.Fatalf("analyzer lag gauge missing:\n%s", out)
	}
}

package core

import (
	"context"
	"slices"
	"strings"
	"testing"

	"github.com/caisplatform/caisp/internal/daemon"
	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/subscribe"
)

// TestNodeRunsAsTipd: a node built as tipd builds it detects a cIoC
// posted to its TIP once, at the cIoC stage, and scores nothing; closed
// and reopened on its data directory, it has its subscription back
// under the same ID.
func TestNodeRunsAsTipd(t *testing.T) {
	cfg := Config{DataDir: t.TempDir(), NodeName: "tipd"}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.Subscriptions().Register("siem", "[vulnerability:name = 'CVE-2017-9805']")
	if err != nil {
		t.Fatal(err)
	}
	frames := matchFrames(t, subscribe.NewAPI(n.Subscriptions()))
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		n.Run(ctx)
	}()

	posted := clusterOf(t, "CVE-2017-9805", normalize.CategoryVulnExploit, strutsContext)
	if _, err := n.TIP().AddEvent(posted); err != nil {
		t.Fatal(err)
	}
	if frame := awaitFrame(t, frames, posted.UUID); frame.Stage != subscribe.StageCIoC {
		t.Fatalf("matched at the %s stage, want cioc", frame.Stage)
	}
	cancel()
	<-ran
	n.detections.Drain(n.store.Seq()) // whatever the loop had not reached
	if got, _ := n.Subscriptions().Get(sub.ID); got.Matches != 1 {
		t.Fatalf("the posted cIoC matched %d times, want 1", got.Matches)
	}
	if stored, _ := n.TIP().GetEvent(posted.UUID); stored.HasTag("caisp:eioc") {
		t.Fatal("a node scored the posted cIoC")
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	n, err = NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if got, ok := n.Subscriptions().Get(sub.ID); !ok || got.Pattern != sub.Pattern {
		t.Fatalf("after a restart: %+v, %v; want %+v", got, ok, sub)
	}
}

// families lists the families an exposition declares in # TYPE lines.
func families(exposition string) []string {
	var names []string
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			names = append(names, strings.Fields(rest)[0])
		}
	}
	return names
}

// nodeFamilies are tipd's metric families at start-up, without a peer.
var nodeFamilies = []string{
	"caisp_build_info", "caisp_consumer_lag",
	"caisp_go_gc_cycles_total", "caisp_go_gc_pause_seconds_total", "caisp_go_goroutines", "caisp_go_heap_bytes",
	"caisp_health_check_status", "caisp_health_status",
	"caisp_lifecycle_expired_total", "caisp_lifecycle_rescored_total", "caisp_lifecycle_scan_seconds",
	"caisp_lifecycle_sighting_refreshes_total", "caisp_lifecycle_tracked",
	"caisp_store_batch_size_events", "caisp_store_commit_seconds", "caisp_store_compaction_seconds",
	"caisp_store_compactions_total", "caisp_store_events", "caisp_store_put_batch_seconds", "caisp_store_put_seconds",
	"caisp_store_wal_bytes", "caisp_store_wal_ops", "caisp_store_wal_segments",
	"caisp_subs_candidates_per_event", "caisp_subs_eval_seconds", "caisp_subs_expired_total",
	"caisp_subs_matches_total", "caisp_subs_registered", "caisp_subs_rejected_total",
	"caisp_tip_changes_parked", "caisp_tip_store_total",
	"caisp_trace_dropped_total", "caisp_trace_end_to_end_seconds", "caisp_trace_finished_total", "caisp_trace_stage_seconds",
	"caisp_wsock_evicted_total", "caisp_wsock_push_seconds", "caisp_wsock_queue_depth",
}

// platformFamilies are the families caispd adds to a node's: the input
// module, the analyzer, the dashboard and the pipeline counters.
var platformFamilies = []string{
	"caisp_analyzer_blocks_total",
	"caisp_correlate_add_seconds", "caisp_correlate_cluster_merges_total", "caisp_correlate_cluster_new_total",
	"caisp_correlate_cluster_updated_total", "caisp_correlate_clusters", "caisp_correlate_events_total",
	"caisp_dashboard_push_seconds", "caisp_dashboard_revision_lag_seconds", "caisp_dashboard_riocs", "caisp_dashboard_ws_clients",
	"caisp_dedup_duplicates_total", "caisp_dedup_offer_seconds", "caisp_dedup_seen_total", "caisp_dedup_unique_total",
	"caisp_feed_errors_total", "caisp_feed_fetch_bytes_total", "caisp_feed_fetch_seconds", "caisp_feed_fetches_total",
	"caisp_feed_malformed_total", "caisp_feed_not_modified_total", "caisp_feed_records_total",
	"caisp_heuristic_eval_seconds",
	"caisp_pipeline_analyze_seconds", "caisp_pipeline_ciocs_total", "caisp_pipeline_classified_total",
	"caisp_pipeline_cluster_edits_total", "caisp_pipeline_cluster_merges_total", "caisp_pipeline_collected_total",
	"caisp_pipeline_duplicates_total", "caisp_pipeline_eiocs_total", "caisp_pipeline_flush_seconds",
	"caisp_pipeline_pending_events", "caisp_pipeline_riocs_total", "caisp_pipeline_store_failures_total",
	"caisp_pipeline_unique_total", "caisp_pipeline_unscorable_total",
}

// TestDaemonMetricFamilies: tipd (a node) and caispd (a platform) serve
// their 38 and 75 families, one caisp_consumer_lag among them: the
// node's lags its detections loop, the platform's its analyzer too. In
// the platform the dashboard's hub owns the caisp_wsock_* families.
func TestDaemonMetricFamilies(t *testing.T) {
	n, err := NewNode(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	p := newPlatform(t, Config{})
	for _, tc := range []struct {
		name string
		reg  *obs.Registry
		want []string
		lags []string
	}{
		{"tipd", n.Metrics(), nodeFamilies, []string{"detections"}},
		{"caispd", p.Metrics(), append(slices.Clone(nodeFamilies), platformFamilies...), []string{"analyzer", "detections"}},
	} {
		daemon.New(tc.reg)
		var sb strings.Builder
		if err := tc.reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		exposition := sb.String()
		got, want := families(exposition), slices.Clone(tc.want)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s serves %d families %v, want %d %v", tc.name, len(got), got, len(want), want)
		}
		for _, consumer := range []string{"analyzer", "detections"} {
			line := `caisp_consumer_lag{consumer="` + consumer + `"} `
			if strings.Contains(exposition, line) != slices.Contains(tc.lags, consumer) {
				t.Errorf("%s: %s lag exposed = %v, want %v", tc.name, consumer, !slices.Contains(tc.lags, consumer), slices.Contains(tc.lags, consumer))
			}
		}
	}
}

GO ?= go

.PHONY: build test race bench fuzz-smoke bench-e2e-smoke bench-read bench-durability bench-correlate bench-obs bench-fanout bench-subs bench-mesh bench-lifecycle obs-smoke vet copyfree metrics-lint clock-lint pool-lint option-lint door-lint check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Ten seconds of each fuzz target from its seeds (and testdata/fuzz corpus):
# the event-list decoder against encoding/json (fast path or stdlib, never
# a third answer, and each kept event span decodes to its event), the
# conversion block keys (a block whose key a mutation left alone converts
# to the same objects), the WAL
# segment scanner, the snapshot loader (Open refuses the file or its change
# log lists exactly its live events), the replay of a WAL patch record
# (with its runs or base sequence mutated, or its base deleted or put
# again before it, Open fails with ErrPatchBase or reopens to the state a
# full put of the event it describes gives), the STIX pattern parser (and
# MatchOne answers as Match on one observation),
# stixpattern.Equality (Parse reads back the AST it rendered), the UUID
# parser (against hex.DecodeString), correlate.Splice (a cluster's
# revision spliced from the one stored before it, as the flush left it
# or replaced through REST, equals the full ToMISP apart from attribute
# UUIDs, and keeps only UUIDs of attributes stored unaltered), the
# streaming correlator (after every Add, with restarts re-seeded from the
# emitted clusters, each emitted cluster is the batch Correlator's
# component: members in ID order, bounds, shared keys, content hash and
# last sighting; and no cIoC handed out earlier changes), the carried
# path against the full one (correlate.Render from a cluster's base
# equals the render without it, attribute for attribute, the same
# attributes keeping the stored UUIDs; worker.Analyzer.ScoreFrom with
# what it copied scores, and pushes rIoCs, as a fresh analyzer scores the
# full render) and the subscription index's number screen
# (canonicalNumber answers as a plain strconv.ParseFloat and FormatFloat
# would). A new
# input is minimized for at most a second, so a target spends its ten
# seconds executing instead of shrinking the first input that widened
# coverage (the default allows a minute).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeList -fuzztime 10s -fuzzminimizetime 1s ./internal/misp/
	$(GO) test -run '^$$' -fuzz FuzzBlockKeys -fuzztime 10s -fuzzminimizetime 1s ./internal/misp/
	$(GO) test -run '^$$' -fuzz FuzzScanSegment -fuzztime 10s -fuzzminimizetime 1s ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzLoadSnapshot -fuzztime 10s -fuzzminimizetime 1s ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzReplayPatch -fuzztime 10s -fuzzminimizetime 1s ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzParseMatch -fuzztime 10s -fuzzminimizetime 1s ./internal/stixpattern/
	$(GO) test -run '^$$' -fuzz FuzzEqualityPattern -fuzztime 10s -fuzzminimizetime 1s ./internal/stixpattern/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s -fuzzminimizetime 1s ./internal/uuid/
	$(GO) test -run '^$$' -fuzz FuzzToMISPSplice -fuzztime 10s -fuzzminimizetime 1s ./internal/correlate/
	$(GO) test -run '^$$' -fuzz FuzzIncrementalAgainstBatch -fuzztime 10s -fuzzminimizetime 1s ./internal/correlate/
	$(GO) test -run '^$$' -fuzz FuzzRenderCarried -fuzztime 10s -fuzzminimizetime 1s ./internal/correlate/
	$(GO) test -run '^$$' -fuzz FuzzScoreCarried -fuzztime 10s -fuzzminimizetime 1s ./internal/worker/
	$(GO) test -run '^$$' -fuzz FuzzCanonicalNumber -fuzztime 10s -fuzzminimizetime 1s ./internal/subscribe/

# The end-to-end benchmark (bench/, BENCHMARK.json) is a module of its own
# that calls internal/... directly, so the root build and tests never
# compile it. Vet it, run its tests and run every workload once at smoke
# sizes with the correctness gate on: a change to a signature it calls, or
# to a count its replay pins, fails here instead of in the benchmark run.
bench-e2e-smoke:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...
	bash bench/run.sh -smoke

# Read-path suite: copy-free snapshot reads under sustained ingest.
bench-read:
	$(GO) test -run '^$$' -bench '^BenchmarkRead' -benchmem .

# Durability suite: write-tail latency with and without a concurrent
# streaming compaction, and cold-start recovery decoded across GOMAXPROCS
# workers (50k events).
bench-durability:
	$(GO) test -run '^$$' -bench '^BenchmarkDurability' -benchmem .

# Correlation suite: the streaming cluster index over 1k/10k/50k streams,
# plus history-independence of the per-flush cost (empty vs 50k-preloaded
# correlator).
bench-correlate:
	$(GO) test -run '^$$' -bench '^BenchmarkCorrelate' -benchmem .

# Observability suite: the instrumented pipeline vs the DisableMetrics
# ablation — the per-event overhead number reported in EXPERIMENTS.md §X9.
bench-obs:
	$(GO) test -run '^$$' -bench '^BenchmarkObs' -benchmem .

# Fan-out suite: one broadcast loop over per-client queues, to fast-only
# vs slow-mix client populations — the EXPERIMENTS.md §X10 and §X33
# numbers.
bench-fanout:
	$(GO) test -run '^$$' -bench '^BenchmarkFanout' -benchmem ./internal/wsock/

# Subscription suite: indexed pattern evaluation across 1k/10k/100k
# standing patterns, registration churn, and
# the parse-time regexp precompilation deltas — the EXPERIMENTS.md §X11
# numbers — and the stage rule over a page of eIoCs (§X34).
bench-subs:
	$(GO) test -run '^$$' -bench '^BenchmarkSubs' -benchmem ./internal/subscribe/ ./internal/stixpattern/

# Mesh suite: concurrent fan-in over simulated WAN peers — the
# EXPERIMENTS.md §X12 orchestration numbers.
bench-mesh:
	$(GO) test -run '^$$' -bench '^BenchmarkFanIn' -benchmem ./internal/mesh/

# Lifecycle suite: the bounded incremental re-score scheduler at 10k/100k
# stored indicators — the EXPERIMENTS.md §X13 per-pass numbers.
bench-lifecycle:
	$(GO) test -run '^$$' -bench '^BenchmarkIncrementalPass' -benchmem ./internal/lifecycle/

# Observability smoke: boot all three daemons on scratch ports — caispd,
# tipd, and heuristicd with -metrics following that tipd's change log
# from a cursor file — and assert every probe surface answers on each:
# /healthz (live), /readyz (ready with an "ok" verdict), /cluster/status
# (the node's role) and /metrics (build info present). tipd must also
# answer a POST /events one byte over its 32 MiB cap with 413. Once
# caispd's first feed flush has settled, its /stats must read
# ciocs+cluster_edits == eiocs+unscorable with no store failure, and
# its caisp_tip_store_total must equal ciocs+cluster_edits: a flush
# commits each cluster change once, already scored. A scorable cIoC
# posted to caispd's TIP API must then come back tagged caisp:eioc with
# caispd's caisp_consumer_lag{consumer="analyzer"} at 0, and so must the
# same cIoC posted again: caispd's follower scores every stored cIoC
# revision without the eIoC tag. With [x-caisp:category =
# 'malware-domain'] registered on caispd's /subscriptions, an unscorable
# opaque-token cIoC posted to caispd's TIP must raise
# caisp_subs_matches_total to 1 or more with
# caisp_consumer_lag{consumer="detections"} at 0: caispd's detections
# follow the change log, so they see what others store, scorable or
# not. A scorable cIoC posted to tipd before
# heuristicd starts must come back tagged caisp:eioc, and tipd's
# detections must then read caisp_consumer_lag 0: a consumer that
# starts late or lags catches up from the change log. tipd runs on a
# -data dir: a pattern registered on its /subscriptions must still be
# listed, under the same ID, once tipd has been restarted on that dir.
# Exits nonzero when a daemon does not come up within 15s or any probe
# fails.
obs-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	for d in caispd tipd heuristicd; do $(GO) build -o $$tmp/$$d ./cmd/$$d; done; \
	pids=''; \
	trap 'kill $$pids 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	up() { \
		for i in $$(seq 1 150); do \
			curl -fsS http://$$1/healthz >/dev/null 2>&1 && return 0; \
			sleep 0.1; \
		done; \
		echo "obs-smoke: $$2 did not come up"; cat $$tmp/$$2.log; exit 1; \
	}; \
	probe() { \
		curl -fsS http://$$1/healthz | grep ok >/dev/null \
			|| { echo "obs-smoke: $$2 /healthz failed"; exit 1; }; \
		curl -fsS http://$$1/readyz | grep '"status":"ok"' >/dev/null \
			|| { echo "obs-smoke: $$2 /readyz not ready"; exit 1; }; \
		curl -fsS http://$$1/cluster/status | grep "\"role\":\"$$2\"" >/dev/null \
			|| { echo "obs-smoke: $$2 /cluster/status failed"; exit 1; }; \
		curl -fsS http://$$1/metrics | grep 'caisp_build_info' >/dev/null \
			|| { echo "obs-smoke: $$2 /metrics missing build info"; exit 1; }; \
	}; \
	$$tmp/caispd -dashboard 127.0.0.1:18450 -tip 127.0.0.1:18440 -taxii '' -node smoke >$$tmp/caispd.log 2>&1 & \
	pids="$$pids $$!"; \
	$$tmp/tipd -listen 127.0.0.1:18540 -data $$tmp/tipd-data >$$tmp/tipd.log 2>&1 & \
	tipd=$$!; pids="$$pids $$tipd"; \
	up 127.0.0.1:18540 tipd; \
	cioc=9258be75-bd55-4a82-9d70-04c1b32cf525; \
	curl -fsS -o /dev/null --data-binary '{"Event":{"uuid":"'$$cioc'","info":"obs-smoke cIoC","date":"2019-06-24","threat_level_id":4,"analysis":0,"distribution":1,"timestamp":"1561377600","Attribute":[{"uuid":"0c285d3a-432b-4d25-b73c-ce4e0bd743da","type":"vulnerability","category":"External analysis","value":"CVE-2017-9805","timestamp":"1561377600"}],"Tag":[{"name":"caisp:cioc"}]}}' \
		http://127.0.0.1:18540/events || { echo "obs-smoke: tipd refused the cIoC"; exit 1; }; \
	$$tmp/heuristicd -tip http://127.0.0.1:18540 -cursor $$tmp/h.json -metrics 127.0.0.1:18552 >$$tmp/heuristicd.log 2>&1 & \
	pids="$$pids $$!"; \
	up 127.0.0.1:18450 caispd; \
	up 127.0.0.1:18552 heuristicd; \
	probe 127.0.0.1:18450 caispd; \
	field() { echo "$$1" | sed -n "s/.*\"$$2\":\([0-9]*\).*/\1/p"; }; \
	prev=''; stats=''; \
	for i in $$(seq 1 150); do \
		stats=$$(curl -fsS http://127.0.0.1:18450/stats); \
		[ "$$(field "$$stats" ciocs)" != 0 ] && [ "$$stats" = "$$prev" ] && break; \
		prev=$$stats; sleep 0.2; \
	done; \
	ciocs=$$(field "$$stats" ciocs); edits=$$(field "$$stats" cluster_edits); \
	eiocs=$$(field "$$stats" eiocs); unscorable=$$(field "$$stats" unscorable); \
	[ "$$ciocs" != 0 ] && [ "$$stats" = "$$prev" ] \
		|| { echo "obs-smoke: caispd /stats never settled after a feed flush: $$stats"; exit 1; }; \
	[ $$((ciocs + edits)) = $$((eiocs + unscorable)) ] \
		|| { echo "obs-smoke: caispd ciocs+cluster_edits != eiocs+unscorable: $$stats"; exit 1; }; \
	[ "$$(field "$$stats" store_failures)" = 0 ] \
		|| { echo "obs-smoke: caispd store failures: $$stats"; exit 1; }; \
	commits=$$(curl -fsS http://127.0.0.1:18450/metrics | awk '/^caisp_tip_store_total/ {n += $$NF} END {print n + 0}'); \
	[ "$$commits" = $$((ciocs + edits)) ] \
		|| { echo "obs-smoke: caispd stored $$commits revisions for $$((ciocs + edits)) cluster changes"; exit 1; }; \
	posted=4f7c2e1a-93d8-4b6e-a0c5-7d2b9e8f1a36; \
	analyzed() { curl -fsS http://127.0.0.1:18440/events/$$posted | grep '"caisp:eioc"' >/dev/null \
		&& curl -fsS http://127.0.0.1:18450/metrics | grep -x 'caisp_consumer_lag{consumer="analyzer"} 0' >/dev/null; }; \
	for post in first again; do \
		curl -fsS -o /dev/null --data-binary '{"Event":{"uuid":"'$$posted'","info":"obs-smoke cIoC for caispd","date":"2019-06-24","threat_level_id":4,"analysis":0,"distribution":1,"timestamp":"1561377600","Attribute":[{"uuid":"5b1e9c3d-2f4a-4c8e-9d7b-6a0f3e2c1b58","type":"vulnerability","category":"External analysis","value":"CVE-2017-9805","timestamp":"1561377600"}],"Tag":[{"name":"caisp:cioc"}]}}' \
			http://127.0.0.1:18440/events || { echo "obs-smoke: caispd refused the cIoC posted $$post"; exit 1; }; \
		for i in $$(seq 1 150); do analyzed && break; sleep 0.1; done; \
		analyzed || { echo "obs-smoke: caispd never scored the cIoC posted $$post with its analyzer lag at 0"; cat $$tmp/caispd.log; exit 1; }; \
	done; \
	curl -fsS -o /dev/null --data-binary "{\"client_id\":\"obs-smoke\",\"pattern\":\"[x-caisp:category = 'malware-domain']\"}" \
		http://127.0.0.1:18450/subscriptions || { echo "obs-smoke: caispd refused the subscription"; exit 1; }; \
	curl -fsS -o /dev/null --data-binary '{"Event":{"uuid":"6d0f3b2a-8c41-4e7f-9a15-2b7c9e4d1f80","info":"obs-smoke unscorable cIoC","date":"2019-06-24","threat_level_id":4,"analysis":0,"distribution":1,"timestamp":"1561377600","Attribute":[{"uuid":"e3a7c1d9-5b2f-4e86-a0d4-9c1b7f3e2a65","type":"text","category":"Other","value":"opaque-token","timestamp":"1561377600"}],"Tag":[{"name":"caisp:cioc"},{"name":"caisp:category=\"malware-domain\""}]}}' \
		http://127.0.0.1:18440/events || { echo "obs-smoke: caispd refused the unscorable cIoC"; exit 1; }; \
	detected() { m=$$(curl -fsS http://127.0.0.1:18450/metrics); \
		echo "$$m" | awk '/^caisp_subs_matches_total / {n = $$NF} END {exit !(n >= 1)}' \
		&& echo "$$m" | grep -x 'caisp_consumer_lag{consumer="detections"} 0' >/dev/null; }; \
	for i in $$(seq 1 150); do detected && break; sleep 0.1; done; \
	detected || { echo "obs-smoke: caispd never matched the unscorable cIoC posted to its TIP with its detections lag at 0"; cat $$tmp/caispd.log; exit 1; }; \
	probe 127.0.0.1:18540 tipd; \
	probe 127.0.0.1:18552 heuristicd; \
	scored() { curl -fsS http://127.0.0.1:18540/events/$$cioc | grep '"caisp:eioc"' >/dev/null; }; \
	caught() { curl -fsS http://127.0.0.1:18540/metrics | grep -x 'caisp_consumer_lag{consumer="detections"} 0' >/dev/null; }; \
	for i in $$(seq 1 150); do scored && caught && break; sleep 0.1; done; \
	scored || { echo "obs-smoke: heuristicd never wrote the cIoC posted before it started back as an eIoC"; cat $$tmp/heuristicd.log; exit 1; }; \
	caught || { echo "obs-smoke: tipd detections lag behind its change log"; exit 1; }; \
	code=$$(head -c 33554433 /dev/zero | curl -s -o /dev/null -w '%{http_code}' --data-binary @- http://127.0.0.1:18540/events); \
	[ "$$code" = 413 ] || { echo "obs-smoke: oversized POST /events answered $$code, want 413"; exit 1; }; \
	sub=$$(curl -fsS --data-binary "{\"client_id\":\"obs-smoke\",\"pattern\":\"[x-caisp:category = 'malware-domain']\"}" \
		http://127.0.0.1:18540/subscriptions | sed -n 's/.*"id":"\([^"]*\)".*/\1/p'); \
	[ -n "$$sub" ] || { echo "obs-smoke: tipd refused the subscription"; exit 1; }; \
	kill $$tipd; wait $$tipd || true; \
	$$tmp/tipd -listen 127.0.0.1:18540 -data $$tmp/tipd-data >>$$tmp/tipd.log 2>&1 & \
	pids="$$pids $$!"; \
	up 127.0.0.1:18540 tipd; \
	curl -fsS http://127.0.0.1:18540/subscriptions | grep "\"id\":\"$$sub\"" >/dev/null \
		|| { echo "obs-smoke: tipd lost subscription $$sub across a restart on its -data dir"; cat $$tmp/tipd.log; exit 1; }; \
	echo "obs-smoke: caispd tipd heuristicd /healthz /readyz /cluster/status /metrics OK, oversized body 413, caispd committed $$commits revisions for $$((ciocs + edits)) cluster changes, caispd scored a posted cIoC and its re-post with analyzer lag 0, caispd matched an unscorable cIoC posted to its TIP with detections lag 0, heuristicd scored the cIoC posted before it started, tipd detections lag 0, tipd kept its subscription across a restart on its -data dir"

vet:
	$(GO) vet ./...

# Guard the copy-free read invariant: the only Clone() calls allowed in the
# storage package are pre-lock/post-lock copies, annotated "unlocked".
copyfree:
	@bad=$$(grep -n 'Clone()' internal/storage/*.go | grep -v '_test\.go' | grep -v 'unlocked' || true); \
	if [ -n "$$bad" ]; then \
		echo 'copyfree: unannotated Clone() in the storage read path (mark lock-free copies with "unlocked"):'; \
		echo "$$bad"; \
		exit 1; \
	fi

# Guard the metric-name contract: every caisp_* literal registered in
# non-test sources matches caisp_[a-z_]+ (lowercase, no digits) and is
# registered exactly once. ("caisp_" alone is the validator's own prefix
# constant; caisp_snapshot is a storage JSON tag, not a metric.)
metrics-lint:
	@names=$$(grep -rhoE '"caisp_[^"]*"' internal cmd --include='*.go' --exclude='*_test.go' \
		| grep -vx '"caisp_"' | grep -vx '"caisp_snapshot"'); \
	bad=$$(echo "$$names" | grep -vE '^"caisp_[a-z_]+"$$' || true); \
	if [ -n "$$bad" ]; then \
		echo 'metrics-lint: metric names must match caisp_[a-z_]+:'; \
		echo "$$bad"; \
		exit 1; \
	fi; \
	dup=$$(echo "$$names" | sort | uniq -d); \
	if [ -n "$$dup" ]; then \
		echo 'metrics-lint: metric names registered more than once:'; \
		echo "$$dup"; \
		exit 1; \
	fi; \
	for want in caisp_subs_registered caisp_subs_eval_seconds caisp_subs_matches_total caisp_subs_candidates_per_event caisp_subs_rejected_total \
		caisp_subs_expired_total \
		caisp_mesh_pages_total caisp_mesh_events_pulled_total caisp_mesh_events_imported_total caisp_mesh_echo_suppressed_total \
		caisp_mesh_conflicts_total caisp_mesh_lag_seconds caisp_mesh_sync_seconds caisp_mesh_deletes_applied_total \
		caisp_lifecycle_rescored_total caisp_lifecycle_expired_total caisp_lifecycle_sighting_refreshes_total \
		caisp_lifecycle_scan_seconds caisp_lifecycle_tracked \
		caisp_mesh_last_success_unix_seconds caisp_mesh_hop_latency_seconds caisp_mesh_replication_seconds \
		caisp_health_status caisp_health_check_status caisp_tip_changes_parked caisp_consumer_lag \
		caisp_build_info caisp_go_goroutines caisp_go_heap_bytes caisp_analyzer_blocks_total \
		caisp_wsock_queue_depth caisp_wsock_evicted_total caisp_wsock_push_seconds \
		caisp_feed_fetches_total caisp_feed_errors_total caisp_feed_not_modified_total \
		caisp_feed_records_total caisp_feed_malformed_total caisp_mesh_errors_total caisp_mesh_backoff_seconds \
		caisp_pipeline_collected_total caisp_pipeline_unique_total caisp_pipeline_duplicates_total \
		caisp_dedup_seen_total caisp_dedup_unique_total caisp_dedup_duplicates_total; do \
		echo "$$names" | grep -qx "\"$$want\"" || { \
			echo "metrics-lint: required metric $$want is not registered"; exit 1; }; \
	done; \
	echo "metrics-lint: $$(echo "$$names" | wc -l) metric name literals OK"

# One clock: time reaches a component as a clock.Clock (internal/clock),
# so the loops that schedule work and the code that evaluates it read the
# same instant. A bare func() time.Time or a WithNow option is a second
# way in.
clock-lint:
	@bad=$$(grep -rnE --include='*.go' --exclude='*_test.go' \
		'func\(\) time\.Time|func WithNow\(' internal cmd examples *.go || true); \
	if [ -n "$$bad" ]; then \
		echo 'clock-lint: inject time as a clock.Clock, not a func() time.Time or WithNow:'; \
		echo "$$bad"; \
		exit 1; \
	fi; \
	echo 'clock-lint: OK'

# One pool: a fan-out runs on internal/par's Do, which alone sizes
# itself from runtime.GOMAXPROCS. A GOMAXPROCS call elsewhere is a
# second pool, with its own sizing, ordering and yield to keep in step
# (the yield is what lets a woken dashboard or match writer deliver at
# once while the pool fills every P).
pool-lint:
	@bad=$$(grep -rn --include='*.go' --exclude='*_test.go' \
		'runtime\.GOMAXPROCS(' internal cmd examples *.go | grep -v '^internal/par/' || true); \
	if [ -n "$$bad" ]; then \
		echo 'pool-lint: fan out on par.Do (internal/par), not a pool sized from runtime.GOMAXPROCS:'; \
		echo "$$bad"; \
		exit 1; \
	fi; \
	echo 'pool-lint: OK'

# Production paths only: every exported func With… under internal/ is
# called from a non-test .go file other than its definition — as
# pkg.WithX( from any package, or WithX( from its own; a comment or a
# string that names it does not count. cmd/,
# examples/, the root package and bench/ all count as callers (bench/ is
# how bus.WithBuffer and mesh.WithLogger pass). An option only tests set
# belongs in its package's tests. The allow-list holds the exemptions:
#   storage.WithSync  the only fsync path; durability code is kept
#   taxii.WithAPIKey  the TAXII server's authentication check
#   obs.WithClock     lets tests substitute clock.Fake in the tracer
option-lint:
	@allow=' storage.WithSync taxii.WithAPIKey obs.WithClock '; bad=''; \
	for f in $$(grep -rlE --include='*.go' --exclude='*_test.go' '^func With[A-Z]' internal); do \
		dir=$$(dirname $$f); pkg=$$(sed -n 's/^package \([a-z0-9_]*\).*/\1/p' $$f | head -1); \
		for name in $$(sed -nE 's/^func (With[A-Za-z0-9_]*)\(.*/\1/p' $$f); do \
			case "$$allow" in *" $$pkg.$$name "*) continue;; esac; \
			grep -rhE --include='*.go' --exclude='*_test.go' "\b$$pkg\.$$name\(" internal cmd examples bench *.go \
				| grep -qvE '^[[:space:]]*//' && continue; \
			grep -hE "\b$$name\(" $$(ls $$dir/*.go | grep -v '_test\.go$$') \
				| grep -vE "^func $$name\(" | grep -qvE '^[[:space:]]*//' && continue; \
			bad="$$bad $$pkg.$$name"; \
		done; \
	done; \
	if [ -n "$$bad" ]; then \
		echo 'option-lint: exported options with no production caller (delete them, or set the field from the package tests):'; \
		echo "$$bad" | tr ' ' '\n' | grep .; \
		exit 1; \
	fi; \
	echo 'option-lint: OK'

# One door into the store: a revision is validated where it enters the
# program, in internal/tip (tip.Service.ImportEvents, which every write
# from outside goes through), and the store, the STIX converter and the
# rest trust what reaches them. A misp.Event Validate call anywhere else
# is a second copy of that policy to keep in step, and CPU spent on every
# revision again. The infrastructure inventory's own Validate (called on
# an inv or inventory value) is another method and is exempt.
door-lint:
	@bad=$$(grep -rnE --include='*.go' --exclude='*_test.go' '\.Validate\(\)' internal cmd examples *.go \
		| grep -v '^internal/tip/' | grep -vE '\b(inv|inventory)\.Validate\(\)' || true); \
	if [ -n "$$bad" ]; then \
		echo 'door-lint: misp.Event Validate is called only in internal/tip, where revisions enter:'; \
		echo "$$bad"; \
		exit 1; \
	fi; \
	echo 'door-lint: OK'

check: vet build test race copyfree metrics-lint clock-lint pool-lint option-lint door-lint fuzz-smoke bench-e2e-smoke obs-smoke

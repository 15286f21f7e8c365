GO ?= go

.PHONY: build test race bench fuzz-smoke bench-e2e-smoke bench-read bench-durability bench-correlate bench-obs bench-fanout bench-subs bench-mesh bench-lifecycle obs-smoke vet copyfree metrics-lint clock-lint option-lint check

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
# a third answer, and each kept event span decodes to its event), the WAL
# segment scanner and the STIX pattern parser.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeList -fuzztime 10s ./internal/misp/
	$(GO) test -run '^$$' -fuzz FuzzScanSegment -fuzztime 10s ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzParseMatch -fuzztime 10s ./internal/stixpattern/

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

# Fan-out suite: sharded broadcast to fast-only vs slow-mix client
# populations — the EXPERIMENTS.md §X10 numbers.
bench-fanout:
	$(GO) test -run '^$$' -bench '^BenchmarkFanout' -benchmem ./internal/wsock/

# Subscription suite: indexed pattern evaluation across 1k/10k/100k
# standing patterns, registration churn, and
# the parse-time regexp precompilation deltas — the EXPERIMENTS.md §X11
# numbers.
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
# tipd with its publish socket, and heuristicd with -metrics subscribed
# to that tipd — and assert every probe surface answers on each:
# /healthz (live), /readyz (ready with an "ok" verdict), /cluster/status
# (the node's role) and /metrics (build info present). tipd must also
# answer a POST /events one byte over its 32 MiB cap with 413. Exits
# nonzero when a daemon does not come up within 15s or any probe fails.
obs-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	for d in caispd tipd heuristicd; do $(GO) build -o $$tmp/$$d ./cmd/$$d; done; \
	pids=''; \
	trap 'kill $$pids 2>/dev/null; rm -rf $$tmp' EXIT; \
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
	$$tmp/tipd -listen 127.0.0.1:18540 -publish 127.0.0.1:18541 >$$tmp/tipd.log 2>&1 & \
	pids="$$pids $$!"; \
	up 127.0.0.1:18540 tipd; \
	$$tmp/heuristicd -bus 127.0.0.1:18541 -tip http://127.0.0.1:18540 -metrics 127.0.0.1:18552 >$$tmp/heuristicd.log 2>&1 & \
	pids="$$pids $$!"; \
	up 127.0.0.1:18450 caispd; \
	up 127.0.0.1:18552 heuristicd; \
	probe 127.0.0.1:18450 caispd; \
	probe 127.0.0.1:18540 tipd; \
	probe 127.0.0.1:18552 heuristicd; \
	code=$$(head -c 33554433 /dev/zero | curl -s -o /dev/null -w '%{http_code}' --data-binary @- http://127.0.0.1:18540/events); \
	[ "$$code" = 413 ] || { echo "obs-smoke: oversized POST /events answered $$code, want 413"; exit 1; }; \
	echo 'obs-smoke: caispd tipd heuristicd /healthz /readyz /cluster/status /metrics OK, oversized body 413'

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
		caisp_health_status caisp_health_check_status caisp_tip_changes_parked \
		caisp_build_info caisp_go_goroutines caisp_go_heap_bytes; do \
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

check: vet build test race copyfree metrics-lint clock-lint option-lint fuzz-smoke bench-e2e-smoke obs-smoke

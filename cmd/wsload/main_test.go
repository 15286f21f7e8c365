package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestRunSmoke drives a small load end-to-end: every fast client receives
// every broadcast, the stalled cohort is evicted, and latency percentiles
// are reported.
func TestRunSmoke(t *testing.T) {
	cfg := config{
		clients:      64,
		slow:         2,
		probes:       8,
		queue:        16,
		messages:     10,
		interval:     time.Millisecond,
		payload:      128,
		bufSize:      512,
		writeTimeout: 2 * time.Second,
		drainWait:    10 * time.Second,
	}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	t.Log(report)
	if !strings.Contains(report, "delivered 620/620 frames") {
		t.Fatalf("fast clients did not receive every frame:\n%s", report)
	}
	if !strings.Contains(report, "evicted 2") {
		t.Fatalf("stalled cohort not evicted:\n%s", report)
	}
	if !strings.Contains(report, "push latency") {
		t.Fatalf("no latency report:\n%s", report)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if err := run(config{clients: 0}, &bytes.Buffer{}); err == nil {
		t.Fatal("clients=0 accepted")
	}
	if err := run(config{clients: 4, slow: 4}, &bytes.Buffer{}); err == nil {
		t.Fatal("all-slow population accepted")
	}
}

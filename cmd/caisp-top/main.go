// Command caisp-top is the fleet status view: it polls each node's
// GET /cluster/status endpoint and renders one row per node — ingest
// rate, store watermarks, replication lag against every peer, and the
// health verdict with its degraded reasons. Point it at an N-node mesh
// (caispd or tipd instances) and watch replication converge:
//
//	caisp-top -node a=http://localhost:9101 -node b=http://localhost:9102
//
// With -once it prints a single snapshot and exits (scripts, smoke
// tests); otherwise it redraws on every poll interval like top(1).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/caisplatform/caisp/internal/obs/health"
)

// nodeFlags collects repeatable -node values ("name=url" or a bare URL,
// in which case the host:port becomes the display name).
type nodeFlags []string

func (n *nodeFlags) String() string     { return strings.Join(*n, ",") }
func (n *nodeFlags) Set(v string) error { *n = append(*n, v); return nil }

// target is one node to poll.
type target struct {
	name string
	url  string
}

// sample is one poll of one node: its status, or the error that kept
// us from getting it.
type sample struct {
	target target
	status health.NodeStatus
	err    error
	at     time.Time
}

func main() {
	var nodes nodeFlags
	flag.Var(&nodes, "node", "node status endpoint as name=url or url (repeatable)")
	interval := flag.Duration("interval", 2*time.Second, "poll interval")
	once := flag.Bool("once", false, "print one snapshot and exit")
	timeout := flag.Duration("timeout", 3*time.Second, "per-node request timeout")
	flag.Parse()
	if err := run(nodes, *interval, *timeout, *once, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "caisp-top:", err)
		os.Exit(1)
	}
}

func run(nodes nodeFlags, interval, timeout time.Duration, once bool, out io.Writer) error {
	targets, err := parseTargets(nodes)
	if err != nil {
		return err
	}
	if len(targets) == 0 {
		return fmt.Errorf("no -node targets given")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	client := &http.Client{Timeout: timeout}

	// prev holds the previous round's samples so rates can be
	// differentiated from the monotonic ingest counters.
	prev := map[string]sample{}
	for {
		samples := pollAll(ctx, client, targets)
		frame := render(samples, prev)
		if !once {
			// Clear and re-home like top(1); plain append when piped.
			fmt.Fprint(out, "\x1b[H\x1b[2J")
		}
		fmt.Fprint(out, frame)
		if once {
			return nil
		}
		for _, s := range samples {
			if s.err == nil {
				prev[s.target.name] = s
			}
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(interval):
		}
	}
}

// parseTargets resolves the -node flags, defaulting names to host:port.
func parseTargets(nodes nodeFlags) ([]target, error) {
	targets := make([]target, 0, len(nodes))
	seen := map[string]bool{}
	for _, raw := range nodes {
		name, endpoint := "", raw
		if i := strings.Index(raw, "="); i > 0 && !strings.Contains(raw[:i], "/") {
			name, endpoint = raw[:i], raw[i+1:]
		}
		u, err := url.Parse(endpoint)
		if err != nil || u.Host == "" {
			return nil, fmt.Errorf("bad -node %q (want name=url or url)", raw)
		}
		if name == "" {
			name = u.Host
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate node name %q", name)
		}
		seen[name] = true
		targets = append(targets, target{name: name, url: strings.TrimSuffix(endpoint, "/")})
	}
	return targets, nil
}

// pollAll fetches every target's status concurrently.
func pollAll(ctx context.Context, client *http.Client, targets []target) []sample {
	samples := make([]sample, len(targets))
	done := make(chan int, len(targets))
	for i, t := range targets {
		go func(i int, t target) {
			st, err := fetchStatus(ctx, client, t.url)
			samples[i] = sample{target: t, status: st, err: err, at: time.Now()}
			done <- i
		}(i, t)
	}
	for range targets {
		<-done
	}
	return samples
}

func fetchStatus(ctx context.Context, client *http.Client, base string) (health.NodeStatus, error) {
	var st health.NodeStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/cluster/status", nil)
	if err != nil {
		return st, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("decode: %w", err)
	}
	return st, nil
}

// render formats one frame of the fleet view. prev (keyed by node name)
// supplies the previous round's counters for rate differentiation.
func render(samples []sample, prev map[string]sample) string {
	var b strings.Builder
	fmt.Fprintf(&b, "caisp-top  %s  (%d nodes)\n\n",
		time.Now().Format("15:04:05"), len(samples))
	fmt.Fprintf(&b, "%-10s %-10s %9s %10s %8s %8s %7s  %-9s %s\n",
		"NODE", "ROLE", "EVENTS", "STORESEQ", "ING/S", "WALOPS", "CLIENTS", "HEALTH", "PEER LAG")
	for _, s := range samples {
		if s.err != nil {
			fmt.Fprintf(&b, "%-10s %-10s %s\n", s.target.name, "-", "unreachable: "+s.err.Error())
			continue
		}
		st := s.status
		rate := "-"
		if p, ok := prev[s.target.name]; ok && s.at.After(p.at) {
			dt := s.at.Sub(p.at).Seconds()
			if dt > 0 && st.IngestTotal >= p.status.IngestTotal {
				rate = fmt.Sprintf("%.1f", float64(st.IngestTotal-p.status.IngestTotal)/dt)
			}
		}
		fmt.Fprintf(&b, "%-10s %-10s %9d %10d %8s %8d %7d  %-9s %s\n",
			st.Node, st.Role, st.Events, st.StoreSeq, rate, st.WALOps, st.Clients,
			st.Health.Status, peerLagSummary(st.Peers))
		for _, c := range st.Health.Checks {
			if c.Status != health.OK.String() {
				fmt.Fprintf(&b, "%-10s   ! %s: %s (%s)\n", "", c.Name, c.Status, c.Detail)
			}
		}
	}
	return b.String()
}

// peerLagSummary compresses the per-peer watermarks into one cell:
// "peer:lag" pairs, failing peers marked with their failure count.
func peerLagSummary(peers []health.PeerInfo) string {
	if len(peers) == 0 {
		return "-"
	}
	sorted := append([]health.PeerInfo(nil), peers...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	parts := make([]string, 0, len(sorted))
	for _, p := range sorted {
		cell := fmt.Sprintf("%s:%.1fs", p.Name, p.LagSeconds)
		if p.Failures > 0 {
			cell += fmt.Sprintf("(x%d)", p.Failures)
		}
		parts = append(parts, cell)
	}
	return strings.Join(parts, " ")
}

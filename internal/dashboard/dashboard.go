// Package dashboard implements the Output Module's visualization server
// (paper §III-C1): a graphical representation of the infrastructure
// topology where each node shows a circle with the number and severity of
// its alarms (green/yellow/red) and a star with the number of rIoCs
// associated to it (Fig. 2); a detail view per node with type, IPs,
// operating system and connected networks (Fig. 3); and per-rIoC detail
// with CVE, description, affected asset and threat score (Fig. 4).
// Reduced IoCs and alarms are pushed live to connected browsers over
// WebSockets (the paper's socket.io channel).
package dashboard

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/sessions"
	"github.com/caisplatform/caisp/internal/subscribe"
	"github.com/caisplatform/caisp/internal/wsock"
)

// NodeSummary is one node of the Fig. 2 topology view.
type NodeSummary struct {
	ID       string   `json:"id"`
	Name     string   `json:"name"`
	Type     string   `json:"type,omitempty"`
	Networks []string `json:"networks,omitempty"`
	// Alarms maps severity colour → count (the circle indicator).
	Alarms map[string]int `json:"alarms"`
	// AlarmTotal is the total number of alarms on the node.
	AlarmTotal int `json:"alarm_total"`
	// RIoCs is the number of reduced IoCs associated to the node (the
	// star indicator).
	RIoCs int `json:"riocs"`
}

// Topology is the Fig. 2 payload.
type Topology struct {
	Nodes []NodeSummary `json:"nodes"`
	// Networks lists the distinct networks nodes connect to.
	Networks []string `json:"networks"`
}

// NodeDetail is the Fig. 3 payload: the separate tab with "the type of
// node, the IP addresses, the operating system and the connected networks"
// plus the node's security data.
type NodeDetail struct {
	Node   infra.Node       `json:"node"`
	Alarms []infra.Alarm    `json:"alarms"`
	RIoCs  []heuristic.RIoC `json:"riocs"`
}

// Event is the WebSocket push envelope. Seq is the dashboard revision the
// push produced (rIoC pushes) or was emitted at (alarms); clients keep the
// highest Seq they have applied and present it as ?since= on reconnect to
// receive a delta snapshot instead of full state.
type Event struct {
	Kind  string          `json:"kind"` // "rioc" or "alarm"
	Seq   uint64          `json:"seq,omitempty"`
	RIoC  *heuristic.RIoC `json:"rioc,omitempty"`
	Alarm *infra.Alarm    `json:"alarm,omitempty"`
}

// Snapshot is the first WebSocket message a connecting client receives:
// the rIoC state as of Revision. Full reports whether it is the complete
// state or only the entries changed since the client's ?since= revision.
// Individual pushes racing the handshake may arrive before the snapshot;
// they carry Seq ≤ Revision when already folded into it, so clients
// merging by Seq converge either way.
type Snapshot struct {
	Kind     string           `json:"kind"` // "snapshot"
	Full     bool             `json:"full"`
	Revision uint64           `json:"revision"`
	RIoCs    []heuristic.RIoC `json:"riocs"`
}

// Server is the dashboard backend.
type Server struct {
	collector *infra.Collector
	hub       *wsock.Hub
	logger    *slog.Logger
	slowAt    time.Duration // slow-push log threshold; 0 disables

	metricsReg  *obs.Registry
	pushDur     *obs.Histogram // caisp_dashboard_push_seconds; nil without WithMetrics
	revisionLag *obs.Histogram // caisp_dashboard_revision_lag_seconds

	mu    sync.RWMutex
	riocs []heuristic.RIoC
	// riocIdx maps (event UUID, rIoC ID) → position in riocs, so re-scores
	// of a grown cluster update the entry in place instead of duplicating
	// it in every count.
	riocIdx map[string]int
	// seq is the dashboard revision: it advances on every rIoC push and
	// drop. seqs[i] records the revision that last wrote riocs[i], driving
	// the ?since= delta snapshot on connect; baseSeq is the oldest revision
	// deltas can still be cut from (drops advance it — a removal cannot be
	// replayed, so older clients fall back to a full snapshot).
	seq     uint64
	seqs    []uint64
	baseSeq uint64

	analyzer *sessions.Analyzer
	marks    []timelineMark

	mux *http.ServeMux
}

// timelineMark records one pushed artifact for the streaming view.
type timelineMark struct {
	at   time.Time
	kind string // "rioc" or "alarm"
}

// TimelineBucket is one minute of dashboard activity.
type TimelineBucket struct {
	Minute time.Time `json:"minute"`
	RIoCs  int       `json:"riocs"`
	Alarms int       `json:"alarms"`
}

// Option configures a Server.
type Option interface{ apply(*Server) }

type loggerOption struct{ l *slog.Logger }

func (o loggerOption) apply(s *Server) { s.logger = o.l }

// WithLogger sets the dashboard's logger (slow-push reports; see
// WithSlowThreshold). Nil restores the default logger.
func WithLogger(l *slog.Logger) Option { return loggerOption{l: l} }

type slowThresholdOption time.Duration

func (o slowThresholdOption) apply(s *Server) { s.slowAt = time.Duration(o) }

// WithSlowThreshold logs a warning with the originating event UUID for
// every PushRIoC slower than d (store plus WebSocket broadcast). Zero (the
// default) disables slow-push logging.
func WithSlowThreshold(d time.Duration) Option { return slowThresholdOption(d) }

type metricsOption struct{ reg *obs.Registry }

func (o metricsOption) apply(s *Server) {
	if o.reg == nil {
		return
	}
	s.metricsReg = o.reg
	s.pushDur = o.reg.Histogram("caisp_dashboard_push_seconds",
		"PushRIoC latency: in-place store plus WebSocket broadcast.")
	s.revisionLag = o.reg.Histogram("caisp_dashboard_revision_lag_seconds",
		"Age of a pushed rIoC at dashboard arrival (now minus GeneratedAt).",
		0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 60, 300)
	o.reg.GaugeFunc("caisp_dashboard_riocs",
		"Reduced IoCs currently shown on the dashboard.",
		func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(len(s.riocs))
		})
	o.reg.GaugeFunc("caisp_dashboard_ws_clients",
		"Connected WebSocket clients.",
		func() float64 { return float64(s.hub.Len()) })
}

// WithMetrics registers the dashboard's caisp_dashboard_* families into
// reg (nil disables instrumentation).
func WithMetrics(reg *obs.Registry) Option { return metricsOption{reg: reg} }

// NewServer builds a dashboard over an infrastructure collector.
func NewServer(collector *infra.Collector, opts ...Option) *Server {
	s := &Server{
		collector: collector,
		logger:    slog.Default(),
		riocIdx:   make(map[string]int),
		mux:       http.NewServeMux(),
	}
	for _, o := range opts {
		o.apply(s)
	}
	if s.logger == nil {
		s.logger = slog.Default()
	}
	// The hub is built after options so WithMetrics can register its
	// families (the ws_clients gauge above reads s.hub lazily at scrape).
	s.hub = wsock.NewHub(wsock.WithHubMetrics(s.metricsReg))
	s.mux.HandleFunc("GET /", s.handleIndex)
	s.mux.HandleFunc("GET /api/topology", s.handleTopology)
	s.mux.HandleFunc("GET /api/nodes/{id}", s.handleNode)
	s.mux.HandleFunc("GET /api/alarms", s.handleAlarms)
	s.mux.HandleFunc("GET /api/riocs", s.handleRIoCs)
	s.mux.HandleFunc("GET /api/riocs/{id}", s.handleRIoCDetail)
	s.mux.HandleFunc("GET /ws", s.handleWS)
	s.mux.HandleFunc("GET /api/sessions", s.handleSessions)
	s.mux.HandleFunc("GET /api/sessions/compare", s.handleSessionCompare)
	s.mux.HandleFunc("GET /api/timeline", s.handleTimeline)
	return s
}

// SetSubscriptions mounts the streaming-detection surface on the
// dashboard listener: /subscriptions REST plus the /ws/matches match
// stream. Its routes are more specific than the GET / index catch-all,
// so mounting order does not matter.
func (s *Server) SetSubscriptions(a *subscribe.API) { a.Register(s.mux) }

// SetSessionAnalyzer attaches the §II-B user-activity analyzer; the
// /api/sessions endpoints serve its summaries.
func (s *Server) SetSessionAnalyzer(a *sessions.Analyzer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.analyzer = a
}

func (s *Server) sessionAnalyzer() *sessions.Analyzer {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.analyzer
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	a := s.sessionAnalyzer()
	if a == nil {
		obs.WriteJSON(w, http.StatusNotFound, map[string]string{"error": "session analytics not enabled"})
		return
	}
	topK := 10
	if raw := r.URL.Query().Get("top"); raw != "" {
		if n, err := strconv.Atoi(raw); err == nil && n > 0 {
			topK = n
		}
	}
	obs.WriteJSON(w, http.StatusOK, a.Summarize(topK))
}

func (s *Server) handleSessionCompare(w http.ResponseWriter, r *http.Request) {
	a := s.sessionAnalyzer()
	if a == nil {
		obs.WriteJSON(w, http.StatusNotFound, map[string]string{"error": "session analytics not enabled"})
		return
	}
	cmp, err := a.Compare(r.URL.Query().Get("a"), r.URL.Query().Get("b"))
	if err != nil {
		obs.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	obs.WriteJSON(w, http.StatusOK, cmp)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// PushRIoC stores a reduced IoC and broadcasts it to connected clients. A
// push carrying the same (event UUID, rIoC ID) as an earlier one is a
// re-score of the same cluster: the stored entry is replaced in place with
// a bumped Revision, so dashboard counts never double-count a cluster that
// grew across flush batches.
func (s *Server) PushRIoC(r heuristic.RIoC) {
	var start time.Time
	if s.pushDur != nil || s.slowAt > 0 {
		start = time.Now()
	}
	if s.revisionLag != nil && !r.GeneratedAt.IsZero() {
		s.revisionLag.Observe(time.Since(r.GeneratedAt).Seconds())
	}
	s.mu.Lock()
	key := riocKey(&r)
	s.seq++
	seq := s.seq
	if i, ok := s.riocIdx[key]; ok {
		r.Revision = s.riocs[i].Revision + 1
		// Copy-on-write replacement: RIoCs() hands out capacity-clipped
		// views of s.riocs, so past elements must never be rewritten.
		fresh := make([]heuristic.RIoC, len(s.riocs))
		copy(fresh, s.riocs)
		fresh[i] = r
		s.riocs = fresh
		s.seqs[i] = seq
	} else {
		s.riocIdx[key] = len(s.riocs)
		s.riocs = append(s.riocs, r)
		s.seqs = append(s.seqs, seq)
	}
	s.mark(r.GeneratedAt, "rioc")
	s.mu.Unlock()
	s.broadcast(Event{Kind: "rioc", Seq: seq, RIoC: &r})
	if !start.IsZero() {
		elapsed := time.Since(start)
		if s.pushDur != nil {
			s.pushDur.Observe(elapsed.Seconds())
		}
		if s.slowAt > 0 && elapsed > s.slowAt {
			s.logger.Warn("slow dashboard push",
				"stage", "publish", "event_uuid", r.EventUUID, "rioc_id", r.ID,
				"elapsed_ms", float64(elapsed)/float64(time.Millisecond),
				"threshold_ms", float64(s.slowAt)/float64(time.Millisecond))
		}
	}
}

// DropEventRIoCs removes every rIoC reduced from the given stored event —
// called when a cluster is absorbed into a survivor and its MISP event
// retracted. It returns how many entries were dropped.
func (s *Server) DropEventRIoCs(eventUUID string) int {
	if eventUUID == "" {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	for _, r := range s.riocs {
		if r.EventUUID == eventUUID {
			dropped++
		}
	}
	if dropped == 0 {
		return 0
	}
	fresh := make([]heuristic.RIoC, 0, len(s.riocs)-dropped)
	freshSeqs := make([]uint64, 0, len(s.riocs)-dropped)
	idx := make(map[string]int, len(s.riocs)-dropped)
	for i, r := range s.riocs {
		if r.EventUUID == eventUUID {
			continue
		}
		idx[riocKey(&r)] = len(fresh)
		fresh = append(fresh, r)
		freshSeqs = append(freshSeqs, s.seqs[i])
	}
	s.riocs = fresh
	s.seqs = freshSeqs
	s.riocIdx = idx
	// A removal cannot be expressed as a delta; clients whose ?since=
	// predates it must take a full snapshot.
	s.seq++
	s.baseSeq = s.seq
	return dropped
}

// riocKey identifies one dashboard entry: the rIoC ID scoped by the MISP
// event it came from (deterministic SDO IDs collide across clusters that
// share e.g. a CVE).
func riocKey(r *heuristic.RIoC) string {
	return r.EventUUID + "\x00" + r.ID
}

// PushAlarm broadcasts an alarm (already recorded in the collector).
func (s *Server) PushAlarm(a infra.Alarm) {
	s.mu.Lock()
	s.mark(a.At, "alarm")
	seq := s.seq
	s.mu.Unlock()
	s.broadcast(Event{Kind: "alarm", Seq: seq, Alarm: &a})
}

// mark appends to the streaming timeline; caller holds the write lock. The
// buffer is bounded: the oldest half is dropped past 10000 marks.
func (s *Server) mark(at time.Time, kind string) {
	if at.IsZero() {
		at = time.Now().UTC()
	}
	s.marks = append(s.marks, timelineMark{at: at.UTC(), kind: kind})
	if len(s.marks) > 10000 {
		s.marks = append([]timelineMark(nil), s.marks[len(s.marks)/2:]...)
	}
}

// Timeline aggregates pushed artifacts into per-minute buckets, oldest
// first — the dashboard's view of "data that is under constant change,
// i.e., real-time streaming data" (§II-B).
func (s *Server) Timeline() []TimelineBucket {
	s.mu.RLock()
	defer s.mu.RUnlock()
	byMinute := make(map[time.Time]*TimelineBucket)
	for _, m := range s.marks {
		minute := m.at.Truncate(time.Minute)
		b := byMinute[minute]
		if b == nil {
			b = &TimelineBucket{Minute: minute}
			byMinute[minute] = b
		}
		switch m.kind {
		case "rioc":
			b.RIoCs++
		case "alarm":
			b.Alarms++
		}
	}
	out := make([]TimelineBucket, 0, len(byMinute))
	for _, b := range byMinute {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Minute.Before(out[j].Minute) })
	return out
}

func (s *Server) handleTimeline(w http.ResponseWriter, _ *http.Request) {
	obs.WriteJSON(w, http.StatusOK, s.Timeline())
}

// RIoCs returns the stored reduced IoCs as a shared immutable snapshot.
// Past elements of s.riocs are never rewritten — appends either grow a
// private tail or reallocate, and in-place updates / drops replace the
// whole slice copy-on-write — so a capacity-clipped slice header is a
// consistent copy-free view.
func (s *Server) RIoCs() []heuristic.RIoC {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.riocs[:len(s.riocs):len(s.riocs)]
}

// RIoCsForNode filters rIoCs touching the given node.
func (s *Server) RIoCsForNode(nodeID string) []heuristic.RIoC {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []heuristic.RIoC
	for _, r := range s.riocs {
		for _, id := range r.NodeIDs {
			if id == nodeID {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

// ClientCount reports connected WebSocket clients.
func (s *Server) ClientCount() int { return s.hub.Len() }

// HubSaturation reports the fill fraction [0,1] of the deepest client
// send queue on the last broadcast — the hub-saturation health signal.
func (s *Server) HubSaturation() float64 { return s.hub.QueueSaturation() }

// Revision returns the current dashboard revision — the value a client
// would present as ?since= to receive only newer changes.
func (s *Server) Revision() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seq
}

// Close drops all WebSocket clients and stops the hub.
func (s *Server) Close() { s.hub.Close() }

// BuildTopology assembles the Fig. 2 view model.
func (s *Server) BuildTopology() Topology {
	inv := s.collector.Inventory()
	topo := Topology{Nodes: make([]NodeSummary, 0, len(inv.Nodes))}
	networkSet := make(map[string]bool)
	for _, n := range inv.Nodes {
		counts := s.collector.SeverityCounts(n.ID)
		alarms := map[string]int{
			infra.SeverityLow.String():    counts[infra.SeverityLow],
			infra.SeverityMedium.String(): counts[infra.SeverityMedium],
			infra.SeverityHigh.String():   counts[infra.SeverityHigh],
		}
		total := counts[infra.SeverityLow] + counts[infra.SeverityMedium] + counts[infra.SeverityHigh]
		topo.Nodes = append(topo.Nodes, NodeSummary{
			ID:         n.ID,
			Name:       n.Name,
			Type:       n.Type,
			Networks:   n.Networks,
			Alarms:     alarms,
			AlarmTotal: total,
			RIoCs:      len(s.RIoCsForNode(n.ID)),
		})
		for _, net := range n.Networks {
			networkSet[net] = true
		}
	}
	for net := range networkSet {
		topo.Networks = append(topo.Networks, net)
	}
	sort.Strings(topo.Networks)
	return topo
}

// RenderTopology prints the Fig. 2 view as text: one line per node with
// the alarm circle (● counts by colour) and the rIoC star (★ count).
func (s *Server) RenderTopology() string {
	topo := s.BuildTopology()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %-10s %-28s %s\n", "NODE", "NAME", "ALARMS ●(g/y/r)", "rIoCs ★")
	for _, n := range topo.Nodes {
		fmt.Fprintf(&sb, "%-8s %-10s g:%-3d y:%-3d r:%-3d (tot %-3d)  ★ %d\n",
			n.ID, n.Name,
			n.Alarms["green"], n.Alarms["yellow"], n.Alarms["red"],
			n.AlarmTotal, n.RIoCs)
	}
	fmt.Fprintf(&sb, "networks: %s\n", strings.Join(topo.Networks, ", "))
	return sb.String()
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(indexHTML))
}

func (s *Server) handleTopology(w http.ResponseWriter, _ *http.Request) {
	obs.WriteJSON(w, http.StatusOK, s.BuildTopology())
}

func (s *Server) handleNode(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	node := s.collector.Inventory().Node(id)
	if node == nil {
		obs.WriteJSON(w, http.StatusNotFound, map[string]string{"error": "unknown node " + id})
		return
	}
	detail := NodeDetail{
		Node:   *node,
		Alarms: s.collector.AlarmsForNode(id),
		RIoCs:  s.RIoCsForNode(id),
	}
	obs.WriteJSON(w, http.StatusOK, detail)
}

func (s *Server) handleAlarms(w http.ResponseWriter, _ *http.Request) {
	obs.WriteJSON(w, http.StatusOK, s.collector.Alarms())
}

func (s *Server) handleRIoCs(w http.ResponseWriter, _ *http.Request) {
	obs.WriteJSON(w, http.StatusOK, s.RIoCs())
}

// RIoCDetail is the on-demand drill-down view of one rIoC: the reduced
// fields plus the per-criterion breakdown of its threat score (§VI future
// work: "detailed information about each single criterion used in the
// evaluation of the score itself … properly displayed through the
// dashboard").
type RIoCDetail struct {
	RIoC      heuristic.RIoC            `json:"rioc"`
	Breakdown []heuristic.FeatureResult `json:"breakdown"`
}

func (s *Server) handleRIoCDetail(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Resolve under the lock, encode and write outside it: the snapshot
	// elements are immutable, and serialization must not stall pushers.
	for _, rioc := range s.RIoCs() {
		if rioc.ID == id {
			obs.WriteJSON(w, http.StatusOK, RIoCDetail{RIoC: rioc, Breakdown: rioc.Breakdown})
			return
		}
	}
	obs.WriteJSON(w, http.StatusNotFound, map[string]string{"error": "unknown rIoC " + id})
}

func (s *Server) handleWS(w http.ResponseWriter, r *http.Request) {
	var since uint64
	if raw := r.URL.Query().Get("since"); raw != "" {
		if v, err := strconv.ParseUint(raw, 10, 64); err == nil {
			since = v
		}
	}
	conn, err := wsock.Accept(w, r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	snap := s.connectSnapshot(conn, since)
	// Reader loop: answers pings, detects close, evicts on error.
	go func() {
		for {
			if _, _, err := conn.ReadMessage(); err != nil {
				s.hub.Remove(conn)
				_ = conn.Close()
				return
			}
		}
	}()
	if data, err := json.Marshal(snap); err == nil {
		_ = conn.WriteText(data)
	}
}

// connectSnapshot registers conn with the hub and cuts its greeting
// snapshot in one read-locked critical section, so no push can fall
// between the snapshot revision and broadcast registration. A client
// presenting since ≥ baseSeq gets only the entries written after its
// revision; anything older — including a revision from before a drop, or
// from a previous server life — falls back to the full state.
func (s *Server) connectSnapshot(conn *wsock.Conn, since uint64) Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.hub.Add(conn)
	snap := Snapshot{Kind: "snapshot", Revision: s.seq}
	if since == 0 || since < s.baseSeq || since > s.seq {
		snap.Full = true
		// Capacity-clipped copy-free view; see RIoCs.
		snap.RIoCs = s.riocs[:len(s.riocs):len(s.riocs)]
		return snap
	}
	for i := range s.riocs {
		if s.seqs[i] > since {
			snap.RIoCs = append(snap.RIoCs, s.riocs[i])
		}
	}
	return snap
}

// broadcast pushes one event to every client: a single JSON encode and a
// single frame assembly per message, shared by all connections.
func (s *Server) broadcast(ev Event) {
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	s.hub.BroadcastPrepared(wsock.PrepareText(data))
}

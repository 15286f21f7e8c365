// Package subscribe is the platform's streaming detection engine: clients
// register standing STIX 2 patterns over REST and receive match frames over
// WebSocket whenever an admitted cIoC/eIoC satisfies one. This is the
// SIEM-integration surface — a standing set of machine-readable detections
// evaluated continuously against live intelligence.
//
// The core is a pattern index built at registration time. Each parsed
// pattern's comparison expressions decompose into (object-path,
// operator-class, value) keys:
//
//   - non-negated equality and IN predicates hash-dispatch: a path's
//     value map finds them in O(1) regardless of how many patterns are
//     registered;
//   - ordered, CIDR, LIKE, MATCHES, negated and != predicates land in a
//     per-path candidate list, sized by how many such patterns watch that
//     path.
//
// Per admitted event the engine probes the index with the event's observed
// fields and runs the full evaluator only on candidates, so evaluation cost
// scales with matching candidates, not registered patterns. The index is
// sound because the evaluator treats absent object paths as false (even for
// negated comparisons): a pattern can only match an observation if at least
// one of its comparisons sees a present path, and every comparison's path
// is indexed.
package subscribe

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/stixpattern"
	"github.com/caisplatform/caisp/internal/uuid"
	"github.com/caisplatform/caisp/internal/wsock"
)

// Registration limits.
const (
	DefaultMaxPatternBytes = 4096
	DefaultMaxPerClient    = 1024
)

// sweepInterval is the cadence of the background sweep that reclaims
// TTL-expired subscriptions. Expired patterns stop matching at once; the
// sweep only frees their index slots and per-client quota.
const sweepInterval = time.Minute

// DefaultMatchQueueDepth sizes each watcher's send queue. Batch admission
// pushes match frames in microsecond bursts (one flush can admit hundreds
// of events), far faster than a TCP peer drains them — the hub's
// drop-slowest eviction would cut healthy watchers off mid-burst at the
// wsock default of 64. Queue entries are frame pointers, so depth is cheap.
const DefaultMatchQueueDepth = 4096

// Stage labels which admission point produced a matched event.
type Stage string

// Admission stages.
const (
	StageCIoC Stage = "cioc" // composed cluster admitted by the correlator
	StageEIoC Stage = "eioc" // scored event admitted by the analyzer
)

// ErrNotFound reports an unsubscribe for an unknown subscription ID.
var ErrNotFound = errors.New("subscribe: no such subscription")

// PatternTooLargeError rejects a registration whose pattern source exceeds
// the engine's length cap.
type PatternTooLargeError struct {
	Length, Limit int
}

// Error describes the violated cap.
func (e *PatternTooLargeError) Error() string {
	return fmt.Sprintf("subscribe: pattern is %d bytes, limit %d", e.Length, e.Limit)
}

// ClientLimitError rejects a registration that would push a client past its
// subscription quota. The API layer maps it to 429.
type ClientLimitError struct {
	ClientID string
	Limit    int
}

// Error describes the exhausted quota.
func (e *ClientLimitError) Error() string {
	return fmt.Sprintf("subscribe: client %q has reached the subscription limit (%d)", e.ClientID, e.Limit)
}

// Subscription is the REST representation of one registered pattern — a
// plain-data snapshot, freely copyable.
type Subscription struct {
	ID        string    `json:"id"`
	ClientID  string    `json:"client_id"`
	Pattern   string    `json:"pattern"`
	CreatedAt time.Time `json:"created_at"`
	// ExpiresAt is the TTL deadline; nil means the subscription lives
	// until explicitly unsubscribed. Past the deadline the pattern stops
	// matching immediately (lazy skip on the hot path) and the next
	// sweep removes it.
	ExpiresAt *time.Time `json:"expires_at,omitempty"`
	// Matches is the number of admitted events this subscription matched
	// at snapshot time.
	Matches int64 `json:"matches"`
}

// subscription is the engine's live record: the public data plus parsed
// form, index keys and the match counter. Always held by pointer.
type subscription struct {
	Subscription
	parsed     *stixpattern.Pattern
	slot       int      // dense index into Engine.slots
	eqKeys     []eqKey  // equality-index keys this pattern occupies
	pathVal    []string // per-path candidate lists this pattern occupies
	readsScore bool     // a comparison reads PathThreatScore (see evaluate)
	matched    atomic.Int64
}

// eqKey is one (path, value) pair of the equality index.
type eqKey struct{ path, value string }

// Match reports one subscription satisfied by an admitted event.
type Match struct {
	SubscriptionID string `json:"subscription_id"`
	ClientID       string `json:"client_id"`
	Pattern        string `json:"pattern"`
}

// Engine owns the live pattern set, its index, and the WebSocket hub that
// match frames fan out on.
type Engine struct {
	maxBytes    int
	maxPer      int
	logger      *slog.Logger
	clk         clock.Clock
	hub         *wsock.Hub
	evalSeconds *obs.Histogram
	candidates  *obs.Histogram
	rejected    *obs.CounterVec
	expiredCnt  *obs.Counter
	// hubReg receives the match hub's caisp_wsock_* families; nil leaves
	// them unregistered.
	hubReg *obs.Registry
	// persistPath, when non-empty, is the JSON sidecar the live pattern
	// set is mirrored to on every mutation and reloaded from on boot.
	persistPath string
	persistMu   sync.Mutex

	count     atomic.Int64 // live subscriptions, read lock-free on the hot path
	evaluated atomic.Int64
	matches   atomic.Int64

	mu       sync.RWMutex
	subs     map[string]*subscription
	byClient map[string]map[string]*subscription
	slots    []*subscription // dense storage; index lists hold slot numbers
	free     []int
	eq       map[string]map[string][]int // path → value → candidate slots
	byPath   map[string][]int            // path → candidate slots for non-hashable ops
}

// Option configures an Engine.
type Option func(*Engine)

// WithMetrics registers the caisp_subs_* families on reg.
func WithMetrics(reg *obs.Registry) Option {
	return func(e *Engine) {
		reg.GaugeFunc("caisp_subs_registered",
			"Live STIX-pattern subscriptions.",
			func() float64 { return float64(e.count.Load()) })
		e.evalSeconds = reg.Histogram("caisp_subs_eval_seconds",
			"Subscription evaluation latency per evaluated revision (both stages): index probe plus full evaluator runs on candidates.")
		e.candidates = reg.Histogram("caisp_subs_candidates_per_event",
			"Candidate patterns the index selects per evaluated revision (both stages).", obs.SizeBuckets...)
		reg.CounterFunc("caisp_subs_matches_total",
			"Subscription matches pushed to watchers.",
			func() float64 { return float64(e.matches.Load()) })
		e.rejected = reg.CounterVec("caisp_subs_rejected_total",
			"Registrations rejected, by reason (syntax, too_large, limit).", "reason")
		e.expiredCnt = reg.Counter("caisp_subs_expired_total",
			"TTL-expired subscriptions removed by the sweep.")
	}
}

// WithHubMetrics additionally registers the match hub's caisp_wsock_*
// families on reg. Standalone daemons (tipd) want this; inside
// caispd the dashboard hub already owns those families, so the match hub
// must stay unregistered to keep the one-registration metric contract.
func WithHubMetrics(reg *obs.Registry) Option {
	return func(e *Engine) { e.hubReg = reg }
}

// WithLogger sets the engine's logger.
func WithLogger(l *slog.Logger) Option {
	return func(e *Engine) {
		if l != nil {
			e.logger = l
		}
	}
}

// WithClock sets the clock that stamps registrations, decides TTL expiry
// and ticks RunSweeper.
func WithClock(clk clock.Clock) Option {
	return func(e *Engine) {
		if clk != nil {
			e.clk = clk
		}
	}
}

// NewEngine builds an empty engine and its match-push hub. RunSweeper
// removes TTL-expired subscriptions in the background.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		maxBytes: DefaultMaxPatternBytes,
		maxPer:   DefaultMaxPerClient,
		logger:   slog.Default(),
		clk:      clock.Real(),
		subs:     make(map[string]*subscription),
		byClient: make(map[string]map[string]*subscription),
		eq:       make(map[string]map[string][]int),
		byPath:   make(map[string][]int),
	}
	for _, opt := range opts {
		opt(e)
	}
	e.hub = wsock.NewHub(wsock.WithQueueDepth(DefaultMatchQueueDepth), wsock.WithHubMetrics(e.hubReg))
	e.loadPersisted()
	return e
}

// RunSweeper calls Sweep every sweepInterval until ctx ends.
func (e *Engine) RunSweeper(ctx context.Context) {
	for {
		select {
		case <-e.clk.After(sweepInterval):
			e.Sweep()
		case <-ctx.Done():
			return
		}
	}
}

// Close shuts down the match-push hub. End RunSweeper first.
func (e *Engine) Close() { e.hub.Close() }

// AddWatcher attaches a WebSocket connection to the match stream.
func (e *Engine) AddWatcher(c *wsock.Conn) { e.hub.Add(c) }

// RemoveWatcher detaches a connection.
func (e *Engine) RemoveWatcher(c *wsock.Conn) { e.hub.Remove(c) }

// Watchers returns the number of attached match-stream connections.
func (e *Engine) Watchers() int { return e.hub.Len() }

// Len returns the number of live subscriptions.
func (e *Engine) Len() int { return int(e.count.Load()) }

// Register parses, validates, indexes and stores a pattern for clientID.
func (e *Engine) Register(clientID, pattern string) (*Subscription, error) {
	return e.RegisterTTL(clientID, pattern, 0)
}

// RegisterTTL is Register with a bounded lifetime: the subscription
// expires ttl after registration, at which point it stops matching and
// the next sweep removes it. A ttl of zero or less means no expiry.
func (e *Engine) RegisterTTL(clientID, pattern string, ttl time.Duration) (*Subscription, error) {
	var expiresAt *time.Time
	if ttl > 0 {
		t := e.clk.Now().UTC().Add(ttl)
		expiresAt = &t
	}
	sub, err := e.register(uuid.NewV4().String(), time.Time{}, expiresAt, clientID, pattern)
	if err != nil {
		return nil, err
	}
	e.persist()
	return sub, nil
}

// register is Register with caller-controlled identity: the persistence
// loader replays saved subscriptions through it with their original IDs
// and creation stamps so client-held handles stay valid across restarts.
// A zero createdAt means "now".
func (e *Engine) register(id string, createdAt time.Time, expiresAt *time.Time, clientID, pattern string) (*Subscription, error) {
	if clientID == "" {
		clientID = "default"
	}
	if len(pattern) > e.maxBytes {
		e.reject("too_large")
		return nil, &PatternTooLargeError{Length: len(pattern), Limit: e.maxBytes}
	}
	parsed, err := stixpattern.Parse(pattern)
	if err != nil {
		e.reject("syntax")
		return nil, err
	}
	eqKeys, pathKeys, readsScore := decompose(parsed.Root)
	if createdAt.IsZero() {
		createdAt = e.clk.Now().UTC()
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.byClient[clientID]) >= e.maxPer {
		e.reject("limit")
		return nil, &ClientLimitError{ClientID: clientID, Limit: e.maxPer}
	}
	sub := &subscription{
		Subscription: Subscription{
			ID:        id,
			ClientID:  clientID,
			Pattern:   pattern,
			CreatedAt: createdAt,
			ExpiresAt: expiresAt,
		},
		parsed:     parsed,
		eqKeys:     eqKeys,
		pathVal:    pathKeys,
		readsScore: readsScore,
	}
	if n := len(e.free); n > 0 {
		sub.slot = e.free[n-1]
		e.free = e.free[:n-1]
		e.slots[sub.slot] = sub
	} else {
		sub.slot = len(e.slots)
		e.slots = append(e.slots, sub)
	}
	for _, k := range eqKeys {
		values := e.eq[k.path]
		if values == nil {
			values = make(map[string][]int)
			e.eq[k.path] = values
		}
		values[k.value] = append(values[k.value], sub.slot)
	}
	for _, k := range pathKeys {
		e.byPath[k] = append(e.byPath[k], sub.slot)
	}
	e.subs[sub.ID] = sub
	cl := e.byClient[clientID]
	if cl == nil {
		cl = make(map[string]*subscription)
		e.byClient[clientID] = cl
	}
	cl[sub.ID] = sub
	e.count.Add(1)
	return sub.snapshot(), nil
}

// expiredAt reports whether the subscription's TTL deadline has passed.
func (s *subscription) expiredAt(now time.Time) bool {
	return s.ExpiresAt != nil && !now.Before(*s.ExpiresAt)
}

// Sweep removes every TTL-expired subscription and returns how many it
// dropped. Expired patterns already stop matching before the sweep (the
// hot path skips them), so the sweep only reclaims index and map space.
func (e *Engine) Sweep() int {
	now := e.clk.Now().UTC()
	e.mu.RLock()
	var doomed []string
	for id, sub := range e.subs {
		if sub.expiredAt(now) {
			doomed = append(doomed, id)
		}
	}
	e.mu.RUnlock()
	if len(doomed) == 0 {
		return 0
	}
	n := 0
	for _, id := range doomed {
		if e.unsubscribe(id) == nil {
			n++
		}
	}
	if n > 0 {
		e.expiredCnt.Add(int64(n))
		e.logger.Info("subscriptions expired", "count", n)
		e.persist()
	}
	return n
}

// Unsubscribe removes a subscription and its index entries.
func (e *Engine) Unsubscribe(id string) error {
	if err := e.unsubscribe(id); err != nil {
		return err
	}
	e.persist()
	return nil
}

func (e *Engine) unsubscribe(id string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	sub, ok := e.subs[id]
	if !ok {
		return ErrNotFound
	}
	delete(e.subs, id)
	cl := e.byClient[sub.ClientID]
	delete(cl, id)
	if len(cl) == 0 {
		delete(e.byClient, sub.ClientID)
	}
	for _, k := range sub.eqKeys {
		values := e.eq[k.path]
		if values[k.value] = dropSlot(values[k.value], sub.slot); len(values[k.value]) == 0 {
			delete(values, k.value)
		}
		if len(values) == 0 {
			delete(e.eq, k.path)
		}
	}
	for _, k := range sub.pathVal {
		e.byPath[k] = dropSlot(e.byPath[k], sub.slot)
		if len(e.byPath[k]) == 0 {
			delete(e.byPath, k)
		}
	}
	e.slots[sub.slot] = nil
	e.free = append(e.free, sub.slot)
	e.count.Add(-1)
	return nil
}

// List snapshots subscriptions, optionally filtered to one client.
func (e *Engine) List(clientID string) []*Subscription {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []*Subscription
	if clientID != "" {
		for _, sub := range e.byClient[clientID] {
			out = append(out, sub.snapshot())
		}
	} else {
		for _, sub := range e.subs {
			out = append(out, sub.snapshot())
		}
	}
	return out
}

// Get snapshots one subscription by ID.
func (e *Engine) Get(id string) (*Subscription, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	sub, ok := e.subs[id]
	if !ok {
		return nil, false
	}
	return sub.snapshot(), true
}

func (s *subscription) snapshot() *Subscription {
	out := s.Subscription
	out.Matches = s.matched.Load()
	return &out
}

// Stats summarises engine state for the REST stats endpoint.
type Stats struct {
	Registered int   `json:"registered"`
	Clients    int   `json:"clients"`
	EqKeys     int   `json:"indexed_eq_keys"`
	PathKeys   int   `json:"indexed_path_keys"`
	Watchers   int   `json:"watchers"`
	Evaluated  int64 `json:"events_evaluated"`
	Matches    int64 `json:"matches"`
}

// Stats returns current engine counters.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	st := Stats{
		Registered: len(e.subs),
		Clients:    len(e.byClient),
		PathKeys:   len(e.byPath),
	}
	for _, values := range e.eq {
		st.EqKeys += len(values)
	}
	e.mu.RUnlock()
	st.Watchers = e.hub.Len()
	st.Evaluated = e.evaluated.Load()
	st.Matches = e.matches.Load()
	return st
}

// EvalSnapshot bundles the evaluation histograms and counters so a caller
// can report percentiles without scraping the Prometheus text endpoint.
// Histograms are nil without WithMetrics.
type EvalSnapshot struct {
	Registered int
	Evaluated  int64
	Matches    int64
	Eval       *obs.HistogramSnapshot
	Candidates *obs.HistogramSnapshot
}

// EvalSnapshot returns current evaluation statistics.
func (e *Engine) EvalSnapshot() EvalSnapshot {
	s := EvalSnapshot{
		Registered: e.Len(),
		Evaluated:  e.evaluated.Load(),
		Matches:    e.matches.Load(),
	}
	if e.evalSeconds != nil {
		s.Eval = e.evalSeconds.Snapshot()
		s.Candidates = e.candidates.Snapshot()
	}
	return s
}

func (e *Engine) reject(reason string) {
	if e.rejected != nil {
		e.rejected.With(reason).Inc()
	}
}

// Evaluate runs the observation against the live pattern set and returns
// every satisfied subscription. Evaluation errors (e.g. a CIDR comparison
// against a non-IP value) disqualify only the erroring pattern.
func (e *Engine) Evaluate(o stixpattern.Observation) []Match {
	out, _ := e.evaluate(o, true, false, "")
	return out
}

// evaluate probes the index with o once and answers up to two stages: the
// cIoC stage sees o as given, the eIoC stage sees o with score shown as
// PathThreatScore ("" shows none; o must then lack that path). The stages
// differ in that one path, and an absent path is false, so a pattern that
// reads no score answers both stages with one match. Only the patterns
// that read it are matched again, once score has been added to o.Fields.
func (e *Engine) evaluate(o stixpattern.Observation, cioc, eioc bool, score string) (ciocs, eiocs []Match) {
	if e.count.Load() == 0 || !cioc && !eioc {
		return nil, nil
	}
	start := time.Now()
	now := e.clk.Now()
	rescore := eioc && score != ""
	hit := func(sub *subscription) bool {
		ok, err := sub.parsed.MatchOne(o)
		return err == nil && ok
	}
	matched := func(out []Match, sub *subscription) []Match {
		sub.matched.Add(1)
		return append(out, Match{SubscriptionID: sub.ID, ClientID: sub.ClientID, Pattern: sub.Pattern})
	}

	ncand := 0
	var buf [64]int
	e.mu.RLock()
	cands := buf[:0]
	for path, values := range o.Fields {
		cands = e.probe(cands, path, values)
	}
	cands = uniqueSlots(cands)
	for _, slot := range cands {
		sub := e.slots[slot]
		if sub.expiredAt(now) {
			continue
		}
		ncand++
		again := rescore && sub.readsScore
		if again && !cioc {
			continue
		}
		if !hit(sub) {
			continue
		}
		if cioc {
			ciocs = matched(ciocs, sub)
		}
		if eioc && !again {
			eiocs = matched(eiocs, sub)
		}
	}
	if rescore {
		// With the score shown, the candidates that read it are matched
		// again, joined by the patterns only the score field reaches.
		o.Fields[PathThreatScore] = []string{score}
		var more [64]int
		readers := e.probe(more[:0], PathThreatScore, o.Fields[PathThreatScore])
		for _, slot := range cands {
			if e.slots[slot].readsScore {
				readers = append(readers, slot)
			}
		}
		for _, slot := range uniqueSlots(readers) {
			sub := e.slots[slot]
			if sub.expiredAt(now) {
				continue
			}
			if _, seen := slices.BinarySearch(cands, slot); !seen {
				ncand++
			}
			if hit(sub) {
				eiocs = matched(eiocs, sub)
			}
		}
	}
	e.mu.RUnlock()

	n := int64(len(ciocs) + len(eiocs))
	if cioc && eioc {
		e.evaluated.Add(2)
	} else {
		e.evaluated.Add(1)
	}
	e.matches.Add(n)
	if e.evalSeconds != nil {
		e.evalSeconds.Observe(time.Since(start).Seconds())
		e.candidates.Observe(float64(ncand))
	}
	return ciocs, eiocs
}

// probe appends the slots the index selects for one observed path and its
// values to cands. Callers hold e.mu.
func (e *Engine) probe(cands []int, path string, values []string) []int {
	cands = append(cands, e.byPath[path]...)
	byValue := e.eq[path]
	if byValue == nil {
		return cands
	}
	for _, v := range values {
		cands = append(cands, byValue[v]...)
		// Numeric literals compare by value, not text: "0443.0" equals
		// literal 443. Probe the canonical float form too so the hash
		// index agrees with the evaluator.
		if canon, ok := canonicalNumber(v); ok && canon != v {
			cands = append(cands, byValue[canon]...)
		}
	}
	return cands
}

// uniqueSlots sorts slots and drops repeats: a pattern reached through
// several keys is a candidate once.
func uniqueSlots(slots []int) []int {
	slices.Sort(slots)
	return slices.Compact(slots)
}

// decompose walks a parsed pattern and derives its index keys: eq keys for
// hash-dispatchable predicates, path keys for everything else, and whether
// any comparison reads PathThreatScore. Keys are deduplicated per pattern.
func decompose(root stixpattern.ObservationExpr) (eqKeys []eqKey, pathKeys []string, readsScore bool) {
	eqSet := make(map[eqKey]struct{})
	pathSet := make(map[string]struct{})
	var walkCmp func(stixpattern.CompareExpr)
	walkCmp = func(expr stixpattern.CompareExpr) {
		switch c := expr.(type) {
		case stixpattern.BoolCombine:
			walkCmp(c.Left)
			walkCmp(c.Right)
		case stixpattern.Comparison:
			base := basePath(c.Path)
			readsScore = readsScore || base == PathThreatScore
			if !c.Negated && c.Op == stixpattern.OpEq && len(c.Values) == 1 {
				eqSet[eqKey{base, literalText(c.Values[0])}] = struct{}{}
				return
			}
			if !c.Negated && c.Op == stixpattern.OpIn {
				for _, lit := range c.Values {
					eqSet[eqKey{base, literalText(lit)}] = struct{}{}
				}
				return
			}
			pathSet[base] = struct{}{}
		}
	}
	var walkObs func(stixpattern.ObservationExpr)
	walkObs = func(expr stixpattern.ObservationExpr) {
		switch o := expr.(type) {
		case stixpattern.ObsTest:
			walkCmp(o.Expr)
		case stixpattern.ObsCombine:
			walkObs(o.Left)
			walkObs(o.Right)
		case stixpattern.ObsQualified:
			walkObs(o.Expr)
		}
	}
	walkObs(root)
	for k := range eqSet {
		eqKeys = append(eqKeys, k)
	}
	for k := range pathSet {
		pathKeys = append(pathKeys, k)
	}
	return eqKeys, pathKeys, readsScore
}

// basePath strips a trailing [N]/[*] index selector: the evaluator resolves
// selector paths against the base path's value list, and observations key
// their fields by base path.
func basePath(path string) string {
	if i := strings.LastIndexByte(path, '['); i > 0 && strings.HasSuffix(path, "]") {
		return path[:i]
	}
	return path
}

// literalText mirrors Literal.text(): the comparable string form the
// evaluator uses for equality.
func literalText(l stixpattern.Literal) string {
	switch l.Kind {
	case stixpattern.LitString:
		return l.Str
	case stixpattern.LitNumber:
		return strconv.FormatFloat(l.Num, 'f', -1, 64)
	case stixpattern.LitTimestamp:
		return l.Time.UTC().Format(time.RFC3339Nano)
	default:
		return ""
	}
}

// canonicalNumber reduces an observed value to the canonical form numeric
// literals index under.
func canonicalNumber(v string) (string, bool) {
	if len(v) == 0 || len(v) > 64 {
		return "", false
	}
	// ParseFloat takes no more than one '.' and no ':', so an IP costs
	// no failed parse.
	c := v[0]
	if c != '-' && c != '+' && c != '.' && (c < '0' || c > '9') || strings.Count(v, ".") > 1 || strings.IndexByte(v, ':') >= 0 {
		return "", false
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return "", false
	}
	return strconv.FormatFloat(f, 'f', -1, 64), true
}

// dropSlot removes one occurrence of slot via swap-remove.
func dropSlot(slots []int, slot int) []int {
	for i, s := range slots {
		if s == slot {
			slots[i] = slots[len(slots)-1]
			return slots[:len(slots)-1]
		}
	}
	return slots
}

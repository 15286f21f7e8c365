package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/tip"
)

const shareKey = "bench-key"

// preloadBatch is the AddEvents batch size used to load a store during
// set-up.
const preloadBatch = 500

// tipNode is one durable TIP behind its REST API on loopback.
type tipNode struct {
	dir    string
	reg    *obs.Registry
	store  *storage.Store
	svc    *tip.Service
	api    *loopback
	client *tip.Client
}

// bootTIP opens a store in dir ("" for memory) and serves it.
func bootTIP(dir, name string) (*tipNode, error) {
	n := &tipNode{dir: dir, reg: obs.NewRegistry()}
	var err error
	if n.store, err = storage.Open(dir, storage.WithMetrics(n.reg)); err != nil {
		return nil, err
	}
	n.svc = tip.NewService(n.store, tip.WithLogger(quietLogger()), tip.WithMetrics(n.reg), tip.WithName(name))
	if n.api, err = serve(tip.NewAPI(n.svc, shareKey)); err != nil {
		_ = n.store.Close()
		return nil, err
	}
	n.client = tip.NewClient(n.api.url(), shareKey)
	return n, nil
}

func (n *tipNode) load(events []*misp.Event) error {
	for i := 0; i < len(events); i += preloadBatch {
		end := min(i+preloadBatch, len(events))
		if _, err := n.svc.AddEvents(events[i:end]); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

func (n *tipNode) close() {
	n.api.close()
	_ = n.store.Close()
	if n.dir != "" {
		_ = os.RemoveAll(n.dir)
	}
}

// readCycle is the read mix of share.mixed: 70 % get, 15 % search,
// 10 % changes page, 5 % STIX export, interleaved in a fixed order so
// every run issues exactly the same mix whatever its seed (the seed
// picks the targets).
var readCycle = [20]string{
	"get", "get", "search", "get", "get", "changes", "get", "get", "search", "get",
	"get", "get", "export", "get", "get", "search", "get", "changes", "get", "get",
}

var readOps = []string{"get", "search", "changes", "export"}

// shareInput is what share.mixed generates from the seed.
type shareInput struct {
	preload []*misp.Event
	writes  [][]*misp.Event // one batch per writer tick
	// addrCount is how many preloaded events carry each shared address:
	// the floor for a value search's result size.
	addrCount map[string]int
}

func shareSchedule(cfg runConfig) *shareInput {
	sz := cfg.Sizes
	in := &shareInput{addrCount: map[string]int{}}
	in.preload = synthEvents(cfg.Seed, "share", sz.SharePreload)
	for _, e := range in.preload {
		in.addrCount[e.Attributes[1].Value]++
	}
	ticks := int(time.Duration(cfg.Seconds*float64(time.Second)) / sz.ShareEvery)
	written := synthEvents(cfg.Seed, "write", ticks*sz.ShareBatch)
	for i := 0; i < ticks; i++ {
		in.writes = append(in.writes, written[i*sz.ShareBatch:(i+1)*sz.ShareBatch])
	}
	return in
}

// reader is the closed-loop read client: one request at a time, the
// next sent when the previous answered.
type reader struct {
	node *tipNode
	in   *shareInput
	rec  *recorder
	rng  *rand.Rand
	zipf *rand.Zipf

	latMs    map[string][]float64
	allMs    []float64
	doneAt   []time.Duration // completion of each successful read since the loop began
	failed   int64
	firstErr error
	// traced pass: time in the client call and in the equivalent direct
	// call, per operation.
	clientS, directS map[string]float64
}

func newReader(cfg runConfig, node *tipNode, in *shareInput, rec *recorder) *reader {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x4ead))
	return &reader{node: node, in: in, rec: rec, rng: rng,
		zipf:  rand.NewZipf(rng, 1.1, 1, uint64(len(in.preload)-1)),
		latMs: map[string][]float64{}, clientS: map[string]float64{}, directS: map[string]float64{}}
}

func (r *reader) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// one issues the i-th read of the mix, checks the answer, and in the
// traced pass repeats it as a direct service call.
func (r *reader) one(ctx context.Context, i int, loopStart time.Time) {
	op := readCycle[i%len(readCycle)]
	target := r.in.preload[r.zipf.Uint64()]
	value := target.Attributes[1].Value
	after := uint64(r.rng.Intn(len(r.in.preload)))

	s := r.rec.begin("tip.client."+op, -1, i)
	start := time.Now()
	var err error
	switch op {
	case "get":
		var e *misp.Event
		if e, err = r.node.client.GetEvent(ctx, target.UUID); err == nil &&
			(e.UUID != target.UUID || e.Timestamp.Unix() != target.Timestamp.Unix() || len(e.Attributes) != len(target.Attributes)) {
			err = fmt.Errorf("get %s returned %s@%d", target.UUID, e.UUID, e.Timestamp.Unix())
		}
	case "search":
		var events []*misp.Event
		if events, err = r.node.client.Search(ctx, tip.SearchQuery{Value: value}); err == nil {
			err = checkSearch(events, value, r.in.addrCount[value])
		}
	case "changes":
		var (
			events []*misp.Event
			next   uint64
		)
		if events, next, _, err = r.node.client.ChangesPage(ctx, after, 100); err == nil &&
			(len(events) == 0 || len(events) > 100 || next <= after) {
			err = fmt.Errorf("changes after %d returned %d events, next %d", after, len(events), next)
		}
	case "export":
		var data []byte
		if data, err = r.node.client.Export(ctx, target.UUID, tip.FormatSTIX2); err == nil {
			err = checkBundle(data)
		}
	}
	took := time.Since(start)
	r.rec.end(s)
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", op, err))
		return
	}
	r.latMs[op] = append(r.latMs[op], ms(took))
	r.allMs = append(r.allMs, ms(took))
	r.doneAt = append(r.doneAt, time.Since(loopStart))
	if r.rec == nil {
		return
	}

	// The equivalent direct call: what the request costs without HTTP.
	r.clientS[op] += took.Seconds()
	d := r.rec.begin("tip.direct."+op, -1, i)
	start = time.Now()
	switch op {
	case "get":
		_, err = r.node.svc.GetEvent(target.UUID)
	case "search":
		_, err = r.node.svc.Search(tip.SearchQuery{Value: value})
	case "changes":
		_, _, _, err = r.node.svc.ChangesPage(after, 100)
	case "export":
		var e *misp.Event
		if e, err = r.node.svc.GetEvent(target.UUID); err == nil {
			_, _, err = tip.Export(e, tip.FormatSTIX2)
		}
	}
	r.directS[op] += time.Since(start).Seconds()
	r.rec.end(d)
	if err != nil {
		r.fail(fmt.Errorf("direct %s: %w", op, err))
	}
}

// perSecond counts completions in each whole second of the window.
func perSecond(doneAt []time.Duration, window time.Duration) []float64 {
	n := int(window / time.Second)
	if n < 1 {
		return []float64{float64(len(doneAt)) / window.Seconds()}
	}
	out := make([]float64, n)
	for _, d := range doneAt {
		if i := int(d / time.Second); i < n {
			out[i]++
		}
	}
	return out
}

func checkSearch(events []*misp.Event, value string, atLeast int) error {
	if len(events) < atLeast {
		return fmt.Errorf("search %s returned %d events, preload alone has %d", value, len(events), atLeast)
	}
	for _, e := range events {
		found := false
		for i := range e.Attributes {
			if e.Attributes[i].Value == value {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("search %s returned %s, which does not carry it", value, e.UUID)
		}
	}
	return nil
}

func checkBundle(data []byte) error {
	var b struct {
		Type    string            `json:"type"`
		Objects []json.RawMessage `json:"objects"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return err
	}
	if b.Type != "bundle" || len(b.Objects) == 0 {
		return fmt.Errorf("export is a %q with %d objects", b.Type, len(b.Objects))
	}
	return nil
}

func runShare(ctx context.Context, cfg runConfig) (*runResult, error) {
	res := newResult(cfg)
	g := &gate{}
	sz := cfg.Sizes
	var rec *recorder
	if cfg.Traced {
		rec = newRecorder()
	}

	var (
		node   *tipNode
		in     *shareInput
		setups []float64
		base   float64
	)
	repeats := sz.SetupRepeats
	if cfg.Traced {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if node != nil {
			node.close()
		}
		begin := time.Now()
		in = shareSchedule(cfg)
		base = liveHeapMB(0) // the schedule is the benchmark's memory, not the TIP's
		dir, err := scratchDir(cfg.OutDir, cfg.Workload)
		if err != nil {
			return nil, err
		}
		if node, err = bootTIP(dir, "share"); err != nil {
			return nil, err
		}
		if err := node.load(in.preload); err != nil {
			node.close()
			return nil, err
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	defer node.close()

	window := time.Duration(cfg.Seconds * float64(time.Second))
	rd := newReader(cfg, node, in, rec)
	start := time.Now()
	writer := openLoop{start: start, offsets: everyOffsets(len(in.writes), sz.ShareEvery)}
	var (
		wg          sync.WaitGroup
		ackMs       []float64
		writeFailed int64
		writeErr    error
		readElapsed time.Duration
	)
	wg.Add(2)
	go func() { // load goroutine 1: closed-loop reads
		defer wg.Done()
		for i := 0; time.Since(start) < window; i++ {
			rd.one(ctx, i, start)
		}
		readElapsed = time.Since(start)
	}()
	go func() { // load goroutine 2: open-loop writes, timed from their due time
		defer wg.Done()
		writer.run(ctx, func(i int, due time.Time) {
			s := rec.begin("tip.client.add_events", -1, i)
			_, err := node.client.AddEvents(ctx, in.writes[i])
			rec.end(s)
			if err != nil {
				writeFailed++
				if writeErr == nil {
					writeErr = err
				}
				return
			}
			ackMs = append(ackMs, ms(time.Since(due)))
		})
	}()
	wg.Wait()

	reads := int64(len(rd.allMs)) + rd.failed
	g.ops(reads, rd.failed, fmt.Sprintf("reads (first error: %v)", rd.firstErr))
	g.ops(int64(len(in.writes)), writeFailed, fmt.Sprintf("write batches (first error: %v)", writeErr))
	g.require(len(writer.lateMs) == len(in.writes), "writer fired %d of %d batches", len(writer.lateMs), len(in.writes))
	want := len(in.preload) + len(in.writes)*sz.ShareBatch
	g.require(node.svc.Len() == want, "store holds %d events, want %d", node.svc.Len(), want)
	missing := 0
	for _, batch := range in.writes {
		for _, e := range batch {
			if _, err := node.svc.GetEvent(e.UUID); err != nil {
				missing++
			}
		}
	}
	g.require(missing == 0, "%d written events are not in the store", missing)

	all := summarize(rd.allMs)
	ack := summarize(ackMs)
	lateP99 := quantile(sortedCopy(writer.lateMs), 0.99)
	if !cfg.Traced {
		res.set("setup_s", median(setups))
		// The read rate is the median over one-second slices of the loop: a
		// closed loop of sub-millisecond requests is at the mercy of every
		// stall on a two-core box, and the median slice is what the reader
		// sustains between them.
		perSec := perSecond(rd.doneAt, window)
		res.set("ops_per_s", median(perSec))
		res.info("reads_per_s_overall", float64(len(rd.allMs))/readElapsed.Seconds(), "1/s")
		res.info("reads_per_s_min_slice", slices.Min(perSec), "1/s")
		res.info("reads_per_s_max_slice", slices.Max(perSec), "1/s")
		res.setTiming("lat_p50_ms", "", all)
		res.infoTail("lat_tail_ms", all)
		res.set("live_heap_mb", liveHeapMB(0)-base)
		res.Info["write_ack_p50_ms"] = metric{Value: ack.P50, Unit: "ms", N: ack.N}
		res.infoTail("write_ack_tail_ms", ack)
	} else {
		res.set("tip.write_ack_p50_ms", ack.P50)
		res.set("lat_tail_ms", all.Tail)
		res.set("storage.get_s", rd.directS["get"])
		res.set("storage.search_s", rd.directS["search"])
		res.set("storage.changes_page_s", rd.directS["changes"])
		var http float64
		for _, op := range readOps {
			http += rd.clientS[op] - rd.directS[op]
		}
		res.set("tip.http_s", http)
		m := scrape(node.reg)
		res.set("storage.put_batch_s", series(m, "caisp_store_put_batch_seconds_sum"))
		res.set("storage.compactions", float64(node.store.Durability().Compactions))
		res.set("bench.gen_late_p99_ms", lateP99)
		res.set("bench.trace_overhead_s", float64(rec.count())*perSpanCost().Seconds())
		res.info("export_direct_s", rd.directS["export"], "s")
		var err error
		if res.TraceFile, err = rec.writeJSONL(cfg.OutDir, cfg.Workload); err != nil {
			return nil, err
		}
	}
	for _, op := range readOps {
		s := summarize(rd.latMs[op])
		res.Info["read_"+op+"_p50_ms"] = metric{Value: s.P50, Unit: "ms", N: s.N}
	}
	res.info("reads", float64(len(rd.allMs)), "count")
	res.info("write_batches", float64(len(ackMs)), "count")
	res.info("writer_late_p99_ms", lateP99, "ms")
	res.info("stored_events", float64(node.svc.Len()), "count")
	g.finish(res)
	return res, nil
}

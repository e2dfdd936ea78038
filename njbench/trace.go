package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/measure"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/store"
)

// The traced run measures each layer from outside, by timing calls into
// each module's public entry points; nothing inside the program is
// instrumented. It has three phases over the same seeded request sequence,
// each on a fresh in-process service, so their cache states evolve alike:
//
//	A  one closed-loop client against service.NewHandler over loopback,
//	   untraced — the baseline for the tracing overhead;
//	B  the same requests with a span around the handler's ServeHTTP, and
//	   GET /stats deltas for the counted work;
//	C  one request at a time through the layers: plan (ExplainJoin2/N),
//	   service core (Join2Meta, OpenJoin2+Next, JoinNMeta, UpdateEdges),
//	   the cache-less dhtjoin executor forced to the plan's pick (which
//	   doubles as the correctness oracle), the dht walk kernel on the
//	   request's targets, and for edits graph.ApplyEdits and
//	   store.AppendEdits on a standalone store.
//
// Every phase is serial, so a span's time is its own work and not a wait
// for a core another request holds. A span's parent names the layer that
// calls it. Spans of different layers
// come from different phases, so only their durations are comparable.

// editRatio is how many reads the traced sequence puts between edits: a
// serial replay cannot keep the open-loop writer's clock, so edits sit at
// fixed positions instead.
const editRatio = 32

// span is one timed call into a layer; the spans of one request share Req.
type span struct {
	Req    string `json:"req"`
	Layer  string `json:"layer"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its duration in milliseconds.
func (t *tracer) add(req, layer, parent string, start, end time.Time) float64 {
	t.mu.Lock()
	t.spans = append(t.spans, span{Req: req, Layer: layer, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
	return float64(end.Sub(start)) / float64(time.Millisecond)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func reqKey(r *request) string { return fmt.Sprint(r.Op, "-", r.ID) }

// traceSequence is the traced run's request sequence: the workload's reads,
// with one edit batch after every editRatio reads when it has a writer.
func traceSequence(w *workload, g *genGraph, seed int64, edits []request) func(j int) request {
	reads := w.reads(g, seed)
	if w.editEvery == 0 {
		return reads
	}
	return func(j int) request {
		if j%(editRatio+1) == editRatio {
			return edits[j/(editRatio+1)]
		}
		return reads(j - j/(editRatio+1))
	}
}

// inProcess is one service served over loopback by httptest.
type inProcess struct {
	svc *service.Service
	st  *store.Store
	srv *httptest.Server
	hc  *http.Client
}

func newService(dataDir string) (*service.Service, *store.Store, error) {
	if dataDir == "" {
		return service.New(service.Config{}), nil, nil
	}
	st, _, err := store.Open(store.Config{Dir: dataDir})
	if err != nil {
		return nil, nil, err
	}
	return service.New(service.Config{Store: st}), st, nil
}

// serve starts a service like njoind's (defaults, durable when dataDir is
// set), optionally wraps its handler, uploads the graph and answers the
// warm request.
func serve(ctx context.Context, dataDir string, g *genGraph, wrap func(http.Handler) http.Handler) (*inProcess, error) {
	svc, st, err := newService(dataDir)
	if err != nil {
		return nil, err
	}
	h := service.NewHandler(svc)
	if wrap != nil {
		h = wrap(h)
	}
	ip := &inProcess{svc: svc, st: st, srv: httptest.NewServer(h), hc: newHTTPClient(1)}
	if err := put(ctx, ip.hc, ip.srv.URL+"/graphs/"+graphName, g.text); err != nil {
		ip.close()
		return nil, err
	}
	warm := warmRequest(g)
	if o := send(ctx, ip.hc, ip.srv.URL, &warm); o.fail != "" {
		ip.close()
		return nil, fmt.Errorf("warm request failed: %s", o.fail)
	}
	return ip, nil
}

func (ip *inProcess) close() {
	ip.hc.CloseIdleConnections()
	ip.srv.Close()
	if ip.st != nil {
		_ = ip.st.Close() // the run's data dir is discarded
	}
}

// record is what the traced run learned about one read, in milliseconds.
type record struct {
	req             *request
	client, http    float64 // phase B
	plan, svc, exec float64 // phase C; exec is NaN when not run
	walkUS          float64 // per walk; NaN when not run
	kernel          float64 // estimated kernel time of the served request
	miss            bool
}

func runTraced(ctx context.Context, w *workload, seed int64, dur time.Duration, runDir, spanDir string) (result, error) {
	g := generateGraph(w.graph, layoutSeed)
	var edits []request
	if w.editEvery > 0 {
		edits = editBatches(g, seed, 1000)
	}
	seq := traceSequence(w, g, seed, edits)
	limit := math.MaxInt
	if len(edits) > 0 {
		limit = len(edits) * (editRatio + 1)
	}
	tr := &tracer{t0: time.Now()}
	var rep report
	fmt.Printf("workload %s seed %d: traced in-process replay\n", w.name, seed)

	// graph: parse the uploaded file, as every set-up does.
	var readText []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		if _, _, err := graph.ReadText(bytes.NewReader(g.text)); err != nil {
			return result{}, err
		}
		readText = append(readText, tr.add(fmt.Sprint("setup-", i), "graph", "service", t, time.Now()))
	}

	dataDir := func(name string) string {
		if !w.durable {
			return ""
		}
		return filepath.Join(runDir, name)
	}

	// Phase A: untraced, time-bounded; it fixes the request count N.
	ipA, err := serve(ctx, dataDir("a"), g, nil)
	if err != nil {
		return result{}, err
	}
	var next atomic.Int64
	outsA := closedLoop(ctx, ipA.hc, ipA.srv.URL, 1, &next, seq, time.Now().Add(dur/4), limit, nil)
	ipA.close()
	n := len(outsA)

	// Phase B: the same N requests, handler spans and /stats deltas.
	ipB, err := serve(ctx, dataDir("b"), g, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			t := time.Now()
			h.ServeHTTP(rw, r)
			if id := r.Header.Get("X-Request-Id"); id != "" {
				tr.add(id, "http", "client", t, time.Now())
			}
		})
	})
	if err != nil {
		return result{}, err
	}
	var s0, s1 service.Stats
	if err := getJSON(ctx, ipB.hc, ipB.srv.URL+"/stats", &s0); err != nil {
		ipB.close()
		return result{}, err
	}
	waitingMax, stopPoll := pollAdmission(ctx, ipB)
	next.Store(0)
	outsB := closedLoop(ctx, ipB.hc, ipB.srv.URL, 1, &next, seq, time.Now().Add(time.Hour), n, nil)
	stopPoll()
	err = getJSON(ctx, ipB.hc, ipB.srv.URL+"/stats", &s1)
	ipB.close()
	if err != nil {
		return result{}, err
	}

	recs := map[string]*record{}
	failed, readsB := 0, 0
	byKey := map[string]*outcome{}
	latA := map[string]float64{}
	for i := range outsA {
		if o := &outsA[i]; o.fail == "" && o.req.Op != opEdit {
			latA[reqKey(o.req)] = o.latMS
		}
	}
	var overhead []float64 // per request: traced / untraced client latency − 1
	for i := range outsB {
		o := &outsB[i]
		k := reqKey(o.req)
		byKey[k] = o
		tr.add(k, "client", "", o.sent, o.sent.Add(time.Duration(o.latMS*float64(time.Millisecond))))
		if o.fail != "" {
			failed++
			continue
		}
		if o.req.Op != opEdit {
			readsB++
			if a, ok := latA[k]; ok {
				overhead = append(overhead, o.latMS/a-1)
			}
			recs[k] = &record{req: o.req, client: o.latMS, plan: math.NaN(), exec: math.NaN(), walkUS: math.NaN()}
		}
	}
	for _, s := range tr.spans {
		if r := recs[s.Req]; r != nil && s.Layer == "http" {
			r.http = float64(s.End-s.Start) / float64(time.Millisecond)
		}
	}

	// Phase C: serial, layer by layer, on the first N requests.
	lc, err := replayLayers(ctx, w, g, seq, n, seed, dur, runDir, tr, recs, byKey)
	if err != nil {
		return result{}, err
	}
	if len(edits) > 0 {
		if err := replayEdits(g, edits, runDir, tr, lc); err != nil {
			return result{}, err
		}
	}

	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tr.write(path); err != nil {
		return result{}, err
	}
	fmt.Printf("  %d requests replayed (%d in the layer phase), %d spans written to %s\n", n, lc.done, len(tr.spans), path)
	fmt.Printf("  oracle: %d/%d rankings identical to cache-less dhtjoin\n", lc.checked-len(lc.bad), lc.checked)
	for _, b := range lc.bad {
		fmt.Println("  ORACLE MISMATCH:", b)
	}

	// Per-layer metrics.
	reads := float64(max(readsB, 1))
	var httpSelf, gap, svcSelf, explain, j2exec, j2self, coreExec, coreSelf, pprExec, walkUS, kernel []float64
	for _, r := range recs {
		if math.IsNaN(r.plan) {
			continue // not reached by the layer phase
		}
		httpSelf = append(httpSelf, r.http-r.plan-r.svc)
		gap = append(gap, r.client-r.http)
		explain = append(explain, r.plan*1000)
		self := r.svc
		if r.miss && !math.IsNaN(r.exec) {
			self -= r.exec
		}
		svcSelf = append(svcSelf, self)
		if math.IsNaN(r.exec) {
			continue
		}
		walkUS = append(walkUS, r.walkUS)
		if r.miss {
			kernel = append(kernel, r.kernel)
		}
		switch {
		case r.req.Op == opJoinN:
			coreExec = append(coreExec, r.exec)
			coreSelf = append(coreSelf, r.exec-r.kernel)
		case r.req.Opts.Measure == "ppr":
			pprExec = append(pprExec, r.exec)
		default:
			j2exec = append(j2exec, r.exec)
			j2self = append(j2self, r.exec-r.kernel)
		}
	}
	ratio := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	rep.add("http.self_ms", median(httpSelf), "ms", "handler span − plan − service core")
	rep.add("net.client_gap_ms", median(gap), "ms", "client latency − handler span")
	rep.add("service.self_ms", median(svcSelf), "ms", "core span − executor span on result-cache misses")
	rep.add("service.result_hit_ratio", ratio(s1.ResultHits-s0.ResultHits, s1.ResultMisses-s0.ResultMisses), "ratio", "")
	rep.add("service.memo_hit_ratio", ratio(s1.MemoHits-s0.MemoHits, s1.MemoMisses-s0.MemoMisses), "ratio", "")
	rep.add("service.admission_waiting_max", float64(waitingMax()), "count", "")
	rep.add("service.shed_clamps", float64(s1.ShedClamps-s0.ShedClamps), "count", "")
	rep.add("service.budget_truncations", float64(s1.BudgetTruncations-s0.BudgetTruncations), "count", "")
	rep.add("plan.explain_us", median(explain), "us", "")
	rep.add("plan.cache_hit_ratio", float64(s1.PlanCacheHits-s0.PlanCacheHits)/float64(max(s1.PlanRequests-s0.PlanRequests, 1)), "ratio", "")
	var picks int64
	for _, name := range pickExecutors {
		picks += s1.PlanPicks[name] - s0.PlanPicks[name]
	}
	for _, name := range pickExecutors {
		rep.add("plan.pick_share."+name, float64(s1.PlanPicks[name]-s0.PlanPicks[name])/float64(max(picks, 1)), "ratio", "")
	}
	rep.add("join2.exec_ms", median(j2exec), "ms", fmt.Sprintf("n=%d", len(j2exec)))
	rep.add("join2.self_ms", median(j2self), "ms", "executor − kernel estimate")
	rep.add("join2.reverified_per_q", float64(s1.Reverified-s0.Reverified)/reads, "count", "")
	rep.add("join2.fallback_pairs_per_q", float64(s1.FallbackPairs-s0.FallbackPairs)/reads, "count", "")
	rep.add("core.exec_ms", median(coreExec), "ms", fmt.Sprintf("n=%d", len(coreExec)))
	rep.add("core.self_ms", median(coreSelf), "ms", "executor − kernel estimate")
	rep.add("dht.walks_per_q", float64(s1.Walks-s0.Walks)/reads, "count", "")
	rep.add("dht.edge_sweeps_per_q", float64(s1.EdgeSweeps-s0.EdgeSweeps)/reads, "count", "")
	rep.add("dht.frontier_edges_per_q", float64(s1.FrontierEdges-s0.FrontierEdges)/reads, "count", "")
	rep.add("dht.walk_us", median(walkUS), "us", fmt.Sprintf("n=%d", len(walkUS)))
	rep.add("dht.kernel_ms_est", median(kernel), "ms", "served edge relaxations × walk-span time per relaxation, on misses")
	rep.add("ppr.exec_ms", median(pprExec), "ms", fmt.Sprintf("n=%d", len(pprExec)))
	rep.add("graph.read_text_ms", median(readText), "ms", "")
	rep.add("graph.apply_edits_ms", median(lc.apply), "ms", fmt.Sprintf("n=%d", len(lc.apply)))
	rep.add("store.append_ms", median(lc.appendMS), "ms", fmt.Sprintf("n=%d", len(lc.appendMS)))
	rep.add("store.snapshot_ms", median(lc.snapshotMS), "ms", fmt.Sprintf("n=%d", len(lc.snapshotMS)))
	rep.add("store.snapshots_per_kedit", 1000*float64(len(lc.snapshotMS))/float64(max(len(lc.appendMS), 1)), "count", "")
	rep.add("store.write_amp", float64(lc.written)/float64(max(lc.wire, 1)), "ratio", "bytes written under the data dir / edit wire bytes")
	rep.add("trace.overhead_frac", median(overhead), "ratio", "median per request of traced / untraced client latency − 1")
	return result{Correct: len(lc.bad) == 0, Attempted: len(outsB), Failed: failed, Metrics: rep.pick(perLayer)}, nil
}

// pickExecutors are the executors the workloads' measures can run on.
var pickExecutors = []string{"B-BJ", "B-BJ-fast", "B-IDJ-X", "B-IDJ-Y", "F-BJ", "F-BJ-fast", "F-IDJ", "AP", "NL", "PJ", "PJ-i"}

// perLayer lists the metrics a traced run reports, in BENCHMARK.json order.
var perLayer = func() []string {
	names := []string{"http.self_ms", "net.client_gap_ms",
		"service.self_ms", "service.result_hit_ratio", "service.memo_hit_ratio",
		"service.admission_waiting_max", "service.shed_clamps", "service.budget_truncations",
		"plan.explain_us", "plan.cache_hit_ratio"}
	for _, e := range pickExecutors {
		names = append(names, "plan.pick_share."+e)
	}
	return append(names, "join2.exec_ms", "join2.self_ms", "join2.reverified_per_q", "join2.fallback_pairs_per_q",
		"core.exec_ms", "core.self_ms",
		"dht.walks_per_q", "dht.edge_sweeps_per_q", "dht.frontier_edges_per_q", "dht.walk_us", "dht.kernel_ms_est",
		"ppr.exec_ms", "graph.read_text_ms", "graph.apply_edits_ms",
		"store.append_ms", "store.snapshot_ms", "store.snapshots_per_kedit", "store.write_amp",
		"trace.overhead_frac")
}()

// pollAdmission samples /stats every 50 ms and keeps the largest admission
// queue seen; stop ends the poller and waits for it.
func pollAdmission(ctx context.Context, ip *inProcess) (maxSeen func() int, stop func()) {
	var peak atomic.Int64
	done := make(chan struct{})
	exited := make(chan struct{})
	hc := newHTTPClient(1)
	go func() {
		defer close(exited)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				var st service.Stats
				if getJSON(ctx, hc, ip.srv.URL+"/stats", &st) == nil && int64(st.AdmissionWaiting) > peak.Load() {
					peak.Store(int64(st.AdmissionWaiting))
				}
			}
		}
	}()
	return func() int { return int(peak.Load()) }, func() {
		close(done)
		<-exited
		hc.CloseIdleConnections()
	}
}

// layerCounts is what the layer phase accumulates besides per-read records.
type layerCounts struct {
	done, checked               int
	bad                         []string
	apply, appendMS, snapshotMS []float64
	written, wire               int64
}

// replayEdits is phase D, for workloads with a writer: the first
// editPipeline edit batches through graph.ApplyEdits and store.AppendEdits
// on a standalone store — the two steps UpdateEdges runs inside — timed
// apart. It covers two snapshot folds at the default SnapshotEvery of 64.
func replayEdits(g *genGraph, edits []request, runDir string, tr *tracer, lc *layerCounts) error {
	cur, sets, err := graph.ReadText(bytes.NewReader(g.text))
	if err != nil {
		return err
	}
	dir := filepath.Join(runDir, "store")
	st, _, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return err
	}
	defer st.Close()
	if _, err := st.Put(graphName, cur, sets); err != nil {
		return err
	}
	for i := range edits[:editPipeline] {
		req := &edits[i]
		key := reqKey(req)
		adds := toEdges(req.Adds)
		t := time.Now()
		next, err := graph.ApplyEdits(cur, adds, nil)
		if err != nil {
			return err
		}
		lc.apply = append(lc.apply, tr.add(key, "graph", "service", t, time.Now()))
		before, err := dirSizes(dir)
		if err != nil {
			return err
		}
		t = time.Now()
		_, snap, err := st.AppendEdits(graphName, adds, nil, next, sets)
		if err != nil {
			return err
		}
		ms := tr.add(key, "store", "service", t, time.Now())
		lc.appendMS = append(lc.appendMS, ms)
		if snap {
			lc.snapshotMS = append(lc.snapshotMS, ms)
		}
		after, err := dirSizes(dir)
		if err != nil {
			return err
		}
		lc.written += bytesWritten(before, after)
		lc.wire += int64(len(req.Body))
		cur = next
	}
	return nil
}

const editPipeline = 128

// replayLayers is phase C.
func replayLayers(ctx context.Context, w *workload, g *genGraph, seq func(int) request, n int, seed int64,
	dur time.Duration, runDir string, tr *tracer, recs map[string]*record, served map[string]*outcome) (*layerCounts, error) {
	lc := &layerCounts{}
	dir := ""
	if w.durable {
		dir = filepath.Join(runDir, "c")
	}
	svc, st, err := newService(dir)
	if err != nil {
		return nil, err
	}
	if st != nil {
		defer st.Close()
	}
	if _, err := svc.LoadGraphText(graphName, bytes.NewReader(g.text)); err != nil {
		return nil, err
	}
	warm := warmRequest(g)
	if _, _, err := svc.Join2Meta(ctx, graphName, service.SetRef{IDs: warm.P}, service.SetRef{IDs: warm.Q}, warm.K, service.Query{}); err != nil {
		return nil, err
	}
	cur, _, err := graph.ReadText(bytes.NewReader(g.text))
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(dur * 4 / 5)
	for j := 0; j < n && time.Now().Before(deadline); j++ {
		req := seq(j)
		key := reqKey(&req)
		lc.done++
		if req.Op == opEdit {
			adds := toEdges(req.Adds)
			t := time.Now()
			if _, err := svc.UpdateEdges(graphName, adds, nil); err != nil {
				return nil, err
			}
			tr.add(key, "service", "http", t, time.Now())
			// The oracle's graph follows the service's, edit for edit.
			if cur, err = graph.ApplyEdits(cur, adds, nil); err != nil {
				return nil, err
			}
			continue
		}
		rec := recs[key]
		if rec == nil {
			continue // failed in phase B
		}
		if err := replayRead(ctx, svc, cur, &req, rec, seed, tr, lc, served[key]); err != nil {
			return nil, err
		}
	}
	return lc, nil
}

// replayRead runs one read through plan, service core, and — on a result
// cache miss or a seeded 1-in-8 sample — the cache-less executor and the
// walk kernel, checking the served answers against the executor's.
func replayRead(ctx context.Context, svc *service.Service, g *graph.Graph, req *request, rec *record, seed int64,
	tr *tracer, lc *layerCounts, served *outcome) error {
	key := reqKey(req)
	q := service.Query{MeasureName: req.Opts.Measure, Accuracy: req.Opts.Accuracy, Algorithm: req.Opts.Algo}
	p, qq := service.SetRef{IDs: req.P}, service.SetRef{IDs: req.Q}
	refs := make([]service.SetRef, len(req.Sets))
	for i, s := range req.Sets {
		refs[i] = service.SetRef{IDs: s}
	}
	edges := shapeEdges(req.Shape, len(req.Sets))
	demand := req.Cursor + req.K

	t := time.Now()
	var pl *plan.Plan
	var err error
	switch req.Op {
	case opJoin2:
		pl, err = svc.ExplainJoin2(ctx, graphName, p, qq, demand, q)
	case opStream:
		pl, err = svc.ExplainJoin2(ctx, graphName, p, qq, 0, q)
	case opJoinN:
		pl, err = svc.ExplainJoinN(ctx, graphName, refs, edges, demand, q)
	}
	if err != nil {
		return err
	}
	rec.plan = tr.add(key, "plan", "service", t, time.Now())

	s0 := svc.Stats()
	t = time.Now()
	var pairs []pairJSON
	var answers []answerJSON
	switch req.Op {
	case opJoin2:
		res, _, err := svc.Join2Meta(ctx, graphName, p, qq, demand, q)
		if err != nil {
			return err
		}
		for _, r := range res[min(req.Cursor, len(res)):] {
			pairs = append(pairs, pairJSON{P: r.Pair.P, Q: r.Pair.Q, Score: r.Score})
		}
	case opStream:
		st, err := svc.OpenJoin2(ctx, graphName, p, qq, q)
		if err != nil {
			return err
		}
		for i := 0; i < demand; i++ {
			r, ok, err := st.Next()
			if err != nil {
				st.Stop()
				return err
			}
			if !ok {
				break
			}
			if i >= req.Cursor {
				pairs = append(pairs, pairJSON{P: r.Pair.P, Q: r.Pair.Q, Score: r.Score})
			}
		}
		st.Stop()
	case opJoinN:
		res, _, err := svc.JoinNMeta(ctx, graphName, refs, edges, demand, q)
		if err != nil {
			return err
		}
		for _, a := range res[min(req.Cursor, len(res)):] {
			answers = append(answers, answerJSON{Nodes: a.Nodes, Score: a.Score})
		}
	}
	rec.svc = tr.add(key, "service", "http", t, time.Now())
	s1 := svc.Stats()
	rec.miss = s1.ResultMisses > s0.ResultMisses
	relax := (s1.EdgeSweeps-s0.EdgeSweeps)*int64(g.NumEdges()) + s1.FrontierEdges - s0.FrontierEdges
	if !rec.miss && newRNG(seed, uint64(req.ID)^1<<44).intn(8) != 0 {
		return nil
	}

	t = time.Now()
	var ok bool
	if req.Op == opJoinN {
		var want []answerJSON
		if want, err = expectAnswers(ctx, g, req, pl.Algorithm); err == nil {
			ok = sameAnswers(want, answers) && (served == nil || sameAnswers(want, served.answers))
		}
	} else {
		var want []pairJSON
		if want, err = expectPairs(ctx, g, req, pl.Algorithm); err == nil {
			ok = samePairs(want, pairs) && (served == nil || samePairs(want, served.pairs))
		}
	}
	if err != nil {
		return fmt.Errorf("oracle for %s request %d: %w", req.Label, req.ID, err)
	}
	rec.exec = tr.add(key, execLayer(req), "service", t, time.Now())
	lc.checked++
	if !ok {
		lc.bad = append(lc.bad, fmt.Sprintf("%s request %d (plan %s)", req.Label, req.ID, pl.Algorithm))
	}
	var nsPerRelax float64
	rec.walkUS, nsPerRelax, err = walkSpan(g, req, pl, tr)
	rec.kernel = float64(relax) * nsPerRelax / 1e6
	return err
}

// walkTargets are the nodes the backward walks of req end at: Q for a
// pair query, the head set of every query edge for an n-way one.
func walkTargets(req *request) []graph.NodeID {
	if req.Op != opJoinN {
		return req.Q
	}
	seen := map[int]bool{}
	var out []graph.NodeID
	for _, e := range shapeEdges(req.Shape, len(req.Sets)) {
		if !seen[e[1]] {
			seen[e[1]] = true
			out = append(out, req.Sets[e[1]]...)
		}
	}
	return out
}

// walkSpan times BackWalkScoresBatch over req's targets at the plan's depth
// on the kernel the plan runs (the certified fast kernel for a certified
// pick, the exact batch kernel otherwise). It returns µs per walk and ns
// per edge relaxation (dense sweeps count |E| relaxations).
func walkSpan(g *graph.Graph, req *request, pl *plan.Plan, tr *tracer) (float64, float64, error) {
	kern, err := measure.Lookup(req.Opts.Measure)
	if err != nil {
		return 0, 0, err
	}
	params := kern.ResolveParams(dht.Params{})
	if params == (dht.Params{}) {
		params = dht.DHTLambda(0.2)
	}
	d := pl.Workload.D
	certified := false
	for _, e := range pl.Estimates {
		if e.Algorithm == pl.Algorithm {
			certified = e.Certified
		}
	}
	var walk func([]graph.NodeID)
	var relaxed func() int64
	width := 0
	edges := int64(g.NumEdges())
	if certified {
		fe, err := dht.NewFastBatchEngine(g, params, d, 0, 1)
		if err != nil {
			return 0, 0, err
		}
		width = fe.Width()
		walk = func(qs []graph.NodeID) { fe.BackWalkScoresBatch(kern.Walk, qs, d) }
		relaxed = func() int64 { return fe.EdgeSweeps * edges }
	} else {
		be, err := dht.NewBatchEngine(g, params, d, 0)
		if err != nil {
			return 0, 0, err
		}
		width = be.W
		walk = func(qs []graph.NodeID) { be.BackWalkScoresBatch(kern.Walk, qs, d) }
		relaxed = func() int64 { return be.EdgeSweeps*edges + be.FrontierEdges }
	}
	targets := walkTargets(req)
	t := time.Now()
	for i := 0; i < len(targets); i += width {
		walk(targets[i:min(i+width, len(targets))])
	}
	ms := tr.add(reqKey(req), "dht", execLayer(req), t, time.Now())
	return ms * 1000 / float64(len(targets)), ms * 1e6 / float64(max(relaxed(), 1)), nil
}

// execLayer names the executor layer a read runs in.
func execLayer(req *request) string {
	switch {
	case req.Op == opJoinN:
		return "core"
	case req.Opts.Measure == "ppr":
		return "ppr"
	}
	return "join2"
}

// dirSizes maps each regular file under dir to its size.
func dirSizes(dir string) (map[string]int64, error) {
	sizes := map[string]int64{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		sizes[path] = info.Size()
		return nil
	})
	return sizes, err
}

// bytesWritten estimates the bytes written between two listings: growth of
// files that only grew, and the whole size of files that are new or were
// rewritten shorter.
func bytesWritten(before, after map[string]int64) int64 {
	var n int64
	for path, size := range after {
		if old, ok := before[path]; ok && size >= old {
			n += size - old
		} else {
			n += size
		}
	}
	return n
}

// Package service is the long-lived query-serving layer over the join
// library: a Service owns a bounded registry of named graphs and, per
// (graph, params, d, relabel-mode) configuration, a session holding the
// shared resources that make cross-request reuse safe and worthwhile — a
// dht.EnginePool (engines and batch engines recycled across requests), a
// concurrency-safe score-column memo, the cached locality relabeling, and an
// LRU of recent top-k results. A per-request admission controller caps the
// total worker goroutines in flight, so concurrent requests cannot
// oversubscribe GOMAXPROCS.
//
// Results are bit-identical to the corresponding one-shot dhtjoin calls:
// both resolve, plan and open through the one execution core
// (internal/exec), worker count and batch width never change a result (ties
// break on the canonical pair key), memo-served columns are byte-for-byte
// the columns a fresh walk would produce, and the result LRU stores exactly
// what the join returned.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/join2"
	"repro/internal/plan"
	"repro/internal/rankjoin"
	"repro/internal/store"
)

// Config sizes the service. The zero value selects the defaults.
type Config struct {
	// MaxGraphs bounds the graph registry; Load fails when full (graphs pin
	// O(|V|+|E|) memory each, so eviction behind a serving client's back
	// would be worse than an explicit error). Default 16.
	MaxGraphs int

	// MaxSessions bounds the per-configuration session cache; least
	// recently used sessions (their pool, memo, and result cache) are
	// evicted. Default 32.
	MaxSessions int

	// ResultCacheSize is each session's LRU capacity of recent top-k
	// results. 0 selects 128; negative disables result caching.
	ResultCacheSize int

	// MemoSize is each session's score-column memo capacity. 0 selects 256
	// (sharded; see dht.NewScoreMemo); negative disables the memo.
	MemoSize int

	// MaxConcurrency caps the total join workers in flight across all
	// concurrent requests (the admission controller grants each request
	// between 1 and its resolved worker count). 0 selects GOMAXPROCS.
	MaxConcurrency int

	// TenantInFlight caps how many requests of one tenant may hold admission
	// tokens at once; further requests of that tenant wait even while tokens
	// are free, so one tenant cannot monopolize the worker pool. 0 selects
	// MaxConcurrency (no per-tenant limit beyond the global one).
	TenantInFlight int

	// TenantQueue caps how many requests of one tenant may wait for
	// admission; beyond it, requests fail fast with ErrQuotaExceeded.
	// 0 selects 32.
	TenantQueue int

	// DefaultBudget is the wall-clock deadline budget applied to queries that
	// do not carry their own (Query.Budget). 0 means no default budget.
	DefaultBudget time.Duration

	// MaxBudget caps every query's budget, including queries with none.
	// 0 means no cap.
	MaxBudget time.Duration

	// ShedQueue is the admission-waiter count at which the HTTP layer starts
	// shedding load by clamping demanded k toward cached or cheap prefixes
	// (shedding engages only when no tokens are free AND at least ShedQueue
	// requests are already waiting). 0 selects 8; negative disables shedding.
	ShedQueue int

	// ShedK is the k that over-demanding batch requests are clamped to while
	// shedding (when no cached prefix can serve them). 0 selects 16.
	ShedK int

	// StreamWriteTimeout bounds each NDJSON line write of a streaming HTTP
	// response, so one stalled reader cannot pin pooled engines and admission
	// tokens forever. 0 selects 30s; negative disables the per-write deadline.
	StreamWriteTimeout time.Duration

	// Fault, when non-nil, injects faults (errors, latency, panics) at the
	// service's instrumented sites — engine checkout, walk rounds, response
	// writes. Test-only; nil (the default) is a strict no-op.
	Fault *fault.Injector

	// Store, when non-nil, makes the registry durable: loads write a
	// checksummed snapshot, edge updates append to a per-graph WAL, and drops
	// remove the on-disk state. It also changes MaxGraphs from a hard limit
	// into a residency bound — a full registry evicts the least recently used
	// graph from memory only (its durable state stays on disk and reloads
	// transparently on next use) instead of failing the load.
	Store *store.Store

	// Router, when non-nil, may claim 2-way join requests for cluster
	// scatter before local resolution (see Router). Requests under a
	// WithoutRouting context always evaluate locally.
	Router Router
}

const (
	defaultTenantQueue  = 32
	defaultShedQueue    = 8
	defaultShedK        = 16
	defaultWriteTimeout = 30 * time.Second
)

func (c Config) withDefaults() Config {
	// MaxGraphs, MaxSessions, and MaxConcurrency have no meaningful
	// "disabled" state (the service needs at least one of each), so any
	// value below 1 selects the default rather than, say, wedging the
	// session LRU eviction on an empty order slice. ResultCacheSize and
	// MemoSize keep their documented negative-disables convention.
	if c.MaxGraphs < 1 {
		c.MaxGraphs = 16
	}
	if c.MaxSessions < 1 {
		c.MaxSessions = 32
	}
	if c.ResultCacheSize == 0 {
		c.ResultCacheSize = 128
	}
	if c.MemoSize == 0 {
		c.MemoSize = 256
	}
	if c.MaxConcurrency < 1 {
		c.MaxConcurrency = runtime.GOMAXPROCS(0)
	}
	if c.TenantInFlight < 1 {
		c.TenantInFlight = c.MaxConcurrency
	}
	if c.TenantQueue < 1 {
		c.TenantQueue = defaultTenantQueue
	}
	if c.ShedQueue == 0 {
		c.ShedQueue = defaultShedQueue
	}
	if c.ShedK < 1 {
		c.ShedK = defaultShedK
	}
	if c.StreamWriteTimeout == 0 {
		c.StreamWriteTimeout = defaultWriteTimeout
	}
	return c
}

// Query carries one request's join options: the execution core's query
// type, so served requests resolve exactly as one-shot dhtjoin calls do.
// Tenant, Priority and Budget are the serving layer's additions — quotas
// and deadlines never change a result, only whether and how much of it is
// served.
type Query = exec.Query

// Priority classes for Query.Priority.
const (
	PriorityInteractive = classInteractive
	PriorityBatch       = classBatch
)

// SetRef names the node set of one join position: either a set declared by
// the loaded graph (Name) or an explicit node list (IDs). Exactly one must
// be set.
type SetRef struct {
	Name string
	IDs  []graph.NodeID
}

// GraphInfo describes one registry entry.
type GraphInfo struct {
	Name  string   `json:"name"`
	Nodes int      `json:"nodes"`
	Edges int      `json:"edges"`
	Sets  []string `json:"sets"`

	// Generation counts the graph's durable state changes (snapshot base +
	// WAL records with a store attached; a plain in-memory edit counter
	// without one). 0 until the graph is first edited or persisted.
	Generation uint64 `json:"generation,omitempty"`
	// Evicted marks a persisted graph not currently resident in memory; it
	// reloads transparently on first use.
	Evicted bool `json:"evicted,omitempty"`
}

// Stats is a snapshot of the service's monotone work counters plus the
// registry/session gauges.
type Stats struct {
	Graphs   int `json:"graphs"`   // gauge: loaded graphs
	Sessions int `json:"sessions"` // gauge: live sessions

	Join2Requests int64 `json:"join2_requests"`
	JoinNRequests int64 `json:"joinn_requests"`
	ScoreRequests int64 `json:"score_requests"`

	ResultHits   int64 `json:"result_hits"`
	ResultMisses int64 `json:"result_misses"`
	MemoHits     int64 `json:"memo_hits"`
	MemoMisses   int64 `json:"memo_misses"`

	// Planner surface: decisions made, plan-cache hits, and how often each
	// executor was picked for execution (forced picks included).
	PlanRequests  int64            `json:"plan_requests"`
	PlanCacheHits int64            `json:"plan_cache_hits"`
	PlanPicks     map[string]int64 `json:"plan_picks,omitempty"`

	// MeasureQueries counts join/score queries per resolved measure name
	// ("dht", "ppr", "simrank", …) — the serving-side view of the measure
	// registry.
	MeasureQueries map[string]int64 `json:"measure_queries,omitempty"`

	Walks         int64 `json:"walks"`
	EdgeSweeps    int64 `json:"edge_sweeps"`
	FrontierEdges int64 `json:"frontier_edges"`

	// Certified fast-kernel surface: runs that executed on the fast kernel,
	// pairs re-verified through the bit-identical kernel, and the re-verify
	// excess over the demanded k (band pairs rescored beyond what was
	// emitted — the price of certification near ties).
	KernelPicks   int64 `json:"kernel_picks"`
	Reverified    int64 `json:"reverified"`
	FallbackPairs int64 `json:"fallback_pairs"`

	// Hardening surface: quota rejections, budget truncations, shed clamps,
	// and recovered panics are monotone counters; the admission gauges and
	// the drain flag describe the instantaneous load state.
	QuotaRejections   int64 `json:"quota_rejections"`
	BudgetTruncations int64 `json:"budget_truncations"`
	ShedClamps        int64 `json:"shed_clamps"`
	PanicsRecovered   int64 `json:"panics_recovered"`
	AdmissionFree     int   `json:"admission_free"`
	AdmissionWaiting  int   `json:"admission_waiting"`
	Draining          bool  `json:"draining"`

	// Durability surface: edge-update requests served, the store's
	// persistence counters (WAL appends, snapshots, recovery outcomes —
	// present only with a store attached), and each persisted graph's
	// current generation. A warm Generations map right after boot is how an
	// operator confirms recovery repopulated the registry; non-zero
	// WALTruncations or SnapshotFallbacks inside Persistence mean recovery
	// degraded a graph to its last consistent state.
	EdgeUpdates int64             `json:"edge_updates,omitempty"`
	Persistence *store.Counters   `json:"persistence,omitempty"`
	Generations map[string]uint64 `json:"generations,omitempty"`

	// Cluster surface: present only with a Router configured — scatter
	// queries coordinated, shard streams opened/early-stopped, failovers,
	// and placement traffic (see RouterStats).
	Cluster *RouterStats `json:"cluster,omitempty"`
}

// relabeledGraph pairs a reordered graph with its id map.
type relabeledGraph struct {
	g *graph.Graph
	r *graph.Relabeling
}

// graphEntry is one registry slot.
type graphEntry struct {
	g    *graph.Graph
	sets map[string]*graph.NodeSet
	gen  uint64 // durable generation (see GraphInfo.Generation)

	mu        sync.Mutex
	relabeled map[graph.RelabelMode]*relabeledGraph // built once per mode
}

// relabeledFor returns the cached reordering, building it on first use. The
// build runs under the entry lock: concurrent first requests for one mode
// must not both pay the O(|E| log |E|) rebuild, and later requests hit the
// map without rebuilding.
func (ge *graphEntry) relabeledFor(mode graph.RelabelMode) *relabeledGraph {
	if mode == graph.NoRelabel {
		return &relabeledGraph{g: ge.g}
	}
	ge.mu.Lock()
	defer ge.mu.Unlock()
	if rl, ok := ge.relabeled[mode]; ok {
		return rl
	}
	rg, r := graph.Relabel(ge.g, mode)
	rl := &relabeledGraph{g: rg, r: r}
	if ge.relabeled == nil {
		ge.relabeled = make(map[graph.RelabelMode]*relabeledGraph, 2)
	}
	ge.relabeled[mode] = rl
	return rl
}

// sessionKey identifies one shared-resource session. The graph pointer (not
// the registry name) keys it, so reloading a name invalidates naturally and
// two names sharing a graph share a session. The canonical measure name is a
// key dimension: a measure's memoized state (result prefixes, plan
// decisions, calibration) must never serve another measure's queries.
type sessionKey struct {
	g       *graph.Graph
	params  dht.Params
	d       int
	relabel graph.RelabelMode
	measure string
}

// session owns the shared per-configuration resources.
type session struct {
	g       *graph.Graph      // possibly relabeled
	rl      *graph.Relabeling // nil when not relabeled
	pool    *dht.EnginePool   // engines + batch engines, recycled across requests
	memo    *dht.ScoreMemo    // concurrency-safe score columns
	results *resultLRU        // recent top-k results, original id space
	plans   *planCache        // planner decisions, keyed like the result LRU (+k)
	calib   *plan.Calibration // observed-cost feedback from bit-identical runs
	// calibFast is the fast-kernel bucket: calibration is keyed by kernel
	// contract because the certified executors mix cheap float32-lane
	// sweeps with exact rescores — folding their counters into the exact
	// bucket would skew the cost unit every exact plan is priced with.
	calibFast *plan.Calibration
}

// calibFor selects the session's calibration bucket for a kernel contract.
func (sess *session) calibFor(certified bool) *plan.Calibration {
	if certified {
		return sess.calibFast
	}
	return sess.calib
}

// Service is the concurrent query-serving subsystem. All methods are safe
// for concurrent use.
type Service struct {
	cfg Config

	mu           sync.Mutex
	graphs       map[string]*graphEntry
	graphOrder   []string // most recently used last; drives store-backed eviction
	sessions     map[sessionKey]*session
	sessionOrder []sessionKey // most recently used last

	store  *store.Store // nil without persistence
	editMu sync.Mutex   // serializes edge updates (read-modify-write + WAL append)

	adm      *admission
	counters dht.Counters // lifetime engine work, fed by every session pool
	draining atomic.Bool  // set once by StartDrain; never cleared

	join2Reqs, joinNReqs, scoreReqs    atomic.Int64
	resultHits, resultMisses           atomic.Int64
	retiredMemoHits, retiredMemoMisses atomic.Int64 // from evicted sessions
	planReqs, planCacheHits            atomic.Int64
	budgetTruncs, shedClamps, panics   atomic.Int64
	edgeUpdates                        atomic.Int64

	picksMu sync.Mutex
	picks   map[string]int64 // executions per chosen executor name

	measureMu      sync.Mutex
	measureQueries map[string]int64 // queries per resolved measure name
}

// New returns a Service sized by cfg (zero value = defaults).
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:      cfg,
		store:    cfg.Store,
		graphs:   make(map[string]*graphEntry),
		sessions: make(map[sessionKey]*session),
		adm:      newAdmission(cfg.MaxConcurrency, cfg.TenantInFlight, cfg.TenantQueue),
		picks:    make(map[string]int64),

		measureQueries: make(map[string]int64),
	}
}

// StartDrain moves the service into graceful drain: every subsequent query
// entry point fails fast with ErrDraining while already-open streams keep
// running to completion (or until their contexts are cancelled by the
// caller's drain budget). Idempotent; drain is one-way.
func (s *Service) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Service) Draining() bool { return s.draining.Load() }

// admitGate is the shared fail-fast check at every query entry point.
func (s *Service) admitGate() error {
	if s.draining.Load() {
		return ErrDraining
	}
	return nil
}

// Shedding reports whether the service is overloaded enough that the HTTP
// layer should degrade demanded k: no admission tokens free and at least
// ShedQueue requests already waiting. Purely advisory — shedding never
// changes the scores of what is served, only how much of the ranking is.
func (s *Service) Shedding() bool {
	if s.cfg.ShedQueue < 0 {
		return false
	}
	free, waiting, _ := s.adm.snapshot()
	return free == 0 && waiting >= s.cfg.ShedQueue
}

// ShedK returns the k that over-demanding requests degrade to while shedding.
func (s *Service) ShedK() int { return s.cfg.ShedK }

// WriteTimeout returns the per-line write deadline for streaming responses
// (0 means disabled).
func (s *Service) WriteTimeout() time.Duration {
	if s.cfg.StreamWriteTimeout < 0 {
		return 0
	}
	return s.cfg.StreamWriteTimeout
}

// notePanic counts one recovered panic (stream pulls and HTTP handlers).
func (s *Service) notePanic() { s.panics.Add(1) }

// budgetContext applies the query's wall-clock budget — its own, else the
// service default, capped by MaxBudget — to ctx (see exec.BudgetContext).
// The returned cancel must always be called.
func (s *Service) budgetContext(ctx context.Context, q *Query) (context.Context, context.CancelFunc) {
	b := q.Budget
	if b <= 0 {
		b = s.cfg.DefaultBudget
	}
	if s.cfg.MaxBudget > 0 && (b <= 0 || b > s.cfg.MaxBudget) {
		b = s.cfg.MaxBudget
	}
	return exec.BudgetContext(ctx, b)
}

// planFor runs the planner for one request through the session's plan
// cache: cached decisions are reused while the calibration generation they
// were stamped with still holds, so a session recalibrated by observed
// counters re-plans with the fresh cost unit. Forced algorithms skip the
// cache (validation is the whole cost).
func (s *Service) planFor(sess *session, class plan.Class, baseKey string, k int, w plan.Workload, forced string) (*plan.Plan, error) {
	s.planReqs.Add(1)
	// Fast-accuracy plans are priced (and their cache entries validated)
	// with the fast-kernel calibration bucket; the contract the executed
	// stream actually ran under decides which bucket its counters feed.
	cal := sess.calibFor(w.Accuracy == plan.Fast)
	w.Calib = cal
	if forced != "" {
		return plan.Decide(class, w, forced)
	}
	var key string
	var gen uint64
	if baseKey != "" {
		// baseKey embeds the accuracy mode (queryKey), so exact and fast
		// decisions never alias one cache slot.
		key = fmt.Sprintf("%s|plan-k=%d", baseKey, k)
		gen = cal.Gen()
		if pl, ok := sess.plans.get(key, gen); ok {
			s.planCacheHits.Add(1)
			return pl, nil
		}
	}
	pl, err := plan.Decide(class, w, "")
	if err != nil {
		return nil, err
	}
	if key != "" {
		sess.plans.put(key, gen, pl)
	}
	return pl, nil
}

// recordPick counts one execution of the chosen executor.
func (s *Service) recordPick(name string) {
	s.picksMu.Lock()
	s.picks[name]++
	s.picksMu.Unlock()
}

// recordMeasure counts one query against the resolved measure.
func (s *Service) recordMeasure(name string) {
	s.measureMu.Lock()
	s.measureQueries[name]++
	s.measureMu.Unlock()
}

// LoadGraph registers g under name with its node sets. Loading an existing
// name replaces it (old sessions die with their graph pointer). With a store
// attached the graph is made durable first — the load fails without changing
// served state if the snapshot cannot be written — and a full registry
// evicts its least recently used resident instead of failing; without one,
// loading a new name into a full registry fails.
func (s *Service) LoadGraph(name string, g *graph.Graph, sets []*graph.NodeSet) error {
	if name == "" {
		return fmt.Errorf("service: graph name must be non-empty")
	}
	if g == nil {
		return fmt.Errorf("service: nil graph")
	}
	byName := make(map[string]*graph.NodeSet, len(sets))
	for _, set := range sets {
		if err := set.Validate(g); err != nil {
			return err
		}
		byName[set.Name] = set
	}
	var gen uint64
	if s.store != nil {
		var err error
		if gen, err = s.store.Put(name, g, sets); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old, replacing := s.graphs[name]
	if !replacing && len(s.graphs) >= s.cfg.MaxGraphs {
		if s.store == nil {
			return fmt.Errorf("service: graph registry full (%d); drop one first", s.cfg.MaxGraphs)
		}
		s.evictGraphLocked(name)
	}
	s.graphs[name] = &graphEntry{g: g, sets: byName, gen: gen}
	s.touchGraphLocked(name)
	if replacing {
		s.purgeSessionsLocked(old.g)
	}
	return nil
}

// LoadGraphText reads a text-format graph (with node sets) and registers it,
// returning the registered entry's description. The info is computed from the
// parsed graph itself — not from a post-load registry lookup — so a
// concurrent DropGraph or replacing load cannot make a successful load look
// like the graph vanished.
func (s *Service) LoadGraphText(name string, r io.Reader) (GraphInfo, error) {
	g, sets, err := graph.ReadText(r)
	if err != nil {
		return GraphInfo{}, err
	}
	if err := s.LoadGraph(name, g, sets); err != nil {
		return GraphInfo{}, err
	}
	info := GraphInfo{Name: name, Nodes: g.NumNodes(), Edges: g.NumEdges()}
	if s.store != nil {
		info.Generation = s.store.Gen(name)
	}
	for _, set := range sets {
		info.Sets = append(info.Sets, set.Name)
	}
	sort.Strings(info.Sets)
	return info, nil
}

// DropGraph removes the named graph — its registry entry, its sessions, and
// (with a store attached) its on-disk state — reporting whether it existed.
// The graph stops being served even when the durable removal fails partway;
// the error is surfaced so the caller can retry the drop, and recovery
// treats a partially deleted graph as either fully present or fully absent.
func (s *Service) DropGraph(name string) (bool, error) {
	var derr error
	existed := false
	if s.store != nil && s.store.Has(name) {
		existed = true
		derr = s.store.Delete(name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ge, ok := s.graphs[name]; ok {
		existed = true
		delete(s.graphs, name)
		s.removeGraphOrderLocked(name)
		s.purgeSessionsLocked(ge.g)
	}
	return existed, derr
}

// purgeSessionsLocked drops every session keyed on g, retiring their memo
// stats so Stats counters stay monotone.
func (s *Service) purgeSessionsLocked(g *graph.Graph) {
	kept := s.sessionOrder[:0]
	for _, key := range s.sessionOrder {
		if key.g != g {
			kept = append(kept, key)
			continue
		}
		s.retireSessionLocked(key)
	}
	s.sessionOrder = kept
}

// retireSessionLocked removes one session, folding its memo counters into
// the retired accumulators.
func (s *Service) retireSessionLocked(key sessionKey) {
	if sess, ok := s.sessions[key]; ok {
		s.retiredMemoHits.Add(sess.memo.Hits())
		s.retiredMemoMisses.Add(sess.memo.Misses())
		delete(s.sessions, key)
	}
}

// Graphs lists the registry sorted by name — resident graphs plus any
// persisted graphs currently evicted from memory (marked Evicted; they
// reload on first use).
func (s *Service) Graphs() []GraphInfo {
	s.mu.Lock()
	out := make([]GraphInfo, 0, len(s.graphs))
	for name, ge := range s.graphs {
		info := GraphInfo{Name: name, Nodes: ge.g.NumNodes(), Edges: ge.g.NumEdges(), Generation: ge.gen}
		for sn := range ge.sets {
			info.Sets = append(info.Sets, sn)
		}
		sort.Strings(info.Sets)
		out = append(out, info)
	}
	resident := make(map[string]bool, len(s.graphs))
	for name := range s.graphs {
		resident[name] = true
	}
	s.mu.Unlock()
	if s.store != nil {
		for _, name := range s.store.Names() {
			if resident[name] {
				continue
			}
			nodes, edges, gen, sets, ok := s.store.Info(name)
			if !ok {
				continue
			}
			out = append(out, GraphInfo{Name: name, Nodes: nodes, Edges: edges, Sets: sets, Generation: gen, Evicted: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// graphFor resolves a registry name, lazily reloading a persisted graph that
// was evicted from memory.
func (s *Service) graphFor(name string) (*graphEntry, error) {
	s.mu.Lock()
	if ge, ok := s.graphs[name]; ok {
		s.touchGraphLocked(name)
		s.mu.Unlock()
		return ge, nil
	}
	s.mu.Unlock()
	if s.store == nil || !s.store.Has(name) {
		return nil, fmt.Errorf("service: no graph %q loaded", name)
	}
	return s.reloadGraph(name)
}

// sessionFor returns (creating if needed) the shared session for the
// resolved configuration, refreshing its LRU recency.
func (s *Service) sessionFor(ge *graphEntry, params dht.Params, d int, mode graph.RelabelMode, measureName string) (*session, error) {
	key := sessionKey{g: ge.g, params: params, d: d, relabel: mode, measure: measureName}
	s.mu.Lock()
	if sess, ok := s.sessions[key]; ok {
		s.touchSessionLocked(key)
		s.mu.Unlock()
		return sess, nil
	}
	s.mu.Unlock()

	// Build outside the lock: the relabel rebuild is O(|E| log |E|).
	rl := ge.relabeledFor(mode)
	pool, err := dht.NewEnginePool(rl.g, params, d)
	if err != nil {
		return nil, err
	}
	pool.Sink = &s.counters
	sess := &session{
		g:         rl.g,
		rl:        rl.r,
		pool:      pool,
		memo:      newSessionMemo(s.cfg.MemoSize),
		results:   newResultLRU(s.cfg.ResultCacheSize),
		plans:     newPlanCache(planCacheCap),
		calib:     &plan.Calibration{},
		calibFast: &plan.Calibration{},
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.sessions[key]; ok {
		s.touchSessionLocked(key) // lost the build race; share the winner
		return prev, nil
	}
	// The graph may have been dropped (or replaced under its name) while the
	// session was being built lock-free. Caching the session then would pin
	// the dead graph's memory in an entry no future request can reach — the
	// request in flight still gets its session, it just isn't retained.
	if !s.graphLiveLocked(ge.g) {
		return sess, nil
	}
	if len(s.sessionOrder) >= s.cfg.MaxSessions {
		oldest := s.sessionOrder[0]
		s.sessionOrder = s.sessionOrder[1:]
		s.retireSessionLocked(oldest)
	}
	s.sessions[key] = sess
	s.sessionOrder = append(s.sessionOrder, key)
	return sess, nil
}

// graphLiveLocked reports whether g still backs a registry entry (caller
// holds s.mu). O(MaxGraphs), which is small by construction.
func (s *Service) graphLiveLocked(g *graph.Graph) bool {
	for _, ge := range s.graphs {
		if ge.g == g {
			return true
		}
	}
	return false
}

// touchSessionLocked moves key to the MRU position (caller holds s.mu and
// has verified presence).
func (s *Service) touchSessionLocked(key sessionKey) {
	for i, k := range s.sessionOrder {
		if k == key {
			copy(s.sessionOrder[i:], s.sessionOrder[i+1:])
			s.sessionOrder[len(s.sessionOrder)-1] = key
			return
		}
	}
}

// newSessionMemo builds a session memo honoring the disable convention.
func newSessionMemo(size int) *dht.ScoreMemo {
	if size < 0 {
		return nil
	}
	return dht.NewScoreMemo(size)
}

// resolveSet maps a SetRef to node ids in the entry's graph.
func (ge *graphEntry) resolveSet(ref SetRef) ([]graph.NodeID, error) {
	switch {
	case ref.Name != "" && ref.IDs != nil:
		return nil, fmt.Errorf("service: set ref must have either a name or ids, not both")
	case ref.Name != "":
		set, ok := ge.sets[ref.Name]
		if !ok {
			return nil, fmt.Errorf("service: graph declares no node set %q", ref.Name)
		}
		return set.Nodes(), nil
	case len(ref.IDs) > 0:
		n := ge.g.NumNodes()
		for _, id := range ref.IDs {
			if id < 0 || int(id) >= n {
				return nil, fmt.Errorf("service: node %d out of range [0,%d)", id, n)
			}
		}
		return ref.IDs, nil
	}
	return nil, fmt.Errorf("service: empty set ref")
}

// refKey serializes a SetRef for the result-cache key. Explicit id lists are
// written in full — a hashed key could collide and silently serve another
// request's results — and names are length-prefixed for the same reason:
// set names are caller-chosen strings, so a name containing the key
// delimiters could otherwise alias a different request's key.
func refKey(sb *strings.Builder, ref SetRef) {
	if ref.Name != "" {
		fmt.Fprintf(sb, "n%d:%s", len(ref.Name), ref.Name)
		return
	}
	fmt.Fprintf(sb, "i%d:", len(ref.IDs))
	for _, id := range ref.IDs {
		sb.WriteString(strconv.Itoa(int(id)))
		sb.WriteByte(',')
	}
}

// queryKey serializes the parts of a resolved query shared by all ops.
// Accuracy is part of the key even though certified plans emit the same
// ranking: the plan cache is keyed off this string, and an exact-accuracy
// request must never be served a plan whose eligibility set included the
// certified executors (or vice versa).
func queryKey(sb *strings.Builder, r *exec.Resolved) {
	fmt.Fprintf(sb, "|p=%v,%v,%v|d=%d|ms=%d|mn=%s|acc=%s", r.Params.Alpha, r.Params.Beta, r.Params.Lambda, r.D, r.Measure, r.MeasureName, r.Acc)
}

// join2Req is one resolved 2-way request: session, node sets (original id
// space), the resolved query, and the prefix-cache key.
type join2Req struct {
	svc    *Service
	sess   *session
	pn, qn []graph.NodeID
	r      exec.Resolved
	key    string
}

// resolve runs the execution core's option resolution plus the forced
// algorithm check, counting the query against its measure. The forced
// check runs here, before any cache can serve the request — a bad hint
// must fail even when the ranking itself is already cached.
func (s *Service) resolve(query Query, class plan.Class) (exec.Resolved, error) {
	r, err := exec.Resolve(query)
	if err != nil {
		return r, err
	}
	s.recordMeasure(r.MeasureName)
	return r, r.Forced(class)
}

// resolveJoin2 resolves options, names, sets, and the session.
func (s *Service) resolveJoin2(graphName string, p, q SetRef, query Query) (*join2Req, error) {
	r, err := s.resolve(query, plan.TwoWay)
	if err != nil {
		return nil, err
	}
	ge, err := s.graphFor(graphName)
	if err != nil {
		return nil, err
	}
	pn, err := ge.resolveSet(p)
	if err != nil {
		return nil, err
	}
	qn, err := ge.resolveSet(q)
	if err != nil {
		return nil, err
	}
	sess, err := s.sessionFor(ge, r.Params, r.D, r.Relabel, r.MeasureName)
	if err != nil {
		return nil, err
	}
	// The key deliberately excludes k: the cache stores ranking prefixes,
	// and the prefix invariant makes one entry serve every k up to its
	// length.
	var sb strings.Builder
	sb.WriteString("join2|")
	refKey(&sb, p)
	sb.WriteByte('|')
	refKey(&sb, q)
	queryKey(&sb, &r)
	return &join2Req{svc: s, sess: sess, pn: pn, qn: qn, r: r, key: sb.String()}, nil
}

// open acquires admission (honoring ctx) and starts the pair stream.
// initial sizes the first batch; 0 selects the resolved per-edge budget.
// batch marks a drain-exactly-initial caller (Join2); see exec.OpenPairs.
func (rq *join2Req) open(ctx context.Context, initial int, batch bool) (*Join2Stream, error) {
	if initial <= 0 {
		initial = rq.r.M
	}
	// Plan (or validate the forced algorithm) before admission: planning is
	// sub-microsecond against the graph's cached stats, and a rejected hint
	// must not consume admission tokens.
	pl, err := rq.svc.planFor(rq.sess, plan.TwoWay, rq.key, initial, rq.workload(initial), rq.r.Algorithm)
	if err != nil {
		return nil, err
	}
	rn, env, err := rq.svc.admit(ctx, rq.sess, &rq.r.Query)
	if err != nil {
		return nil, err
	}
	st, err := rq.r.OpenPairs(pl.Algorithm, env, rq.pn, rq.qn, initial, batch)
	if err != nil {
		rn.finish(nil)
		return nil, err
	}
	rq.svc.recordPick(pl.Algorithm)
	return &Join2Stream{stream[join2.Result]{run: rn, key: rq.key, st: st, calib: rq.sess.calibFor(planCertified(pl))}}, nil
}

// workload assembles the planner's view of the request for demand k.
func (rq *join2Req) workload(k int) plan.Workload {
	return rq.r.PairWorkload(rq.sess.g, len(rq.pn), len(rq.qn), k)
}

// run is the serving state one stream holds: its budget context, admission
// grant, session, and run-scoped counters. Replays and routed streams carry
// only svc and ctx (and a replay its session).
type run struct {
	svc       *Service
	ctx       context.Context
	cancel    context.CancelFunc // releases the budget timer; nil for replays
	sess      *session           // nil for routed (cluster-merged) streams
	grant     *grant
	ctrs      *dht.Counters // run-scoped; feeds the session calibration on Stop
	budgetHit bool          // the deadline budget cut the ranking short
}

// admit starts the budget clock, acquires admission, and assembles the
// execution environment over the session's shared state. The budget clock
// covers the admission wait too: a request that spends its whole budget
// queued is already late.
func (s *Service) admit(ctx context.Context, sess *session, q *Query) (run, exec.Env, error) {
	qctx, cancel := s.budgetContext(ctx, q)
	g, err := s.adm.acquire(qctx, q.Tenant, q.Priority, resolveWorkers(q.Workers))
	if err != nil {
		cancel()
		return run{}, exec.Env{}, admitErr(qctx, err)
	}
	if err := s.cfg.Fault.Inject(fault.Checkout); err != nil {
		s.adm.release(g)
		cancel()
		return run{}, exec.Env{}, err
	}
	// The run-scoped counters feed the session calibration on Stop and
	// forward every increment to the service's lifetime totals.
	ctrs := &dht.Counters{Chain: &s.counters}
	env := exec.Env{
		Graph:    sess.g,
		Relabel:  sess.rl,
		Pool:     sess.pool,
		Memo:     sess.memo,
		Counters: ctrs,
		Cancel:   s.cancelPoll(qctx),
		Workers:  g.n,
	}
	return run{svc: s, ctx: qctx, cancel: cancel, sess: sess, grant: g, ctrs: ctrs}, env, nil
}

// finish returns the run's admission tokens, stops its budget timer, and
// feeds its observed walk counters to the calibration bucket the stream
// executed under (nil for a stream that never opened). The caller has
// already released the stream's engines.
func (r *run) finish(calib *plan.Calibration) {
	r.svc.adm.release(r.grant)
	r.grant = nil
	if r.cancel != nil {
		r.cancel()
	}
	if r.ctrs != nil && calib != nil {
		calib.Observe(r.ctrs.Snapshot(), r.sess.g.NumEdges())
	}
}

// noteBudget records a budget-expiry truncation exactly once per stream.
func (r *run) noteBudget(err error) {
	if errors.Is(err, ErrBudgetExceeded) && !r.budgetHit {
		r.budgetHit = true
		r.svc.budgetTruncs.Add(1)
	}
}

// planCertified reports whether the plan's chosen executor runs the
// certified fast kernel, looked up in the plan's own estimate table (which
// forced plans carry too).
func planCertified(pl *plan.Plan) bool {
	for _, e := range pl.Estimates {
		if e.Algorithm == pl.Algorithm {
			return e.Certified
		}
	}
	return false
}

// cancelPoll builds the joiners' walk-round cancellation hook for a query
// context: it reports the context's cause (ErrBudgetExceeded on budget
// expiry, context.Canceled on client disconnect) and doubles as the
// walk-round fault-injection site.
func (s *Service) cancelPoll(ctx context.Context) func() error {
	return func() error {
		if err := s.cfg.Fault.Inject(fault.WalkRound); err != nil {
			return err
		}
		// Cause is nil while ctx is live, so this is a pure poll.
		return context.Cause(ctx)
	}
}

// admitErr maps an admission wait that died with the context to the richer
// cancellation cause (budget expiry vs. plain cancel); quota rejections pass
// through.
func admitErr(ctx context.Context, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		if cause := context.Cause(ctx); cause != nil {
			return cause
		}
	}
	return err
}

// maxCachedPrefix bounds how much of a drained ranking a stream records
// for publication to the result cache. Without a cap a single exhaustive
// stream over large sets would make the server buffer (and then pin in the
// LRU) the entire O(|P|·|Q|) ranking the client consumed line by line. A
// truncated recording still publishes a valid prefix — it just cannot
// claim the ranking is exhausted.
const maxCachedPrefix = 4096

// Join2Stream streams one 2-way join request through the session's shared
// pool and memo; see stream for the contract.
type Join2Stream struct{ stream[join2.Result] }

// JoinNStream streams one n-way join request; see stream for the contract.
type JoinNStream struct{ stream[core.Answer] }

// stream is the serving stream logic both query forms share. It holds
// admission tokens and pooled engines until Stop — callers MUST Stop
// (idempotent; draining to exhaustion or a ctx error stops automatically).
// On Stop the drained prefix (up to maxCachedPrefix results) is published
// to the session's result cache, so a later request for any k up to that
// length is served without a join.
type stream[T any] struct {
	run
	key string // empty when the request bypasses the result cache
	st  interface {
		Next() (T, bool, error) // in the caller's id space
		Release()
	}
	calib *plan.Calibration // the kernel bucket the run's counters feed
	// clone deep-copies a result the caller could mutate (n-way answers
	// own a Nodes slice); nil for value results.
	clone     func(T) T
	drained   []T
	truncated bool // results past maxCachedPrefix were not recorded
	exhausted bool
	stopped   bool

	// replay, when non-nil, is a cached complete ranking served in place
	// of a live join (no engines, no admission tokens, nothing to publish).
	replay []T
	pos    int
}

// Truncated reports whether the stream's deadline budget expired: everything
// already returned is a correct ranking prefix, but the ranking was cut
// short. Meaningful once Next has returned an error or Stop has run.
func (s *stream[T]) Truncated() bool { return s.budgetHit }

// copyOf returns v, deep-copied when the result type needs it.
func (s *stream[T]) copyOf(v T) T {
	if s.clone == nil {
		return v
	}
	return s.clone(v)
}

// Next returns the next-best result in the caller's id space; ok is false
// at exhaustion (or after Stop). A cancelled ctx stops the stream and
// returns its cause: ErrBudgetExceeded marks a truncated-but-correct
// prefix, while a plain cancel is an aborted request.
func (s *stream[T]) Next() (T, bool, error) {
	var zero T
	if s.stopped {
		return zero, false, nil
	}
	if s.ctx.Err() != nil {
		err := context.Cause(s.ctx)
		s.noteBudget(err)
		s.Stop()
		return zero, false, err
	}
	if s.replay != nil {
		if s.pos < len(s.replay) {
			// The replay slice is the cache's immutable snapshot.
			v := s.copyOf(s.replay[s.pos])
			s.pos++
			return v, true, nil
		}
		s.exhausted = true
		s.Stop()
		return zero, false, nil
	}
	v, ok, err := s.safeNext()
	if err != nil {
		s.noteBudget(err)
		s.Stop()
		return zero, false, err
	}
	if !ok {
		s.exhausted = true
		s.Stop()
		return zero, false, nil
	}
	// Routed (cluster-merged) streams have no session and uncacheable
	// requests no key: nothing to record. The caller owns v, so the
	// recording keeps its own copy — a caller mutating a served result
	// before Stop must not poison what Stop publishes.
	if s.sess == nil || s.key == "" {
		return v, true, nil
	}
	if len(s.drained) < maxCachedPrefix {
		s.drained = append(s.drained, s.copyOf(v))
	} else {
		s.truncated = true
	}
	return v, true, nil
}

// safeNext pulls from the underlying stream, converting a panic into an
// error so a crashing joiner still flows into Stop (engines released,
// admission returned) instead of unwinding through the caller.
func (s *stream[T]) safeNext() (v T, ok bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.svc.notePanic()
			var zero T
			v, ok, err = zero, false, fmt.Errorf("service: panic in join stream: %v", p)
		}
	}()
	return s.st.Next()
}

// NextK pulls up to k further results (fewer at exhaustion; on error the
// results drained before it are returned alongside).
func (s *stream[T]) NextK(k int) ([]T, error) {
	return join2.Drain(k, s.Next)
}

// Stop releases the stream's engines and admission tokens and publishes the
// drained prefix to the result cache. Idempotent.
func (s *stream[T]) Stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	if s.st != nil {
		s.st.Release()
	}
	s.finish(s.calib)
	if s.sess != nil && s.key != "" && s.replay == nil && (len(s.drained) > 0 || s.exhausted) {
		// drained holds private copies and is never appended to again, so
		// it is published as the immutable cache snapshot directly. A
		// truncated recording is still a valid prefix, but it is not the
		// complete ranking even if the stream ran to exhaustion.
		s.sess.results.put(s.key, prefix{results: s.drained, n: len(s.drained), exhausted: s.exhausted && !s.truncated})
	}
}

// OpenJoin2 opens a streaming top-pairs request on the named graph: results
// arrive one at a time in rank order, bit-identical to the prefix of the
// corresponding batch Join2. ctx cancellation (e.g. a disconnected HTTP
// client) aborts the work and returns the engines to the session pool.
func (s *Service) OpenJoin2(ctx context.Context, graphName string, p, q SetRef, query Query) (*Join2Stream, error) {
	s.join2Reqs.Add(1)
	if err := s.admitGate(); err != nil {
		return nil, err
	}
	if st, claimed, err := s.routed(ctx, graphName, p, q, query); claimed {
		return st, err
	}
	rq, err := s.resolveJoin2(graphName, p, q, query)
	if err != nil {
		return nil, err
	}
	// A cached complete ranking replays without a join (a stream's demand
	// is unknown up front, so only an exhausted prefix can serve it whole).
	if pre, ok := rq.sess.results.getFull(rq.key); ok {
		s.resultHits.Add(1)
		if ctx == nil {
			ctx = context.Background()
		}
		return &Join2Stream{stream[join2.Result]{run: run{svc: s, ctx: ctx, sess: rq.sess}, replay: pre.results.([]join2.Result)}}, nil
	}
	s.resultMisses.Add(1)
	return rq.open(ctx, 0, false)
}

// BatchMeta describes how a batch response was degraded under pressure; the
// zero value means "served exactly as demanded".
type BatchMeta struct {
	// ClampedK, when non-zero, is the k the request was degraded to by load
	// shedding (the served ranking is the exact top-ClampedK).
	ClampedK int `json:"clamped_k,omitempty"`
	// Truncated reports that the deadline budget expired mid-join: the
	// served results are a correct ranking prefix, but shorter than asked.
	Truncated bool `json:"truncated,omitempty"`
}

// Join2 runs (or serves from the prefix cache) a top-k 2-way join from p to
// q with B-IDJ-Y, exactly as dhtjoin.TopKPairs would evaluate it. It drains
// the same stream OpenJoin2 exposes. When the deadline budget expires
// mid-join, the prefix drained so far is returned alongside
// ErrBudgetExceeded.
func (s *Service) Join2(ctx context.Context, graphName string, p, q SetRef, k int, query Query) ([]join2.Result, error) {
	res, meta, err := s.Join2Meta(ctx, graphName, p, q, k, query)
	if err == nil && meta.Truncated {
		err = ErrBudgetExceeded
	}
	return res, err
}

// Join2Meta is Join2 with load-degradation metadata: the HTTP layer uses it
// to report shed clamps and budget truncations as part of a 200 response
// instead of an opaque failure.
func (s *Service) Join2Meta(ctx context.Context, graphName string, p, q SetRef, k int, query Query) ([]join2.Result, BatchMeta, error) {
	var meta BatchMeta
	s.join2Reqs.Add(1)
	if err := s.admitGate(); err != nil {
		return nil, meta, err
	}
	if k <= 0 {
		return nil, meta, fmt.Errorf("service: k must be positive, got %d", k)
	}
	if st, claimed, err := s.routed(ctx, graphName, p, q, query); claimed {
		// A routed join bypasses the local result cache and shed clamping:
		// the shards apply their own admission and budgets, and the corner
		// bound already stops their streams at the demanded k.
		if err != nil {
			return nil, meta, err
		}
		defer st.Stop()
		res, err := st.NextK(k)
		return res, meta, err
	}
	rq, err := s.resolveJoin2(graphName, p, q, query)
	if err != nil {
		return nil, meta, err
	}
	if pre, ok := rq.sess.results.get(rq.key, k); ok {
		s.resultHits.Add(1)
		res := pre.results.([]join2.Result)
		n := min(k, len(res))
		out := make([]join2.Result, n)
		copy(out, res[:n])
		return out, meta, nil
	}
	// Under shed, an over-demanding miss degrades: any cached prefix beats
	// running a join, and failing that the demand is clamped to ShedK. The
	// served results are still the exact top of the ranking — shedding only
	// shortens it.
	if shedK := s.cfg.ShedK; s.Shedding() && k > shedK {
		if pre, ok := rq.sess.results.getAny(rq.key); ok && pre.n > 0 {
			s.resultHits.Add(1)
			s.shedClamps.Add(1)
			res := pre.results.([]join2.Result)
			n := min(k, pre.n)
			out := make([]join2.Result, n)
			copy(out, res[:n])
			meta.ClampedK = n
			return out, meta, nil
		}
		k = shedK
		meta.ClampedK = shedK
		s.shedClamps.Add(1)
	}
	s.resultMisses.Add(1)
	st, err := rq.open(ctx, k, true)
	if err != nil {
		if errors.Is(err, ErrBudgetExceeded) {
			// The budget expired before the join could start (e.g. spent
			// queued at admission): the correct prefix is the empty one.
			s.budgetTruncs.Add(1)
			meta.Truncated = true
			return nil, meta, nil
		}
		return nil, meta, err
	}
	defer st.Stop()
	res, err := st.NextK(k)
	if errors.Is(err, ErrBudgetExceeded) {
		// The drained prefix is correct as far as it goes; surface it with
		// the truncation marker instead of discarding paid-for work.
		meta.Truncated = true
		return res, meta, nil
	}
	if err != nil {
		return nil, meta, err
	}
	return res, meta, nil
}

// joinNReq is one resolved n-way request.
type joinNReq struct {
	svc  *Service
	sess *session
	qg   *core.QueryGraph // original id space
	r    exec.Resolved
	key  string // empty when the request must bypass the cache
}

// resolveJoinN resolves options, names, sets, and the session; forced
// algorithms are validated before any cache, as in resolveJoin2.
func (s *Service) resolveJoinN(graphName string, sets []SetRef, edges [][2]int, query Query) (*joinNReq, error) {
	r, err := s.resolve(query, plan.NWay)
	if err != nil {
		return nil, err
	}
	ge, err := s.graphFor(graphName)
	if err != nil {
		return nil, err
	}
	nodeSets := make([]*graph.NodeSet, len(sets))
	for i, ref := range sets {
		ids, err := ge.resolveSet(ref)
		if err != nil {
			return nil, err
		}
		name := ref.Name
		if name == "" {
			name = fmt.Sprintf("R%d", i)
		}
		nodeSets[i] = graph.NewNodeSet(name, ids)
	}
	qg := core.NewQueryGraph(nodeSets...)
	for _, e := range edges {
		qg.AddEdge(e[0], e[1])
	}
	sess, err := s.sessionFor(ge, r.Params, r.D, r.Relabel, r.MeasureName)
	if err != nil {
		return nil, err
	}
	// The aggregate enters the cache key by name, which identifies it only
	// for the built-in aggregates; a caller-supplied implementation could
	// share a name with a different function, so those requests bypass the
	// result cache rather than risk serving another aggregate's answers.
	// Like the 2-way key, k is excluded: the cache stores ranking prefixes.
	var key string
	if builtinAgg(r.Agg) {
		var sb strings.Builder
		sb.WriteString("joinN|")
		for _, ref := range sets {
			refKey(&sb, ref)
			sb.WriteByte('|')
		}
		for _, e := range edges {
			fmt.Fprintf(&sb, "e%d-%d,", e[0], e[1])
		}
		fmt.Fprintf(&sb, "|agg=%s|m=%d|dist=%v", r.Agg.Name(), r.M, r.Distinct)
		queryKey(&sb, &r)
		key = sb.String()
	}
	return &joinNReq{svc: s, sess: sess, qg: qg, r: r, key: key}, nil
}

// open acquires admission (honoring ctx) and starts the answer stream.
func (rq *joinNReq) open(ctx context.Context) (*JoinNStream, error) {
	// Plan before admission, as in join2Req.open.
	pl, err := rq.svc.planFor(rq.sess, plan.NWay, rq.key, rq.r.M, rq.workload(), rq.r.Algorithm)
	if err != nil {
		return nil, err
	}
	rn, env, err := rq.svc.admit(ctx, rq.sess, &rq.r.Query)
	if err != nil {
		return nil, err
	}
	st, err := rq.r.OpenAnswers(pl.Algorithm, env, rq.qg)
	if err != nil {
		rn.finish(nil)
		return nil, err
	}
	rq.svc.recordPick(pl.Algorithm)
	return &JoinNStream{stream[core.Answer]{run: rn, key: rq.key, st: st, calib: rq.sess.calib, clone: cloneAnswer}}, nil
}

// workload assembles the planner's view of the n-way request.
func (rq *joinNReq) workload() plan.Workload {
	return rq.r.JoinWorkload(rq.sess.g, rq.qg)
}

// OpenJoinN opens a streaming n-way join request; see OpenJoin2.
func (s *Service) OpenJoinN(ctx context.Context, graphName string, sets []SetRef, edges [][2]int, query Query) (*JoinNStream, error) {
	s.joinNReqs.Add(1)
	if err := s.admitGate(); err != nil {
		return nil, err
	}
	rq, err := s.resolveJoinN(graphName, sets, edges, query)
	if err != nil {
		return nil, err
	}
	if rq.key != "" {
		if pre, ok := rq.sess.results.getFull(rq.key); ok {
			s.resultHits.Add(1)
			if ctx == nil {
				ctx = context.Background()
			}
			return &JoinNStream{stream[core.Answer]{run: run{svc: s, ctx: ctx, sess: rq.sess}, replay: pre.results.([]core.Answer), clone: cloneAnswer}}, nil
		}
		s.resultMisses.Add(1)
	}
	return rq.open(ctx)
}

// JoinN runs (or serves from the prefix cache) a top-k n-way join with PJ-i
// over the query graph described by sets and edges (edges index into sets),
// exactly as dhtjoin.TopK would evaluate it. It drains the same stream
// OpenJoinN exposes. When the deadline budget expires mid-join, the prefix
// drained so far is returned alongside ErrBudgetExceeded.
func (s *Service) JoinN(ctx context.Context, graphName string, sets []SetRef, edges [][2]int, k int, query Query) ([]core.Answer, error) {
	res, meta, err := s.JoinNMeta(ctx, graphName, sets, edges, k, query)
	if err == nil && meta.Truncated {
		err = ErrBudgetExceeded
	}
	return res, err
}

// JoinNMeta is JoinN with load-degradation metadata; see Join2Meta.
func (s *Service) JoinNMeta(ctx context.Context, graphName string, sets []SetRef, edges [][2]int, k int, query Query) ([]core.Answer, BatchMeta, error) {
	var meta BatchMeta
	s.joinNReqs.Add(1)
	if err := s.admitGate(); err != nil {
		return nil, meta, err
	}
	if k <= 0 {
		return nil, meta, fmt.Errorf("service: k must be positive, got %d", k)
	}
	rq, err := s.resolveJoinN(graphName, sets, edges, query)
	if err != nil {
		return nil, meta, err
	}
	if rq.key != "" {
		if pre, ok := rq.sess.results.get(rq.key, k); ok {
			s.resultHits.Add(1)
			res := pre.results.([]core.Answer)
			return copyAnswers(res[:min(k, len(res))]), meta, nil
		}
	}
	if shedK := s.cfg.ShedK; s.Shedding() && k > shedK {
		if rq.key != "" {
			if pre, ok := rq.sess.results.getAny(rq.key); ok && pre.n > 0 {
				s.resultHits.Add(1)
				s.shedClamps.Add(1)
				res := pre.results.([]core.Answer)
				n := min(k, pre.n)
				meta.ClampedK = n
				return copyAnswers(res[:n]), meta, nil
			}
		}
		k = shedK
		meta.ClampedK = shedK
		s.shedClamps.Add(1)
	}
	if rq.key != "" {
		s.resultMisses.Add(1)
	}
	st, err := rq.open(ctx)
	if err != nil {
		if errors.Is(err, ErrBudgetExceeded) {
			s.budgetTruncs.Add(1)
			meta.Truncated = true
			return nil, meta, nil
		}
		return nil, meta, err
	}
	defer st.Stop()
	answers, err := st.NextK(k)
	if errors.Is(err, ErrBudgetExceeded) {
		meta.Truncated = true
		return answers, meta, nil
	}
	if err != nil {
		return nil, meta, err
	}
	return answers, meta, nil
}

// ExplainJoin2 resolves a 2-way request and returns the plan its execution
// would run — the chosen algorithm, every candidate's cost estimate, and the
// stats snapshot — without executing anything (a dry run: no admission
// tokens, no engines). k sizes the demand the plan is priced for; k <= 0
// plans for the resolved per-edge budget, as the streaming entry points do.
func (s *Service) ExplainJoin2(ctx context.Context, graphName string, p, q SetRef, k int, query Query) (*plan.Plan, error) {
	rq, err := s.resolveJoin2(graphName, p, q, query)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		k = rq.r.M
	}
	return s.planFor(rq.sess, plan.TwoWay, rq.key, k, rq.workload(k), rq.r.Algorithm)
}

// ExplainJoinN is ExplainJoin2 for n-way requests (k is accepted for API
// symmetry; n-way plans are priced for the per-edge budget either way).
func (s *Service) ExplainJoinN(ctx context.Context, graphName string, sets []SetRef, edges [][2]int, k int, query Query) (*plan.Plan, error) {
	rq, err := s.resolveJoinN(graphName, sets, edges, query)
	if err != nil {
		return nil, err
	}
	return s.planFor(rq.sess, plan.NWay, rq.key, rq.r.M, rq.workload(), rq.r.Algorithm)
}

// Score computes the truncated score h_d(u, v) exactly as dhtjoin.Score,
// through the same core (on the graph as loaded: relabeling is a join-side
// optimization). ctx bounds the wait for admission.
func (s *Service) Score(ctx context.Context, graphName string, u, v graph.NodeID, query Query) (float64, error) {
	s.scoreReqs.Add(1)
	if err := s.admitGate(); err != nil {
		return 0, err
	}
	r, err := exec.Resolve(query)
	if err != nil {
		return 0, err
	}
	s.recordMeasure(r.MeasureName)
	ge, err := s.graphFor(graphName)
	if err != nil {
		return 0, err
	}
	sess, err := s.sessionFor(ge, r.Params, r.D, graph.NoRelabel, r.MeasureName)
	if err != nil {
		return 0, err
	}
	g, err := s.adm.acquire(ctx, r.Tenant, r.Priority, 1)
	if err != nil {
		return 0, err
	}
	defer s.adm.release(g)
	return r.Score(sess.g, sess.pool, u, v)
}

// Stats snapshots the service counters. All int64 fields are monotone over
// the service's lifetime; Graphs and Sessions are gauges.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	graphs := len(s.graphs)
	sessions := len(s.sessions)
	memoHits, memoMisses := s.retiredMemoHits.Load(), s.retiredMemoMisses.Load()
	for _, sess := range s.sessions {
		memoHits += sess.memo.Hits()
		memoMisses += sess.memo.Misses()
	}
	s.mu.Unlock()
	s.picksMu.Lock()
	picks := make(map[string]int64, len(s.picks))
	for name, n := range s.picks {
		picks[name] = n
	}
	s.picksMu.Unlock()
	s.measureMu.Lock()
	measures := make(map[string]int64, len(s.measureQueries))
	for name, n := range s.measureQueries {
		measures[name] = n
	}
	s.measureMu.Unlock()
	snap := s.counters.Snapshot()
	free, waiting, rejected := s.adm.snapshot()
	var cluster *RouterStats
	if s.cfg.Router != nil {
		rs := s.cfg.Router.RouterStats()
		cluster = &rs
	}
	var persistence *store.Counters
	var generations map[string]uint64
	if s.store != nil {
		c := s.store.Counters()
		persistence = &c
		names := s.store.Names()
		generations = make(map[string]uint64, len(names))
		for _, name := range names {
			generations[name] = s.store.Gen(name)
		}
	}
	return Stats{
		Graphs:   graphs,
		Sessions: sessions,

		QuotaRejections:   rejected,
		BudgetTruncations: s.budgetTruncs.Load(),
		ShedClamps:        s.shedClamps.Load(),
		PanicsRecovered:   s.panics.Load(),
		AdmissionFree:     free,
		AdmissionWaiting:  waiting,
		Draining:          s.draining.Load(),

		EdgeUpdates: s.edgeUpdates.Load(),
		Persistence: persistence,
		Generations: generations,
		Cluster:     cluster,

		Join2Requests:  s.join2Reqs.Load(),
		JoinNRequests:  s.joinNReqs.Load(),
		ScoreRequests:  s.scoreReqs.Load(),
		ResultHits:     s.resultHits.Load(),
		ResultMisses:   s.resultMisses.Load(),
		MemoHits:       memoHits,
		MemoMisses:     memoMisses,
		PlanRequests:   s.planReqs.Load(),
		PlanCacheHits:  s.planCacheHits.Load(),
		PlanPicks:      picks,
		MeasureQueries: measures,
		Walks:          snap.Walks,
		EdgeSweeps:     snap.EdgeSweeps,
		FrontierEdges:  snap.FrontierEdges,
		KernelPicks:    snap.KernelPicks,
		Reverified:     snap.Reverified,
		FallbackPairs:  snap.FallbackPairs,
	}
}

// builtinAgg reports whether agg is one of the package-provided aggregates,
// whose Name() uniquely identifies it. (Interface equality is safe here:
// comparison against these comparable struct values never inspects a
// non-comparable dynamic type on the other side.)
func builtinAgg(agg rankjoin.Aggregate) bool {
	switch agg {
	case rankjoin.Sum, rankjoin.Min, rankjoin.Max, rankjoin.Avg:
		return true
	}
	return false
}

// resolveWorkers normalizes a requested worker count to [1, GOMAXPROCS·1].
func resolveWorkers(w int) int {
	if w < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		return 1
	}
	return w
}

// copyAnswers deep-copies answers (Nodes slices included) so cached tuples
// can never be mutated by a caller.
func copyAnswers(in []core.Answer) []core.Answer {
	out := make([]core.Answer, len(in))
	for i, a := range in {
		out[i] = cloneAnswer(a)
	}
	return out
}

// cloneAnswer deep-copies one answer.
func cloneAnswer(a core.Answer) core.Answer {
	nodes := make([]graph.NodeID, len(a.Nodes))
	copy(nodes, a.Nodes)
	return core.Answer{Nodes: nodes, Score: a.Score}
}

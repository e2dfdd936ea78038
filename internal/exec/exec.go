// Package exec is the one execution core every entry point runs through:
// the one-shot dhtjoin facade, the long-lived serving layer
// (internal/service, and so njoind), and the njoin CLI (via the facade).
// It owns the paper's query pipeline exactly once:
//
//   - Resolve: measure-kernel lookup, the default parameters, ε → d
//     (Lemma 1), the aggregate and per-edge budget m, the walk kind, the
//     kernel-contract accuracy and the relabel mode; Forced validates a
//     forced executor against the query class and measure.
//   - Workload: the planner's view of a resolved 2-way or n-way query.
//   - OpenPairs / OpenAnswers: the chosen executor's join2 or core stream,
//     run on the (possibly relabeled) graph with optional shared state
//     (engine pool, score memo, counters, cancel poll, granted workers),
//     emitting results in the caller's id space.
//   - Score / ScoresFrom: single-pair and column scoring, range-checked.
//
// Callers add only what is theirs: the facade adds typed errors and
// per-call relabeling; the service adds admission, sessions, the plan
// cache, the result LRU, budgets and metrics. Because both resolve and
// open through this package, served results are bit-identical to
// one-shot calls by construction.
package exec

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/join2"
	"repro/internal/measure"
	"repro/internal/plan"
	"repro/internal/rankjoin"
)

var (
	// ErrOutOfRange reports a scoring call whose node ids fall outside the
	// graph or whose output column has the wrong length.
	ErrOutOfRange = errors.New("exec: node id or column length out of range")

	// ErrBudgetExceeded is the cancellation cause BudgetContext installs: a
	// join stopped by its deadline budget, distinguishable from a caller
	// cancel, so streams degrade to a truncated-but-correct prefix.
	ErrBudgetExceeded = errors.New("deadline budget exceeded")
)

// Query carries one join's options; the zero value means the paper's
// defaults (DHTλ with λ = 0.2, ε = 1e-6, MIN aggregation, m = 50, the
// planner's pick of executor).
type Query struct {
	// Params are the DHT coefficients; zero means the measure's customary
	// parameterization, falling back to DHTLambda(0.2).
	Params dht.Params
	// Epsilon bounds the truncation error; zero means 1e-6. Ignored when D
	// is set.
	Epsilon float64
	// D forces the truncation depth directly.
	D int
	// Measure selects first-hit DHT (zero) or reach probabilities. When
	// MeasureName is set it is resolved from the registered kernel instead,
	// and this field is ignored.
	Measure dht.Kind
	// MeasureName selects a registered proximity measure by name ("dht",
	// "reach", "ppr", "simrank"); empty means "dht", the paper's measure.
	// An unknown name fails with measure.ErrUnknownMeasure.
	MeasureName string
	// Agg is the n-way aggregate; nil means Min.
	Agg rankjoin.Aggregate
	// M is the initial per-edge budget of the n-way join; zero means 50.
	M int
	// Distinct drops n-way answers repeating a node across positions.
	Distinct bool
	// Workers requests a worker count (the serving layer's admission
	// controller may grant fewer; results are identical at any count).
	// 0/1 serial, negative GOMAXPROCS.
	Workers int
	// BatchWidth tunes the batched walk kernel; 0 default, 1 disables.
	BatchWidth int
	// Relabel applies the locality-aware reordering before joining; results
	// come back in the caller's id space.
	Relabel graph.RelabelMode
	// Algorithm forces the named registered executor ("B-IDJ-Y", "B-BJ",
	// "PJ-i", "AP", …) instead of the cost-based planner's pick. Results
	// are bit-identical under any choice; an unknown name or one of the
	// wrong query class or measure fails the query.
	Algorithm string
	// Accuracy selects the planner's kernel contract: "" or "exact" (the
	// default) restricts plans to bit-identical executors, "fast" also
	// admits the certified fast-kernel executors — same emitted ranking,
	// different cost. Any other spelling fails the query.
	Accuracy string
	// Tenant attributes a served request to an admission-quota bucket;
	// empty is the anonymous shared bucket. One-shot calls ignore it.
	Tenant string
	// Priority selects a served request's admission class (0 interactive,
	// 1 batch). One-shot calls ignore it.
	Priority int
	// Budget is the query's wall-clock deadline budget; 0 means none (the
	// serving layer may apply its default). An expired budget truncates the
	// query to the ranking prefix produced so far.
	Budget time.Duration
}

// Resolved is a Query with every default applied: Params, D, Agg and M hold
// the resolved values, MeasureName the kernel's canonical name (so "" and
// "dht" share cache keys), and Measure the walk kind the engines fold.
type Resolved struct {
	Query
	Kernel measure.Kernel
	Acc    plan.Accuracy
}

// Validate reports whether the query's options resolve.
func (q Query) Validate() error {
	_, err := Resolve(q)
	return err
}

// Resolve applies the defaults. The measure kernel goes first because it
// owns the customary parameterization: "ppr" defaults zero-value params to
// dht.PPR(0.5) before the DHTλ(0.2) fallback applies.
func Resolve(q Query) (Resolved, error) {
	kern, err := measure.Lookup(q.MeasureName)
	if err != nil {
		return Resolved{}, err
	}
	q.Params = kern.ResolveParams(q.Params)
	if q.Params == (dht.Params{}) {
		q.Params = dht.DHTLambda(0.2)
	}
	if err := q.Params.Validate(); err != nil {
		return Resolved{}, err
	}
	if q.D == 0 {
		eps := q.Epsilon
		if eps == 0 {
			eps = 1e-6
		}
		q.D = q.Params.StepsForEpsilon(eps)
	}
	if q.D < 1 {
		return Resolved{}, fmt.Errorf("exec: depth d must be >= 1, got %d", q.D)
	}
	if q.Agg == nil {
		q.Agg = rankjoin.Min
	}
	if q.M == 0 {
		q.M = 50
	}
	if q.M < 0 {
		return Resolved{}, fmt.Errorf("exec: m must be >= 0, got %d", q.M)
	}
	acc, err := plan.ParseAccuracy(q.Accuracy)
	if err != nil {
		return Resolved{}, err
	}
	if err := ValidRelabel(q.Relabel); err != nil {
		return Resolved{}, err
	}
	// An explicit measure name fixes the walk kind (so "ppr" folds reach
	// probabilities regardless of the legacy Measure field), while an empty
	// name keeps honoring a caller-set Measure kind.
	if q.MeasureName != "" && kern.WalkBased {
		q.Measure = kern.Walk
	}
	q.MeasureName = kern.Name
	return Resolved{Query: q, Kernel: kern, Acc: acc}, nil
}

// ValidRelabel rejects relabel modes outside the declared set.
func ValidRelabel(mode graph.RelabelMode) error {
	switch mode {
	case graph.NoRelabel, graph.ByDegree, graph.ByBFS:
		return nil
	}
	return fmt.Errorf("exec: unknown relabel mode %d", mode)
}

// Forced validates a forced executor against the query class and measure;
// nil when the planner picks. The error wraps plan.ErrUnknownExecutor,
// plan.ErrWrongClass or plan.ErrWrongMeasure.
func (r *Resolved) Forced(class plan.Class) error {
	if r.Algorithm == "" {
		return nil
	}
	return plan.ValidateForced(class, r.Algorithm, r.Kernel.PlanMeasure)
}

// PairWorkload is the planner's view of a 2-way join of p by q nodes on g,
// sized for demand k.
func (r *Resolved) PairWorkload(g *graph.Graph, p, q, k int) plan.Workload {
	w := r.workload(g, k)
	w.P, w.Q = p, q
	return w
}

// JoinWorkload is the planner's view of an n-way join over qg on g. Stream
// demand is unknown up front, so it is sized for the initial per-edge
// budget M.
func (r *Resolved) JoinWorkload(g *graph.Graph, qg *core.QueryGraph) plan.Workload {
	w := r.workload(g, r.M)
	w.SetSizes = make([]int, qg.NumSets())
	for i := range w.SetSizes {
		w.SetSizes[i] = qg.Set(i).Len()
	}
	for _, e := range qg.Edges() {
		w.QueryEdges = append(w.QueryEdges, [2]int{e.From, e.To})
	}
	return w
}

func (r *Resolved) workload(g *graph.Graph, k int) plan.Workload {
	return plan.Workload{
		Stats:      g.Stats(),
		K:          k,
		M:          r.M,
		D:          r.D,
		Measure:    r.Kernel.PlanMeasure,
		Workers:    r.Workers,
		BatchWidth: r.BatchWidth,
		Accuracy:   r.Acc,
	}
}

// Env is where a stream executes: the graph the executors walk (the
// caller's, or its relabeled copy together with the id map) plus optional
// state shared across queries. Nil shared fields run cache-less, as a
// one-shot call does.
type Env struct {
	// Graph is the graph the executors walk.
	Graph *graph.Graph
	// Relabel, when non-nil, maps caller ids into Graph's id space; inputs
	// are mapped on open and results mapped back as they are emitted.
	Relabel *graph.Relabeling

	// Pool, Memo and Counters are the serving session's engine pool, score
	// memo and run-scoped work counters.
	Pool     *dht.EnginePool
	Memo     *dht.ScoreMemo
	Counters *dht.Counters
	// Cancel is polled at walk-round granularity; a non-nil error stops
	// the join mid-round.
	Cancel func() error
	// Workers, when non-zero, replaces the query's requested worker count
	// (the serving layer passes its admission grant).
	Workers int
}

// OneShot returns the cache-less environment of one call on g: the
// relabeled copy under mode, rebuilt per call (O(|E| log |E|)), and a
// walk-round poll of ctx's cancellation cause.
func OneShot(ctx context.Context, g *graph.Graph, mode graph.RelabelMode) Env {
	rg, rl := graph.Relabel(g, mode)
	// context.Cause is nil while ctx is live, so this is a pure poll.
	return Env{Graph: rg, Relabel: rl, Cancel: func() error { return context.Cause(ctx) }}
}

func (r *Resolved) workers(env Env) int {
	if env.Workers != 0 {
		return env.Workers
	}
	return r.Workers
}

// OpenPairs opens the named 2-way executor's stream over P×Q (caller ids).
// initial sizes the first batch; batch marks a drain-exactly-initial caller,
// which skips the incremental F structure — whose O(|P|·|Q|) population a
// caller that never pulls past the initial batch pays for nothing — and
// runs one plain top-k join behind a doubling re-join.
func (r *Resolved) OpenPairs(alg string, env Env, p, q []graph.NodeID, initial int, batch bool) (join2.Stream, error) {
	cfg := join2.Config{
		Graph:      env.Graph,
		Params:     r.Params,
		D:          r.D,
		P:          p,
		Q:          q,
		Measure:    r.Measure,
		Workers:    r.workers(env),
		BatchWidth: r.BatchWidth,
		Pool:       env.Pool,
		Memo:       env.Memo,
		Counters:   env.Counters,
		Cancel:     env.Cancel,
	}
	if env.Relabel != nil {
		cfg.P = env.Relabel.MapToNew(p)
		cfg.Q = env.Relabel.MapToNew(q)
	}
	st, err := join2.NewNamedStream(alg, cfg, join2.StreamSpec{Initial: initial}, batch)
	if err != nil || env.Relabel == nil {
		return st, err
	}
	return relabeledPairs{st, env.Relabel}, nil
}

// OpenAnswers opens the named n-way executor's stream over qg (caller ids),
// with the initial per-edge budget M.
func (r *Resolved) OpenAnswers(alg string, env Env, qg *core.QueryGraph) (core.TupleStream, error) {
	if env.Relabel != nil {
		sets := make([]*graph.NodeSet, qg.NumSets())
		for i := range sets {
			sets[i] = env.Relabel.MapSetToNew(qg.Set(i))
		}
		mapped := core.NewQueryGraph(sets...)
		for _, e := range qg.Edges() {
			mapped.AddEdge(e.From, e.To)
		}
		qg = mapped
	}
	spec := core.Spec{
		Graph:      env.Graph,
		Query:      qg,
		Params:     r.Params,
		D:          r.D,
		Agg:        r.Agg,
		K:          1, // required by Spec.Validate; the stream itself is k-free
		Distinct:   r.Distinct,
		Measure:    r.Measure,
		Workers:    r.workers(env),
		BatchWidth: r.BatchWidth,
		Pool:       env.Pool,
		Memo:       env.Memo,
		Counters:   env.Counters,
		Cancel:     env.Cancel,
	}
	op, err := core.NewNamed(alg, spec, r.M)
	if err != nil {
		return nil, err
	}
	st, err := op.Stream()
	if err != nil || env.Relabel == nil {
		return st, err
	}
	return relabeledAnswers{st, env.Relabel}, nil
}

// relabeledPairs maps a relabeled stream's pairs back to caller ids.
type relabeledPairs struct {
	join2.Stream
	rl *graph.Relabeling
}

func (s relabeledPairs) Next() (join2.Result, bool, error) {
	res, ok, err := s.Stream.Next()
	if ok {
		res.Pair.P = s.rl.ToOld(res.Pair.P)
		res.Pair.Q = s.rl.ToOld(res.Pair.Q)
	}
	return res, ok, err
}

// relabeledAnswers maps a relabeled stream's tuples back to caller ids.
type relabeledAnswers struct {
	core.TupleStream
	rl *graph.Relabeling
}

func (s relabeledAnswers) Next() (core.Answer, bool, error) {
	a, ok, err := s.TupleStream.Next()
	if ok {
		for i := range a.Nodes {
			a.Nodes[i] = s.rl.ToOld(a.Nodes[i])
		}
	}
	return a, ok, err
}

// Score computes the truncated score of (u, v) on g — the forward walk for
// walk measures (an engine from pool when non-nil), the kernel's evaluator
// for matrix measures. Relabeling is a join-side optimization; scores run on
// g as given.
func (r *Resolved) Score(g *graph.Graph, pool *dht.EnginePool, u, v graph.NodeID) (float64, error) {
	if n := g.NumNodes(); !inRange(u, n) || !inRange(v, n) {
		return 0, fmt.Errorf("%w: node pair (%d,%d) not in [0,%d)", ErrOutOfRange, u, v, n)
	}
	if !r.Kernel.WalkBased {
		var dst [1]float64
		err := r.evaluate(g, u, []graph.NodeID{v}, dst[:])
		return dst[0], err
	}
	if pool != nil {
		e := pool.Get()
		defer pool.Put(e)
		return e.ForwardScoreKind(r.Measure, u, v, r.D), nil
	}
	e, err := dht.NewEngine(g, r.Params, r.D)
	if err != nil {
		return 0, err
	}
	return e.ForwardScoreKind(r.Measure, u, v, r.D), nil
}

// ScoresFrom computes the score of (u, v) for every node u at once — one
// backward walk to v for the walk measures, one evaluated column for the
// matrix ones (SimRank is symmetric, so its column equals its row). out
// must have length g.NumNodes(), or be nil to allocate.
func (r *Resolved) ScoresFrom(g *graph.Graph, v graph.NodeID, out []float64) ([]float64, error) {
	n := g.NumNodes()
	if out == nil {
		out = make([]float64, n)
	}
	if !inRange(v, n) || len(out) != n {
		return nil, fmt.Errorf("%w: node %d not in [0,%d) or column length %d", ErrOutOfRange, v, n, len(out))
	}
	if !r.Kernel.WalkBased {
		targets := make([]graph.NodeID, n)
		for i := range targets {
			targets[i] = graph.NodeID(i)
		}
		return out, r.evaluate(g, v, targets, out)
	}
	e, err := dht.NewEngine(g, r.Params, r.D)
	if err != nil {
		return nil, err
	}
	e.BackWalkKind(r.Measure, v, r.D, out)
	return out, nil
}

func (r *Resolved) evaluate(g *graph.Graph, src graph.NodeID, targets []graph.NodeID, dst []float64) error {
	ev, err := r.Kernel.NewEvaluator(g, r.Params, r.D)
	if err != nil {
		return err
	}
	return ev.ScoresInto(src, targets, r.D, dst)
}

func inRange(v graph.NodeID, n int) bool { return v >= 0 && int(v) < n }

// BudgetContext applies a wall-clock budget to ctx with ErrBudgetExceeded
// as the cancellation cause. A nil ctx means Background; without a budget
// ctx passes through with a no-op cancel, which must still be called.
func BudgetContext(ctx context.Context, budget time.Duration) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if budget <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeoutCause(ctx, budget, ErrBudgetExceeded)
}

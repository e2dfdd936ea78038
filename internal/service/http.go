package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/dht"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/measure"
	"repro/internal/rankjoin"
)

// maxGraphBody bounds an uploaded graph file (text format) and every JSON
// request body at 256 MiB — far above the evaluation datasets, low enough
// that a stray upload cannot OOM the server. It is a variable only so tests
// can exercise the cap without 256 MiB bodies.
var maxGraphBody int64 = 256 << 20

// OptionsJSON is the wire form of a Query. All fields are optional; zero
// values select the paper's defaults, exactly as dhtjoin.Options does.
type OptionsJSON struct {
	Lambda     float64 `json:"lambda,omitempty"`  // DHTλ decay (default 0.2)
	DHTE       bool    `json:"dhte,omitempty"`    // use the DHTe parameterization
	PPR        bool    `json:"ppr,omitempty"`     // Personalized PageRank params (damping = lambda); implies measure "reach" unless measure is set explicitly
	Epsilon    float64 `json:"epsilon,omitempty"` // truncation accuracy target (default 1e-6)
	D          int     `json:"d,omitempty"`       // forced truncation depth (overrides epsilon)
	Agg        string  `json:"agg,omitempty"`     // SUM | MIN | MAX | AVG (n-way; default MIN)
	M          int     `json:"m,omitempty"`       // per-edge budget (n-way; default 50)
	Distinct   bool    `json:"distinct,omitempty"`
	Measure    string  `json:"measure,omitempty"` // registered measure name: "dht" (default) | "reach" | "ppr" | "simrank" (GET /measures lists them)
	Workers    int     `json:"workers,omitempty"`
	BatchWidth int     `json:"batch_width,omitempty"`
	Relabel    string  `json:"relabel,omitempty"`   // off | degree | bfs
	Algo       string  `json:"algo,omitempty"`      // force an executor (B-IDJ-Y, B-BJ, PJ-i, AP, …); empty = cost-based planner
	Accuracy   string  `json:"accuracy,omitempty"`  // planner kernel contract: "exact" (default) | "fast" (certified fast kernel; same ranking)
	Tenant     string  `json:"tenant,omitempty"`    // admission-quota bucket (X-Tenant header is the fallback)
	Priority   string  `json:"priority,omitempty"`  // "interactive" (default) | "batch" (X-Priority header is the fallback)
	BudgetMS   int     `json:"budget_ms,omitempty"` // wall-clock deadline budget in milliseconds; 0 = server default
}

// toQuery resolves the wire options into a Query.
func (o *OptionsJSON) toQuery() (Query, error) {
	var q Query
	if o == nil {
		return q, nil
	}
	switch {
	case o.DHTE && o.PPR:
		return q, fmt.Errorf("options: dhte and ppr are mutually exclusive")
	case o.DHTE:
		q.Params = dht.DHTE()
	case o.PPR:
		c := o.Lambda
		if c == 0 {
			c = 0.2
		}
		q.Params = dht.PPR(c)
		q.Measure = dht.Reach
	case o.Lambda != 0:
		q.Params = dht.DHTLambda(o.Lambda)
	}
	// The measure resolves through the registry (exec.Resolve calls
	// measure.Lookup), so every registered kernel — walk-based or not — is
	// one wire spelling away. An empty name keeps the legacy semantics: the
	// PPR flag above may have implied the reach kind, and "dht" stays the
	// default. Unknown names fail at resolve time with ErrUnknownMeasure
	// (mapped to HTTP 400), listing the registered spellings.
	q.MeasureName = o.Measure
	if o.Agg != "" {
		agg, err := rankjoin.ByName(o.Agg)
		if err != nil {
			return q, err
		}
		q.Agg = agg
	}
	mode, err := graph.ParseRelabelMode(o.Relabel)
	if err != nil {
		return q, err
	}
	q.Relabel = mode
	q.Epsilon = o.Epsilon
	q.D = o.D
	q.M = o.M
	q.Distinct = o.Distinct
	q.Workers = o.Workers
	q.BatchWidth = o.BatchWidth
	q.Algorithm = o.Algo
	q.Accuracy = o.Accuracy
	q.Tenant = o.Tenant
	switch o.Priority {
	case "", "interactive":
		q.Priority = PriorityInteractive
	case "batch":
		q.Priority = PriorityBatch
	default:
		return q, fmt.Errorf("options: unknown priority %q (want interactive or batch)", o.Priority)
	}
	if o.BudgetMS < 0 {
		return q, fmt.Errorf("options: budget_ms must be >= 0, got %d", o.BudgetMS)
	}
	q.Budget = time.Duration(o.BudgetMS) * time.Millisecond
	return q, nil
}

// applyIdentity fills the query's tenant and priority from the request
// headers when the options body left them unset — X-Tenant names the quota
// bucket, X-Priority: batch selects the batch admission class. Body options
// win over headers so a proxy can set coarse defaults that clients refine.
func applyIdentity(r *http.Request, q *Query) error {
	if q.Tenant == "" {
		q.Tenant = r.Header.Get("X-Tenant")
	}
	if q.Priority == PriorityInteractive {
		switch strings.ToLower(r.Header.Get("X-Priority")) {
		case "", "interactive":
		case "batch":
			q.Priority = PriorityBatch
		default:
			return fmt.Errorf("options: unknown X-Priority %q (want interactive or batch)", r.Header.Get("X-Priority"))
		}
	}
	return nil
}

// SetRefJSON is the wire form of a SetRef.
type SetRefJSON struct {
	Set string         `json:"set,omitempty"` // named set declared by the graph
	IDs []graph.NodeID `json:"ids,omitempty"` // explicit node list
}

func (r SetRefJSON) toRef() SetRef { return SetRef{Name: r.Set, IDs: r.IDs} }

// join2Request is the POST /join2 body. Stream selects an NDJSON streaming
// response (one result object per line, flushed as produced; k = 0 then
// means "stream until exhausted"). Cursor skips the first Cursor results of
// the ranking — the "next page" continuation: a response's next_cursor is
// the Cursor of the request that continues it. Cursor works with and
// without Stream.
type join2Request struct {
	Graph   string       `json:"graph"`
	P       SetRefJSON   `json:"p"`
	Q       SetRefJSON   `json:"q"`
	K       int          `json:"k"`
	Stream  bool         `json:"stream,omitempty"`
	Cursor  int          `json:"cursor,omitempty"`
	Explain bool         `json:"explain,omitempty"` // dry run: return the plan, execute nothing
	Options *OptionsJSON `json:"options,omitempty"`
}

// edgeUpdateRequest is the POST /graphs/{name}/edges body: one atomic batch
// of weighted-arc insertions and deletions. An add of an existing arc sums
// into its weight (the graph builder's duplicate convention); a del removes
// the directed arc entirely and is a no-op if absent. Deletions apply after
// additions. The whole batch is durable (or rejected) as a unit.
type edgeUpdateRequest struct {
	Add []edgeAddJSON `json:"add,omitempty"`
	Del []edgeDelJSON `json:"del,omitempty"`
}

type edgeAddJSON struct {
	U graph.NodeID `json:"u"`
	V graph.NodeID `json:"v"`
	W float64      `json:"w"`
}

type edgeDelJSON struct {
	U graph.NodeID `json:"u"`
	V graph.NodeID `json:"v"`
}

// pairJSON is one served 2-way result.
type pairJSON struct {
	P     graph.NodeID `json:"p"`
	Q     graph.NodeID `json:"q"`
	Score float64      `json:"score"`
}

// joinNRequest is the POST /joinN body. The query graph is given either as a
// shape over the sets (chain | triangle | star | clique) or as explicit
// edges indexing into sets.
type joinNRequest struct {
	Graph   string       `json:"graph"`
	Sets    []SetRefJSON `json:"sets"`
	Shape   string       `json:"shape,omitempty"`
	Edges   [][2]int     `json:"edges,omitempty"`
	K       int          `json:"k"`
	Stream  bool         `json:"stream,omitempty"`
	Cursor  int          `json:"cursor,omitempty"`
	Explain bool         `json:"explain,omitempty"` // dry run: return the plan, execute nothing
	Options *OptionsJSON `json:"options,omitempty"`
}

// answerJSON is one served n-way answer.
type answerJSON struct {
	Nodes []graph.NodeID `json:"nodes"`
	Score float64        `json:"score"`
}

// shapeEdges expands a named query shape over n sets into explicit edges,
// mirroring core.Chain/Triangle/Star/Clique.
func shapeEdges(shape string, n int) ([][2]int, error) {
	switch shape {
	case "chain":
		if n < 2 {
			return nil, fmt.Errorf("chain needs >= 2 sets, got %d", n)
		}
		edges := make([][2]int, 0, n-1)
		for i := 0; i+1 < n; i++ {
			edges = append(edges, [2]int{i, i + 1})
		}
		return edges, nil
	case "triangle":
		if n != 3 {
			return nil, fmt.Errorf("triangle needs exactly 3 sets, got %d", n)
		}
		return [][2]int{{0, 1}, {1, 2}, {2, 0}}, nil
	case "star":
		if n < 2 {
			return nil, fmt.Errorf("star needs >= 2 sets, got %d", n)
		}
		edges := make([][2]int, 0, n-1)
		for i := 1; i < n; i++ {
			edges = append(edges, [2]int{0, i})
		}
		return edges, nil
	case "clique":
		if n < 2 {
			return nil, fmt.Errorf("clique needs >= 2 sets, got %d", n)
		}
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edges = append(edges, [2]int{i, j})
			}
		}
		return edges, nil
	}
	return nil, fmt.Errorf("unknown shape %q (want chain, triangle, star, or clique)", shape)
}

// NewHandler returns the njoind HTTP API over svc:
//
//	PUT    /graphs/{name}   load a text-format graph (body = graph file)
//	GET    /graphs          list loaded graphs
//	DELETE /graphs/{name}   drop a graph (and its durable state, if any)
//	POST   /graphs/{name}/edges  apply an atomic edge-update batch ({"add":[{"u":..,"v":..,"w":..}],"del":[{"u":..,"v":..}]})
//	POST   /join2           top-k 2-way join (planner-picked; force with options.algo)
//	POST   /joinN           top-k n-way join (planner-picked; force with options.algo)
//	GET    /measures        registered proximity measures (name, contract, family)
//	GET    /score           single pair score (?graph=&u=&v=[&lambda=&d=&measure=...])
//	GET    /explain         dry-run plan over named sets (?graph=&p=&q= or ?graph=&sets=&shape=)
//	GET    /stats           service counters (incl. planner picks)
//
// The join endpoints are streaming-capable: "stream": true switches the
// response to NDJSON (one rank-ordered result per line, flushed as
// produced, terminated by a {"done":true,...} line), and "cursor": n skips
// the first n results — the "next page" continuation, usable with or
// without streaming. "explain": true turns either join request into a dry
// run: the response is {"plan": ...} — the cost-based planner's decision,
// per-candidate estimates, and stats snapshot — and nothing executes.
// Handlers run under the request context, so a disconnected client aborts
// the join and returns its engines to the session pool.
//
// Responses are JSON; errors are {"error": {"status": ..., "message": ...}}
// with a 4xx/5xx status (streaming responses report mid-flight failures as
// an in-band {"error": ...} line instead).
func NewHandler(svc *Service) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("PUT /graphs/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		body := http.MaxBytesReader(w, r.Body, maxGraphBody)
		// The info comes straight from the load itself — not from a registry
		// re-read — so a concurrent DELETE of the same name can no longer
		// turn a successful PUT into a 500 "graph vanished after load".
		info, err := svc.LoadGraphText(name, body)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		// Prometheus text exposition of the same counters /stats serves as
		// JSON (cluster scatter counters included, when a router is wired).
		w.Header().Set("Content-Type", metricsContentType)
		WriteMetrics(w, svc.Stats())
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness: the process is up and serving, draining or not.
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness: load balancers pull a draining instance out of rotation
		// while its in-flight streams finish.
		if svc.Draining() {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "draining": true})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ready": true})
	})

	mux.HandleFunc("GET /graphs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"graphs": svc.Graphs()})
	})

	mux.HandleFunc("GET /measures", func(w http.ResponseWriter, r *http.Request) {
		// The measure registry: every kernel a join request can name in
		// options.measure, with its accuracy contract and family.
		writeJSON(w, http.StatusOK, map[string]any{"measures": measure.Describe()})
	})

	mux.HandleFunc("DELETE /graphs/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		ok, err := svc.DropGraph(name)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no graph %q loaded", name))
			return
		}
		if err != nil {
			// The graph is no longer served, but some on-disk state survived;
			// the client should retry the delete to finish the removal.
			writeError(w, http.StatusInternalServerError,
				fmt.Errorf("graph %q dropped from serving but durable removal incomplete (retry the delete): %w", name, err))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"dropped": name})
	})

	mux.HandleFunc("POST /graphs/{name}/edges", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		var req edgeUpdateRequest
		if err := decodeJSON(w, r, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		adds := make([]graph.Edge, len(req.Add))
		for i, e := range req.Add {
			adds[i] = graph.Edge{U: e.U, V: e.V, W: e.W}
		}
		dels := make([][2]graph.NodeID, len(req.Del))
		for i, d := range req.Del {
			dels[i] = [2]graph.NodeID{d.U, d.V}
		}
		info, err := svc.UpdateEdges(name, adds, dels)
		if err != nil {
			writeSvcError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})

	mux.HandleFunc("POST /join2", func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context() // a disconnected client cancels it, aborting the join
		var req join2Request
		if err := decodeJSON(w, r, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		query, err := req.Options.toQuery()
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if err := applyIdentity(r, &query); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if req.Explain {
			pl, err := svc.ExplainJoin2(ctx, req.Graph, req.P.toRef(), req.Q.toRef(), req.K, query)
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
			writeJSON(w, http.StatusOK, map[string]any{"plan": pl})
			return
		}
		if req.Cursor < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("join2: cursor must be >= 0, got %d", req.Cursor))
			return
		}
		// k = 0 means "until exhausted" when streaming; the batch form
		// needs a positive page size (a k <= 0 page could never terminate
		// a client's cursor loop).
		if req.Stream && req.K < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("join2: k must be >= 0 when streaming, got %d", req.K))
			return
		}
		if !req.Stream && req.K <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("join2: k must be positive, got %d", req.K))
			return
		}
		if req.Stream {
			st, err := svc.OpenJoin2(ctx, req.Graph, req.P.toRef(), req.Q.toRef(), query)
			if err != nil {
				writeSvcError(w, err)
				return
			}
			defer st.Stop()
			streamNDJSON(svc, w, req.Cursor, req.K, func() (any, bool, error) {
				r, ok, err := st.Next()
				if err != nil || !ok {
					return nil, ok, err
				}
				return pairJSON{P: r.Pair.P, Q: r.Pair.Q, Score: r.Score}, true, nil
			}, st.Truncated)
			return
		}
		// Batch (optionally paged): drain cursor+k, return the page past the
		// cursor. The prefix cache makes page n+1 re-serve page n's work.
		res, meta, err := svc.Join2Meta(ctx, req.Graph, req.P.toRef(), req.Q.toRef(), req.Cursor+req.K, query)
		if err != nil {
			writeSvcError(w, err)
			return
		}
		exhausted := len(res) < req.Cursor+req.K && !meta.Truncated && meta.ClampedK == 0
		if req.Cursor > len(res) {
			res = res[len(res):]
		} else {
			res = res[req.Cursor:]
		}
		pairs := make([]pairJSON, len(res))
		for i, pr := range res {
			pairs[i] = pairJSON{P: pr.Pair.P, Q: pr.Pair.Q, Score: pr.Score}
		}
		// Paging bookkeeping rides on every response — page one of a
		// cursor loop needs "exhausted" as much as page two does.
		body := map[string]any{
			"results":     pairs,
			"cursor":      req.Cursor,
			"next_cursor": req.Cursor + len(pairs),
			"exhausted":   exhausted,
		}
		addMeta(body, meta)
		writeJSON(w, http.StatusOK, body)
	})

	mux.HandleFunc("POST /joinN", func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		var req joinNRequest
		if err := decodeJSON(w, r, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		query, err := req.Options.toQuery()
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if err := applyIdentity(r, &query); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		edges := req.Edges
		if len(edges) == 0 {
			shape := req.Shape
			if shape == "" {
				shape = "chain"
			}
			if edges, err = shapeEdges(shape, len(req.Sets)); err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
		}
		refs := make([]SetRef, len(req.Sets))
		for i, s := range req.Sets {
			refs[i] = s.toRef()
		}
		if req.Explain {
			pl, err := svc.ExplainJoinN(ctx, req.Graph, refs, edges, req.K, query)
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
			writeJSON(w, http.StatusOK, map[string]any{"plan": pl})
			return
		}
		if req.Cursor < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("joinN: cursor must be >= 0, got %d", req.Cursor))
			return
		}
		if req.Stream && req.K < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("joinN: k must be >= 0 when streaming, got %d", req.K))
			return
		}
		if !req.Stream && req.K <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("joinN: k must be positive, got %d", req.K))
			return
		}
		if req.Stream {
			st, err := svc.OpenJoinN(ctx, req.Graph, refs, edges, query)
			if err != nil {
				writeSvcError(w, err)
				return
			}
			defer st.Stop()
			streamNDJSON(svc, w, req.Cursor, req.K, func() (any, bool, error) {
				a, ok, err := st.Next()
				if err != nil || !ok {
					return nil, ok, err
				}
				return answerJSON{Nodes: a.Nodes, Score: a.Score}, true, nil
			}, st.Truncated)
			return
		}
		answers, meta, err := svc.JoinNMeta(ctx, req.Graph, refs, edges, req.Cursor+req.K, query)
		if err != nil {
			writeSvcError(w, err)
			return
		}
		exhausted := len(answers) < req.Cursor+req.K && !meta.Truncated && meta.ClampedK == 0
		if req.Cursor > len(answers) {
			answers = answers[len(answers):]
		} else {
			answers = answers[req.Cursor:]
		}
		out := make([]answerJSON, len(answers))
		for i, a := range answers {
			out[i] = answerJSON{Nodes: a.Nodes, Score: a.Score}
		}
		body := map[string]any{
			"answers":     out,
			"cursor":      req.Cursor,
			"next_cursor": req.Cursor + len(out),
			"exhausted":   exhausted,
		}
		addMeta(body, meta)
		writeJSON(w, http.StatusOK, body)
	})

	mux.HandleFunc("GET /score", func(w http.ResponseWriter, r *http.Request) {
		qp := r.URL.Query()
		u, errU := strconv.Atoi(qp.Get("u"))
		v, errV := strconv.Atoi(qp.Get("v"))
		if errU != nil || errV != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("score: u and v must be integer node ids"))
			return
		}
		opts, err := optionsFromQuery(qp)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		query, err := opts.toQuery()
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if err := applyIdentity(r, &query); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		score, err := svc.Score(r.Context(), qp.Get("graph"), graph.NodeID(u), graph.NodeID(v), query)
		if err != nil {
			writeSvcError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"score": score})
	})

	// GET /explain is the dry-run convenience route over named sets:
	// ?graph=g&p=U&q=D plans a 2-way join, ?graph=g&sets=U,F,D&shape=chain
	// an n-way one. Knobs: k, m, algo, lambda, dhte, ppr, d, epsilon,
	// relabel, measure. Explicit node-id lists need POST with
	// "explain":true.
	mux.HandleFunc("GET /explain", func(w http.ResponseWriter, r *http.Request) {
		qp := r.URL.Query()
		opts, err := optionsFromQuery(qp)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		k := 0
		if s := qp.Get("k"); s != "" {
			if k, err = strconv.Atoi(s); err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("explain: bad k %q", s))
				return
			}
		}
		query, err := opts.toQuery()
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		graphName := qp.Get("graph")
		if sets := qp.Get("sets"); sets != "" {
			names := strings.Split(sets, ",")
			refs := make([]SetRef, len(names))
			for i, n := range names {
				refs[i] = SetRef{Name: strings.TrimSpace(n)}
			}
			shape := qp.Get("shape")
			if shape == "" {
				shape = "chain"
			}
			edges, err := shapeEdges(shape, len(refs))
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
			pl, err := svc.ExplainJoinN(r.Context(), graphName, refs, edges, k, query)
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
			writeJSON(w, http.StatusOK, map[string]any{"plan": pl})
			return
		}
		pl, err := svc.ExplainJoin2(r.Context(), graphName,
			SetRef{Name: qp.Get("p")}, SetRef{Name: qp.Get("q")}, k, query)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"plan": pl})
	})

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Stats())
	})

	return withRecover(svc, withDrain(svc, mux))
}

// withDrain rejects new work with 503 + Retry-After once the service is
// draining, while health and stats endpoints keep answering (load balancers
// and operators need them most exactly then). Requests already inside a
// handler are unaffected — drain only gates the door.
func withDrain(svc *Service, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if svc.Draining() {
			switch r.URL.Path {
			case "/healthz", "/readyz", "/stats":
			default:
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusServiceUnavailable, ErrDraining)
				return
			}
		}
		h.ServeHTTP(w, r)
	})
}

// withRecover converts a handler panic into a 500 error envelope when the
// response has not started, and into a dropped connection when it has
// (matching net/http's own abort semantics). Either way the panic stops at
// the request boundary: one poisoned request cannot take the daemon down.
func withRecover(svc *Service, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rw := &headerTracker{ResponseWriter: w}
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p) // deliberate abort; let net/http handle it
			}
			svc.notePanic()
			if !rw.wrote {
				writeError(rw, http.StatusInternalServerError, fmt.Errorf("internal panic: %v", p))
			}
		}()
		h.ServeHTTP(rw, r)
	})
}

// headerTracker records whether the response has started, so the recover
// middleware knows whether a 500 envelope can still be written.
type headerTracker struct {
	http.ResponseWriter
	wrote bool
}

func (t *headerTracker) WriteHeader(code int) {
	t.wrote = true
	t.ResponseWriter.WriteHeader(code)
}

func (t *headerTracker) Write(b []byte) (int, error) {
	t.wrote = true
	return t.ResponseWriter.Write(b)
}

// Unwrap lets http.NewResponseController reach the underlying writer's
// flush and deadline hooks through the tracker.
func (t *headerTracker) Unwrap() http.ResponseWriter { return t.ResponseWriter }

// streamNDJSON drives a pull stream onto the wire as NDJSON: one result
// object per line, flushed as produced, so the client sees the first result
// while the join is still deepening. cursor results are skipped first (the
// "next page" continuation), then up to k results are written (k = 0
// streams to exhaustion). The final line is a terminator object —
// {"done":true,"count":…,"next_cursor":…,"exhausted":…,"truncated":…} on
// success (truncated marks a deadline-budget cut: the lines above it are a
// correct ranking prefix), or {"error":…} if the stream failed mid-flight
// (the HTTP status is already on the wire by then; the in-band error line is
// the only channel left).
//
// Each line write runs under the service's StreamWriteTimeout: a streaming
// request holds admission tokens and pooled engines for its whole lifetime,
// so without the per-line deadline a handful of clients that open a stream
// and stop reading would wedge the admission controller. A client that keeps
// reading, however slowly per line, refreshes the deadline on every write.
func streamNDJSON(svc *Service, w http.ResponseWriter, cursor, k int, next func() (any, bool, error), truncated func() bool) {
	rc := http.NewResponseController(w)
	// The per-line deadlines below are absolute; clear them on the way out
	// or the last one would outlive this response and kill the next request
	// served on the same keep-alive connection.
	defer rc.SetWriteDeadline(time.Time{}) //nolint:errcheck // best effort
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flush := func() { _ = rc.Flush() }
	writeTimeout := svc.WriteTimeout()
	done := func(written int, exhausted bool) {
		line := map[string]any{
			"done":        true,
			"count":       written,
			"next_cursor": cursor + written,
			"exhausted":   exhausted,
		}
		if truncated != nil && truncated() {
			line["truncated"] = true
		}
		_ = enc.Encode(line)
		flush()
	}
	written, skip, exhausted := 0, cursor, false
	for k == 0 || written < k {
		v, ok, err := next()
		if err != nil {
			if errors.Is(err, ErrBudgetExceeded) {
				// The budget cut the ranking short; everything on the wire is
				// a correct prefix, so terminate normally with the marker
				// instead of failing a request that produced valid results.
				done(written, false)
				return
			}
			// The in-band line carries the same envelope shape as a
			// non-streaming error; 500 because the request was accepted.
			body := errorBody(err)
			body["status"] = http.StatusInternalServerError
			_ = enc.Encode(map[string]any{"error": body})
			flush()
			return
		}
		if !ok {
			exhausted = true
			break
		}
		if skip > 0 {
			skip--
			continue
		}
		// Refresh the per-line write deadline (best effort: httptest's
		// recorder does not support deadlines, and a real server that
		// cannot set one just keeps the old behavior).
		if writeTimeout > 0 {
			_ = rc.SetWriteDeadline(time.Now().Add(writeTimeout))
		}
		if err := svc.cfg.Fault.Inject(fault.ResponseWrite); err != nil {
			return // injected write failure: same path as a vanished client
		}
		if err := enc.Encode(v); err != nil {
			return // client went away or stalled; the deferred Stop cleans up
		}
		written++
		flush()
	}
	done(written, exhausted)
}

// writeSvcError maps a service error to its transport status: quota
// rejections are 429 and drain rejections 503 (both with Retry-After — the
// condition is transient by construction), everything else stays a 400.
func writeSvcError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQuotaExceeded):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

// addMeta folds batch degradation metadata into a response body.
func addMeta(body map[string]any, meta BatchMeta) {
	if meta.ClampedK != 0 {
		body["clamped_k"] = meta.ClampedK
	}
	if meta.Truncated {
		body["truncated"] = true
	}
}

// optionsFromQuery parses the option knobs the GET routes (/score,
// /explain) share from query parameters — one parser, so the two routes
// cannot drift. Knobs a route does not use (e.g. agg on /score) are
// harmlessly ignored downstream.
func optionsFromQuery(qp url.Values) (OptionsJSON, error) {
	opts := OptionsJSON{
		Agg:      qp.Get("agg"),
		Measure:  qp.Get("measure"),
		Relabel:  qp.Get("relabel"),
		Algo:     qp.Get("algo"),
		Accuracy: qp.Get("accuracy"),
		DHTE:     qp.Get("dhte") == "true",
		PPR:      qp.Get("ppr") == "true",
	}
	var err error
	if s := qp.Get("lambda"); s != "" {
		if opts.Lambda, err = strconv.ParseFloat(s, 64); err != nil {
			return opts, fmt.Errorf("options: bad lambda %q", s)
		}
	}
	if s := qp.Get("epsilon"); s != "" {
		if opts.Epsilon, err = strconv.ParseFloat(s, 64); err != nil {
			return opts, fmt.Errorf("options: bad epsilon %q", s)
		}
	}
	if s := qp.Get("d"); s != "" {
		if opts.D, err = strconv.Atoi(s); err != nil {
			return opts, fmt.Errorf("options: bad d %q", s)
		}
	}
	if s := qp.Get("m"); s != "" {
		if opts.M, err = strconv.Atoi(s); err != nil {
			return opts, fmt.Errorf("options: bad m %q", s)
		}
	}
	return opts, nil
}

// decodeJSON strictly decodes a request body, read through the same
// maxGraphBody cap as a graph upload: the decoder buffers the whole value, so
// an uncapped body could grow it without bound.
func decodeJSON(w http.ResponseWriter, r *http.Request, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxGraphBody))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errorBody is the consistent error envelope payload: every error response
// (and every in-band NDJSON error line) carries the same shape, so clients
// parse one structure everywhere.
func errorBody(err error) map[string]any {
	return map[string]any{"message": err.Error()}
}

func writeError(w http.ResponseWriter, status int, err error) {
	body := errorBody(err)
	body["status"] = status
	writeJSON(w, status, map[string]any{"error": body})
}

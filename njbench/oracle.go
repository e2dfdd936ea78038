package main

import (
	"bytes"
	"context"
	"fmt"

	"repro/dhtjoin"
	"repro/internal/graph"
)

// The oracle answers a request with a cache-less one-shot dhtjoin query on
// the graph version the request saw, with the same options, and the
// benchmark compares the served ranking to it bit for bit: same pairs or
// tuples, in the same order, with == float64 scores.

// shapeEdges mirrors the query graphs njoind builds for its named shapes.
func shapeEdges(shape string, n int) [][2]int {
	var edges [][2]int
	switch shape {
	case "chain":
		for i := 0; i+1 < n; i++ {
			edges = append(edges, [2]int{i, i + 1})
		}
	case "triangle":
		edges = [][2]int{{0, 1}, {1, 2}, {2, 0}}
	case "star":
		for i := 1; i < n; i++ {
			edges = append(edges, [2]int{0, i})
		}
	}
	return edges
}

// expectPairs is the page req asks for, computed by dhtjoin. A non-empty
// algo forces the executor (the traced run forces the plan's pick); the
// request's own forced algorithm applies otherwise.
func expectPairs(ctx context.Context, g *dhtjoin.Graph, req *request, algo string) ([]pairJSON, error) {
	opts := &dhtjoin.Options{MeasureName: req.Opts.Measure, Accuracy: req.Opts.Accuracy}
	q := dhtjoin.NewPairQuery(g, dhtjoin.NewNodeSet("P", req.P), dhtjoin.NewNodeSet("Q", req.Q)).WithOptions(opts)
	if algo == "" {
		algo = req.Opts.Algo
	}
	if algo != "" {
		q = q.WithHints(dhtjoin.Hints{Algorithm: algo})
	}
	var res []dhtjoin.PairResult
	var err error
	if req.Op == opStream {
		// A streamed request runs the resumable stream the server opens
		// for it, not the batch wrapper.
		var st *dhtjoin.PairStream
		if st, err = q.OpenPairs(ctx); err == nil {
			res, err = st.NextK(req.Cursor + req.K)
			st.Stop()
		}
	} else {
		res, err = q.TopKPairs(ctx, req.Cursor+req.K)
	}
	if err != nil {
		return nil, err
	}
	res = res[min(req.Cursor, len(res)):]
	out := make([]pairJSON, len(res))
	for i, r := range res {
		out[i] = pairJSON{P: r.Pair.P, Q: r.Pair.Q, Score: r.Score}
	}
	return out, nil
}

// expectAnswers is expectPairs for an n-way request.
func expectAnswers(ctx context.Context, g *dhtjoin.Graph, req *request, algo string) ([]answerJSON, error) {
	sets := make([]*dhtjoin.NodeSet, len(req.Sets))
	for i, ids := range req.Sets {
		sets[i] = dhtjoin.NewNodeSet(fmt.Sprintf("R%d", i), ids)
	}
	qg := dhtjoin.NewQueryGraph(sets...)
	for _, e := range shapeEdges(req.Shape, len(sets)) {
		qg.AddEdge(e[0], e[1])
	}
	q := dhtjoin.NewJoinQuery(g, qg).WithOptions(&dhtjoin.Options{MeasureName: req.Opts.Measure})
	if algo != "" {
		q = q.WithHints(dhtjoin.Hints{Algorithm: algo})
	}
	res, err := q.TopK(ctx, req.Cursor+req.K)
	if err != nil {
		return nil, err
	}
	res = res[min(req.Cursor, len(res)):]
	out := make([]answerJSON, len(res))
	for i, a := range res {
		out[i] = answerJSON{Nodes: a.Nodes, Score: a.Score}
	}
	return out, nil
}

// matches reports whether the served page of o equals the oracle's, and
// returns the oracle call's error, if any.
func matches(ctx context.Context, g *dhtjoin.Graph, o *outcome, algo string) (bool, error) {
	if o.req.Op == opJoinN {
		want, err := expectAnswers(ctx, g, o.req, algo)
		return err == nil && sameAnswers(o.answers, want), err
	}
	want, err := expectPairs(ctx, g, o.req, algo)
	return err == nil && samePairs(o.pairs, want), err
}

func samePairs(a, b []pairJSON) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameAnswers(a, b []answerJSON) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Score != b[i].Score || len(a[i].Nodes) != len(b[i].Nodes) {
			return false
		}
		for j := range a[i].Nodes {
			if a[i].Nodes[j] != b[i].Nodes[j] {
				return false
			}
		}
	}
	return true
}

// versions holds the graph after each prefix of the edit sequence, built
// on demand: versions.at(v) is the base graph with edits[0:v] applied.
type versions struct {
	graphs []*dhtjoin.Graph
	edits  []request
}

func newVersions(text []byte, edits []request) (*versions, error) {
	g, _, err := dhtjoin.LoadText(bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	return &versions{graphs: []*dhtjoin.Graph{g}, edits: edits}, nil
}

func (vs *versions) at(v int) (*dhtjoin.Graph, error) {
	for len(vs.graphs) <= v {
		next, err := graph.ApplyEdits(vs.graphs[len(vs.graphs)-1], toEdges(vs.edits[len(vs.graphs)-1].Adds), nil)
		if err != nil {
			return nil, err
		}
		vs.graphs = append(vs.graphs, next)
	}
	return vs.graphs[v], nil
}

func toEdges(adds []edgeAdd) []graph.Edge {
	out := make([]graph.Edge, len(adds))
	for i, a := range adds {
		out[i] = graph.Edge{U: a.U, V: a.V, W: float64(a.W)}
	}
	return out
}

// oracleSample picks a seeded sample of successful reads — up to perLabel
// of each mix entry — whose graph version is known, and checks each one.
// It returns how many it checked and a description of every mismatch.
func oracleSample(ctx context.Context, vs *versions, outs []outcome, seed int64, perLabel int) (int, []string, error) {
	taken := make(map[string]int)
	checked := 0
	var bad []string
	for i := range outs {
		o := &outs[i]
		if o.fail != "" || o.req.Op == opEdit || o.ackedBefore != o.startedAfter ||
			taken[o.req.Label] >= perLabel || newRNG(seed, uint64(o.req.ID)^1<<43).intn(3) != 0 {
			continue
		}
		taken[o.req.Label]++
		g, err := vs.at(int(o.ackedBefore))
		if err != nil {
			return checked, bad, err
		}
		ok, err := matches(ctx, g, o, "")
		if err != nil {
			return checked, bad, fmt.Errorf("oracle for %s request %d: %w", o.req.Label, o.req.ID, err)
		}
		checked++
		if !ok {
			bad = append(bad, fmt.Sprintf("%s request %d (graph version %d)", o.req.Label, o.req.ID, o.ackedBefore))
		}
	}
	return checked, bad, nil
}

package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Builder accumulates nodes and edges and produces an immutable Graph.
// Duplicate arcs are merged by summing their weights (matching the DBLP
// convention where the weight of (u,v) is the number of co-authored papers).
type Builder struct {
	n        int
	directed bool
	us, vs   []NodeID
	ws       []float64
	labels   map[NodeID]string
}

// NewBuilder returns a Builder for a graph with n nodes. If directed is
// false, AddEdge inserts both (u,v) and (v,u).
func NewBuilder(n int, directed bool) *Builder {
	return &Builder{n: n, directed: directed}
}

// Directed reports whether the builder inserts single arcs per AddEdge.
func (b *Builder) Directed() bool { return b.directed }

// NumNodes returns the node count the builder was created with.
func (b *Builder) NumNodes() int { return b.n }

// Grow ensures the builder has at least n nodes.
func (b *Builder) Grow(n int) {
	if n > b.n {
		b.n = n
	}
}

// AddEdge inserts an arc (u,v) with weight w; for undirected builders the
// reverse arc is inserted too. Self-loops are allowed. It panics on invalid
// endpoints or non-positive/non-finite weights: those indicate programming
// errors in callers, not recoverable conditions.
func (b *Builder) AddEdge(u, v NodeID, w float64) {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		panic(fmt.Sprintf("graph: edge (%d,%d) has invalid weight %v", u, v, w))
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	b.ws = append(b.ws, w)
	if !b.directed && u != v {
		b.us = append(b.us, v)
		b.vs = append(b.vs, u)
		b.ws = append(b.ws, w)
	}
}

// SetLabel attaches a label to node u.
func (b *Builder) SetLabel(u NodeID, label string) {
	if b.labels == nil {
		b.labels = make(map[NodeID]string)
	}
	b.labels[u] = label
}

// Build produces the immutable CSR graph. The builder may be reused
// afterwards, but further edges do not affect the built graph.
func (b *Builder) Build() *Graph {
	type arc struct {
		u, v NodeID
		w    float64
	}
	arcs := make([]arc, len(b.us))
	for i := range b.us {
		arcs[i] = arc{b.us[i], b.vs[i], b.ws[i]}
	}
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].u != arcs[j].u {
			return arcs[i].u < arcs[j].u
		}
		return arcs[i].v < arcs[j].v
	})
	// Merge duplicates by summing weights.
	merged := arcs[:0]
	for _, a := range arcs {
		if k := len(merged) - 1; k >= 0 && merged[k].u == a.u && merged[k].v == a.v {
			merged[k].w += a.w
			continue
		}
		merged = append(merged, a)
	}
	// The sorted order is the out-CSR order.
	outIndex := make([]int64, b.n+1)
	outTo := make([]NodeID, len(merged))
	outW := make([]float64, len(merged))
	for j, a := range merged {
		outTo[j], outW[j] = a.v, a.w
		outIndex[a.u+1]++
	}
	for u := 0; u < b.n; u++ {
		outIndex[u+1] += outIndex[u]
	}
	var labels []string
	if b.labels != nil {
		labels = make([]string, b.n)
		for u, l := range b.labels {
			labels[u] = l
		}
	}
	return derive(b.n, outIndex, outTo, outW, labels)
}

// derive completes a graph from its out-CSR (targets strictly sorted per
// row, weights positive) with transition probabilities and in-adjacency. It
// is the one derivation behind Builder.Build, NewFromCSR and ApplyEdits; row
// weights sum in CSR order, so equal out-CSRs give bit-identical graphs.
func derive(n int, outIndex []int64, outTo []NodeID, outW []float64, labels []string) *Graph {
	m := len(outTo)
	g := &Graph{n: n, outIndex: outIndex, outTo: outTo, outW: outW, labels: labels}
	g.outP = make([]float64, m)
	for u := 0; u < n; u++ {
		lo, hi := outIndex[u], outIndex[u+1]
		var sum float64
		for j := lo; j < hi; j++ {
			sum += outW[j]
		}
		if sum > 0 {
			for j := lo; j < hi; j++ {
				g.outP[j] = outW[j] / sum
			}
		}
	}
	// In-adjacency by a counting pass; walking the out-CSR in order keeps
	// every in-list sorted by source.
	g.inIndex = make([]int64, n+1)
	g.inFrom = make([]NodeID, m)
	g.inW = make([]float64, m)
	g.inP = make([]float64, m)
	for _, v := range outTo {
		g.inIndex[v+1]++
	}
	for u := 0; u < n; u++ {
		g.inIndex[u+1] += g.inIndex[u]
	}
	next := slices.Clone(g.inIndex[:n])
	for u := 0; u < n; u++ {
		for j := outIndex[u]; j < outIndex[u+1]; j++ {
			v := outTo[j]
			i := next[v]
			g.inFrom[i] = NodeID(u)
			g.inW[i] = outW[j]
			g.inP[i] = g.outP[j]
			next[v]++
		}
	}
	return g
}

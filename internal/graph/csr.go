package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// This file is the serialization seam between the immutable CSR graph and
// the persistent store (internal/store): raw access to the out-CSR arrays, a
// sort-free constructor that rebuilds a Graph from a previously-built CSR in
// O(|V|+|E|), a hook to install a persisted Stats summary without rescanning,
// and a deterministic edit operator the store's WAL replay is defined in
// terms of.

// CSR returns the graph's out-CSR arrays: outIndex (length NumNodes+1),
// outTo, and outW (length NumEdges each). The slices alias internal storage
// and must not be modified.
func (g *Graph) CSR() (outIndex []int64, outTo []NodeID, outW []float64) {
	return g.outIndex, g.outTo, g.outW
}

// RawLabels returns the node-label slice (nil when the graph is unlabeled).
// The slice aliases internal storage and must not be modified.
func (g *Graph) RawLabels() []string { return g.labels }

// PrimeStats installs a precomputed structural summary as the graph's cached
// Stats, so a graph loaded from a snapshot serves the query planner without
// paying the O(|V|+|E|) scan (plus union-find) on boot. It only takes effect
// if Stats has not been computed yet; later Stats calls return s verbatim.
func (g *Graph) PrimeStats(s Stats) {
	g.statsOnce.Do(func() { g.stats = s })
}

// NewFromCSR rebuilds a Graph directly from the out-CSR triple of a
// previously built graph (see CSR), recomputing transition probabilities and
// in-adjacency in O(|V|+|E|) — no edge sort, no duplicate merge. The input
// must satisfy the Builder's postconditions (monotone index, per-node targets
// strictly sorted, positive finite weights); violations are reported as
// errors, never panics, because the caller is typically deserializing
// untrusted bytes. labels may be nil or length n.
//
// The resulting graph is field-for-field identical to the graph the CSR was
// taken from: after validation it goes through the same derivation the
// Builder ends in, so joins over a reloaded graph are bit-identical to joins
// over the original.
func NewFromCSR(n int, outIndex []int64, outTo []NodeID, outW []float64, labels []string) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative node count %d", n)
	}
	if len(outIndex) != n+1 {
		return nil, fmt.Errorf("graph: outIndex length %d, want %d", len(outIndex), n+1)
	}
	m := len(outTo)
	if len(outW) != m {
		return nil, fmt.Errorf("graph: outW length %d, want %d", len(outW), m)
	}
	if outIndex[0] != 0 || outIndex[n] != int64(m) {
		return nil, fmt.Errorf("graph: outIndex bounds [%d,%d], want [0,%d]", outIndex[0], outIndex[n], m)
	}
	if labels != nil && len(labels) != n {
		return nil, fmt.Errorf("graph: labels length %d, want %d", len(labels), n)
	}
	for u := 0; u < n; u++ {
		lo, hi := outIndex[u], outIndex[u+1]
		if hi < lo || hi > int64(m) {
			return nil, fmt.Errorf("graph: out index not monotone at node %d", u)
		}
		for j := lo; j < hi; j++ {
			v := outTo[j]
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("graph: edge (%d,%d) target out of range", u, v)
			}
			if j > lo && v <= outTo[j-1] {
				return nil, fmt.Errorf("graph: out edges of %d not strictly sorted", u)
			}
			if w := outW[j]; w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("graph: edge (%d,%d) has invalid weight %v", u, v, w)
			}
		}
	}
	return derive(n, outIndex, outTo, outW, labels), nil
}

// Edge is one weighted directed arc, the unit of the store's edge WAL.
type Edge struct {
	U, V NodeID
	W    float64
}

// ApplyEdits returns a new graph with adds inserted and dels removed, leaving
// g untouched. Adding an arc that already exists sums the weights (the
// Builder's duplicate convention). Node ids in adds beyond g's range grow the
// node count. Deletions apply after all additions: a del removes the arc
// (u,v) from the post-add arc set entirely — so it also cancels a same-batch
// add, on a grown id too — and is a no-op for an arc that set lacks,
// including any arc with an out-of-range endpoint.
//
// The operation is deterministic: the same (g, adds, dels) always produces
// the bit-identical graph, which is what makes WAL replay reproduce exactly
// the graph the live process had — per-arc weights accumulate in a fixed
// order (g's weight first, then adds in argument order). It costs
// O(|V|+|E| + a·log a) for a = len(adds)+len(dels), with no hashing: the
// sorted batch is merged row by row into g's out-CSR. A batch whose adds sum
// the weight of an arc it keeps past the float64 range is rejected.
func ApplyEdits(g *Graph, adds []Edge, dels [][2]NodeID) (*Graph, error) {
	n := g.NumNodes()
	for _, e := range adds {
		if e.U < 0 || e.V < 0 {
			return nil, fmt.Errorf("graph: edit adds arc (%d,%d) with negative endpoint", e.U, e.V)
		}
		if e.W <= 0 || math.IsNaN(e.W) || math.IsInf(e.W, 0) {
			return nil, fmt.Errorf("graph: edit adds arc (%d,%d) with invalid weight %v", e.U, e.V, e.W)
		}
		n = max(n, int(e.U)+1, int(e.V)+1)
	}
	// A stable sort keeps same-arc adds in argument order, so their weights
	// sum in that order after g's.
	adds = slices.Clone(adds)
	sort.SliceStable(adds, func(i, j int) bool {
		return adds[i].U < adds[j].U || adds[i].U == adds[j].U && adds[i].V < adds[j].V
	})
	dels = slices.Clone(dels)
	sort.Slice(dels, func(i, j int) bool {
		return dels[i][0] < dels[j][0] || dels[i][0] == dels[j][0] && dels[i][1] < dels[j][1]
	})

	outIndex := make([]int64, n+1)
	outTo := make([]NodeID, 0, g.NumEdges()+len(adds))
	outW := make([]float64, 0, g.NumEdges()+len(adds))
	a, d := 0, 0
	for row := 0; row < n; row++ {
		u := NodeID(row)
		var to []NodeID
		var w []float64
		if row < g.n {
			to, w, _ = g.OutEdges(u)
		}
		for d < len(dels) && dels[d][0] < u {
			d++
		}
		for i := 0; i < len(to) || a < len(adds) && adds[a].U == u; {
			if (a == len(adds) || adds[a].U != u) && (d == len(dels) || dels[d][0] != u) {
				// No edit left in this row: copy the rest of it verbatim.
				outTo = append(outTo, to[i:]...)
				outW = append(outW, w[i:]...)
				break
			}
			var v NodeID
			var wv float64
			if i < len(to) && (a == len(adds) || adds[a].U != u || to[i] <= adds[a].V) {
				v, wv = to[i], w[i]
				i++
			} else {
				v, wv = adds[a].V, adds[a].W
				a++
			}
			for ; a < len(adds) && adds[a].U == u && adds[a].V == v; a++ {
				wv += adds[a].W
			}
			for d < len(dels) && dels[d][0] == u && dels[d][1] < v {
				d++
			}
			if d < len(dels) && dels[d][0] == u && dels[d][1] == v {
				continue
			}
			if math.IsInf(wv, 0) {
				return nil, fmt.Errorf("graph: edit overflows the weight of arc (%d,%d)", u, v)
			}
			outTo = append(outTo, v)
			outW = append(outW, wv)
		}
		outIndex[row+1] = int64(len(outTo))
	}
	// The Builder convention: a graph with no non-empty label is unlabeled.
	var labels []string
	if slices.ContainsFunc(g.labels, func(l string) bool { return l != "" }) {
		labels = make([]string, n)
		copy(labels, g.labels)
	}
	return derive(n, outIndex, outTo, outW, labels), nil
}

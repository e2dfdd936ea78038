package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// applyEditsReference is the original hash-and-rebuild edit operator, kept
// as the oracle ApplyEdits must match bit for bit: per-arc weights
// accumulate in a map (g's weight first, then adds in argument order), dels
// drop map entries, and a Builder rebuilds the whole graph.
func applyEditsReference(g *Graph, adds []Edge, dels [][2]NodeID) (*Graph, error) {
	n := g.NumNodes()
	for _, e := range adds {
		if e.U < 0 || e.V < 0 {
			return nil, fmt.Errorf("graph: edit adds arc (%d,%d) with negative endpoint", e.U, e.V)
		}
		if e.W <= 0 || math.IsNaN(e.W) || math.IsInf(e.W, 0) {
			return nil, fmt.Errorf("graph: edit adds arc (%d,%d) with invalid weight %v", e.U, e.V, e.W)
		}
		if int(e.U) >= n {
			n = int(e.U) + 1
		}
		if int(e.V) >= n {
			n = int(e.V) + 1
		}
	}
	type arc struct{ u, v NodeID }
	weight := make(map[arc]float64, g.NumEdges()+len(adds))
	for u := 0; u < g.NumNodes(); u++ {
		to, w, _ := g.OutEdges(NodeID(u))
		for j := range to {
			weight[arc{NodeID(u), to[j]}] += w[j]
		}
	}
	for _, e := range adds {
		weight[arc{e.U, e.V}] += e.W
	}
	for _, d := range dels {
		delete(weight, arc{d[0], d[1]})
	}
	b := NewBuilder(n, true)
	for a, w := range weight {
		b.AddEdge(a.u, a.v, w)
	}
	for u := 0; u < g.NumNodes(); u++ {
		if l := g.Label(NodeID(u)); l != "" {
			b.SetLabel(NodeID(u), l)
		}
	}
	return b.Build(), nil
}

// referenceOutcome runs the oracle, turning the Builder's panic on an
// overflowed (infinite) merged weight into an error: the reference rejected
// such a batch by panicking, ApplyEdits rejects it with an error.
func referenceOutcome(g *Graph, adds []Edge, dels [][2]NodeID) (ref *Graph, err error) {
	defer func() {
		if r := recover(); r != nil {
			ref, err = nil, fmt.Errorf("reference panicked: %v", r)
		}
	}()
	return applyEditsReference(g, adds, dels)
}

// diffGraphs reports the first field in which a and b differ, comparing
// floats by their bits; "" means field-for-field identical.
func diffGraphs(a, b *Graph) string {
	if a.n != b.n {
		return fmt.Sprintf("n %d vs %d", a.n, b.n)
	}
	if (a.labels == nil) != (b.labels == nil) {
		return fmt.Sprintf("labels nil=%v vs nil=%v", a.labels == nil, b.labels == nil)
	}
	if d := diffSlices("labels", a.labels, b.labels, func(x, y string) bool { return x == y }); d != "" {
		return d
	}
	sameInt := func(x, y int64) bool { return x == y }
	sameID := func(x, y NodeID) bool { return x == y }
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for _, d := range []string{
		diffSlices("outIndex", a.outIndex, b.outIndex, sameInt),
		diffSlices("outTo", a.outTo, b.outTo, sameID),
		diffSlices("outW", a.outW, b.outW, sameBits),
		diffSlices("outP", a.outP, b.outP, sameBits),
		diffSlices("inIndex", a.inIndex, b.inIndex, sameInt),
		diffSlices("inFrom", a.inFrom, b.inFrom, sameID),
		diffSlices("inW", a.inW, b.inW, sameBits),
		diffSlices("inP", a.inP, b.inP, sameBits),
	} {
		if d != "" {
			return d
		}
	}
	return ""
}

func diffSlices[T any](name string, a, b []T, same func(x, y T) bool) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%s length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if !same(a[i], b[i]) {
			return fmt.Sprintf("%s[%d] %v vs %v", name, i, a[i], b[i])
		}
	}
	return ""
}

// checkEdits asserts ApplyEdits == the reference on one case: the same
// graph bit for bit, or both rejecting.
func checkEdits(t *testing.T, g *Graph, adds []Edge, dels [][2]NodeID) {
	t.Helper()
	addsCopy := append([]Edge(nil), adds...)
	delsCopy := append([][2]NodeID(nil), dels...)
	got, err := ApplyEdits(g, adds, dels)
	want, werr := referenceOutcome(g, adds, dels)
	if (err != nil) != (werr != nil) {
		t.Fatalf("ApplyEdits err=%v, reference err=%v\nadds=%v dels=%v", err, werr, adds, dels)
	}
	sameEdge := func(x, y Edge) bool {
		return x.U == y.U && x.V == y.V && math.Float64bits(x.W) == math.Float64bits(y.W)
	}
	if diffSlices("adds", adds, addsCopy, sameEdge) != "" ||
		diffSlices("dels", dels, delsCopy, func(x, y [2]NodeID) bool { return x == y }) != "" {
		t.Fatal("ApplyEdits reordered its arguments")
	}
	if err != nil {
		return
	}
	if d := diffGraphs(got, want); d != "" {
		t.Fatalf("ApplyEdits differs from reference: %s\nadds=%v dels=%v", d, adds, dels)
	}
}

// editWeights mixes values whose sums depend on addition order (0.1, 0.2,
// 1/3, 1e16 next to 1) so a change of accumulation order shows in the bits.
var editWeights = []float64{0.1, 0.2, 0.3, 1.0 / 3, 1, 1.5, 2, 7, 1e16}

// randomEditGraph builds a small random graph through the Builder: directed
// or undirected, and unlabeled, labeled, or labeled with only empty labels.
func randomEditGraph(r *rand.Rand) *Graph {
	n := r.Intn(10)
	b := NewBuilder(n, r.Intn(2) == 0)
	if n > 0 {
		for i := r.Intn(3 * n); i > 0; i-- {
			b.AddEdge(NodeID(r.Intn(n)), NodeID(r.Intn(n)), editWeights[r.Intn(len(editWeights))])
		}
	}
	switch r.Intn(3) {
	case 1:
		for u := 0; u < n; u++ {
			if r.Intn(2) == 0 {
				b.SetLabel(NodeID(u), fmt.Sprintf("node%d", u))
			}
		}
	case 2:
		for u := 0; u < n; u++ {
			b.SetLabel(NodeID(u), "")
		}
	}
	return b.Build()
}

// randomBatch draws an edit batch that exercises every merge case: adds on
// existing arcs, duplicate adds, growth past g's range, dels of existing
// arcs, of same-batch adds (grown ids included), of absent arcs, and of
// out-of-range and negative ids.
func randomBatch(r *rand.Rand, g *Graph) ([]Edge, [][2]NodeID) {
	n := g.NumNodes()
	id := func() NodeID { return NodeID(r.Intn(n + 3)) }
	var adds []Edge
	for i := r.Intn(8); i > 0; i-- {
		e := Edge{U: id(), V: id(), W: editWeights[r.Intn(len(editWeights))]}
		if g.NumEdges() > 0 && r.Intn(3) == 0 {
			u := NodeID(r.Intn(n))
			if to, _, _ := g.OutEdges(u); len(to) > 0 {
				e.U, e.V = u, to[r.Intn(len(to))]
			}
		}
		adds = append(adds, e)
		if r.Intn(3) == 0 {
			adds = append(adds, Edge{U: e.U, V: e.V, W: editWeights[r.Intn(len(editWeights))]})
		}
	}
	var dels [][2]NodeID
	for i := r.Intn(5); i > 0; i-- {
		switch r.Intn(4) {
		case 0:
			if len(adds) > 0 {
				e := adds[r.Intn(len(adds))]
				dels = append(dels, [2]NodeID{e.U, e.V})
				continue
			}
		case 1:
			dels = append(dels, [2]NodeID{NodeID(n + 5 + r.Intn(3)), NodeID(r.Intn(n + 1))})
			continue
		case 2:
			dels = append(dels, [2]NodeID{NodeID(-1 - r.Intn(2)), id()})
			continue
		}
		if g.NumEdges() > 0 {
			u := NodeID(r.Intn(n))
			if to, _, _ := g.OutEdges(u); len(to) > 0 {
				dels = append(dels, [2]NodeID{u, to[r.Intn(len(to))]})
				continue
			}
		}
		dels = append(dels, [2]NodeID{id(), id()})
	}
	return adds, dels
}

// TestApplyEditsMatchesReference is the property that the row merge is the
// old hash-and-rebuild operator, bit for bit, over random graphs and
// batches, including chains of batches over an edited graph.
func TestApplyEditsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for c := 0; c < 3000; c++ {
		g := randomEditGraph(r)
		for step := 0; step < 1+r.Intn(3); step++ {
			adds, dels := randomBatch(r, g)
			checkEdits(t, g, adds, dels)
			next, err := ApplyEdits(g, adds, dels)
			if err != nil {
				t.Fatal(err)
			}
			g = next
		}
	}
}

// TestApplyEditsCases pins the merge's edge cases by name.
func TestApplyEditsCases(t *testing.T) {
	b := NewBuilder(4, true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 3, 2)
	b.AddEdge(2, 0, 0.1)
	b.SetLabel(1, "one")
	g := b.Build()
	big := math.MaxFloat64 * 0.75
	// Past a dozen elements an unstable sort may reorder equal keys; the
	// weights' sum depends on their order.
	var many []Edge
	for i := 0; i < 40; i++ {
		many = append(many, Edge{NodeID(i % 3), 2, editWeights[i%len(editWeights)]})
	}
	cases := []struct {
		name string
		adds []Edge
		dels [][2]NodeID
	}{
		{"add onto existing arc", []Edge{{0, 1, 0.2}, {0, 1, 0.1}}, nil},
		{"duplicate new arcs", []Edge{{1, 2, 0.1}, {1, 2, 0.2}, {1, 2, 0.3}}, nil},
		{"del cancels same-batch add", []Edge{{1, 2, 1}}, [][2]NodeID{{1, 2}}},
		{"del cancels add on grown id", []Edge{{6, 7, 1}, {6, 2, 1}}, [][2]NodeID{{6, 7}}},
		{"del absent and out of range", nil, [][2]NodeID{{3, 0}, {9, 9}, {-1, 0}, {0, -1}}},
		{"del existing, duplicated", nil, [][2]NodeID{{0, 3}, {0, 3}, {2, 0}}},
		{"growth keeps labels", []Edge{{9, 0, 1}}, nil},
		{"add before existing target", []Edge{{0, 0, 1}, {0, 2, 1}}, nil},
		{"negative endpoint rejected", []Edge{{-1, 0, 1}}, nil},
		{"invalid weight rejected", []Edge{{0, 1, math.NaN()}}, nil},
		{"weight overflow rejected", []Edge{{1, 3, big}, {1, 3, big}}, nil},
		{"overflowed arc deleted in the batch", []Edge{{1, 3, big}, {1, 3, big}}, [][2]NodeID{{1, 3}}},
		{"many same-arc adds keep argument order", many, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkEdits(t, g, c.adds, c.dels) })
	}
	if _, err := ApplyEdits(g, []Edge{{1, 3, big}, {1, 3, big}}, nil); err == nil {
		t.Fatal("an add that overflows an arc weight was accepted")
	}
}

// TestApplyEditsHotBatches chains 20-arc batches over a graph shaped like
// the serving benchmark's edit workload.
func TestApplyEditsHotBatches(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := editBenchGraph(600, 8, 1)
	for i := 0; i < 50; i++ {
		adds := editBenchBatch(r, g.NumNodes(), 20)
		var dels [][2]NodeID
		if i%3 == 0 {
			dels = append(dels, [2]NodeID{adds[0].U, adds[0].V}, [2]NodeID{NodeID(r.Intn(600)), NodeID(r.Intn(600))})
		}
		checkEdits(t, g, adds, dels)
		next, err := ApplyEdits(g, adds, dels)
		if err != nil {
			t.Fatal(err)
		}
		g = next
	}
}

// TestNewFromCSRMatchesBuilder pins the reload path: a graph rebuilt from
// its own out-CSR is field-for-field the Builder's graph.
func TestNewFromCSRMatchesBuilder(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for c := 0; c < 500; c++ {
		g := randomEditGraph(r)
		outIndex, outTo, outW := g.CSR()
		h, err := NewFromCSR(g.NumNodes(), outIndex, outTo, outW, g.RawLabels())
		if err != nil {
			t.Fatalf("case %d: NewFromCSR rejected a built graph: %v", c, err)
		}
		if d := diffGraphs(h, g); d != "" {
			t.Fatalf("case %d: NewFromCSR differs from Builder: %s", c, d)
		}
	}
}

// TestNewFromCSRRejects checks that malformed CSR input is an error.
func TestNewFromCSRRejects(t *testing.T) {
	cases := []struct {
		name     string
		n        int
		outIndex []int64
		outTo    []NodeID
		outW     []float64
		labels   []string
	}{
		{"negative n", -1, nil, nil, nil, nil},
		{"short index", 2, []int64{0, 0}, nil, nil, nil},
		{"weight length", 1, []int64{0, 1}, []NodeID{0}, nil, nil},
		{"bad bounds", 1, []int64{1, 1}, []NodeID{0}, []float64{1}, nil},
		{"not monotone", 2, []int64{0, 2, 1}, []NodeID{0}, []float64{1}, nil},
		{"target out of range", 1, []int64{0, 1}, []NodeID{1}, []float64{1}, nil},
		{"unsorted", 2, []int64{0, 2, 2}, []NodeID{1, 0}, []float64{1, 1}, nil},
		{"zero weight", 1, []int64{0, 1}, []NodeID{0}, []float64{0}, nil},
		{"infinite weight", 1, []int64{0, 1}, []NodeID{0}, []float64{math.Inf(1)}, nil},
		{"labels length", 1, []int64{0, 0}, nil, nil, []string{"a", "b"}},
	}
	for _, c := range cases {
		if _, err := NewFromCSR(c.n, c.outIndex, c.outTo, c.outW, c.labels); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// FuzzApplyEdits decodes a graph and an edit batch from raw bytes and checks
// ApplyEdits against the reference operator. Each 3-byte op is a graph arc,
// an add, or a del; ids run past the graph's range (growth, out-of-range
// dels), 0xFF decodes to -1, and one weight is large enough that two adds
// overflow.
func FuzzApplyEdits(f *testing.F) {
	f.Add([]byte{5, 0, 0, 1, 2, 0, 2, 3, 1, 0, 1, 4, 1, 9, 1, 2, 9, 1})
	f.Add([]byte{3, 1, 0, 1, 1, 0, 1, 1, 6, 7, 1, 6, 8, 2, 6, 7})
	f.Add([]byte{0, 2, 1, 2, 3, 0xFF, 0, 2, 9, 9})
	f.Add([]byte{4, 2, 1, 2, 9, 1, 2, 9, 1, 2, 9})
	weights := append(slices.Clone(editWeights), math.MaxFloat64*0.75)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, mode := int(data[0]%12), data[1]
		id := func(c byte) NodeID {
			if c == 0xFF {
				return -1
			}
			return NodeID(c % 16)
		}
		b := NewBuilder(n, mode&1 == 0)
		var adds []Edge
		var dels [][2]NodeID
		for ops := data[2:]; len(ops) >= 3; ops = ops[3:] {
			u, v, w := id(ops[1]), id(ops[2]), weights[int(ops[1]^ops[2])%len(weights)]
			switch ops[0] % 3 {
			case 0:
				if n > 0 && u >= 0 && v >= 0 {
					b.AddEdge(u%NodeID(n), v%NodeID(n), editWeights[int(ops[1]^ops[2])%len(editWeights)])
				}
			case 1:
				adds = append(adds, Edge{U: u, V: v, W: w})
			case 2:
				dels = append(dels, [2]NodeID{u, v})
			}
		}
		for u := 0; u < n && mode&6 != 0; u++ {
			if mode&2 != 0 && u%2 == 0 {
				b.SetLabel(NodeID(u), fmt.Sprint(u))
			} else {
				b.SetLabel(NodeID(u), "")
			}
		}
		checkEdits(t, b.Build(), adds, dels)
	})
}

// editBenchGraph builds an n-node graph with deg random weighted out-arcs
// per node, the shape of the serving benchmark's edit workload.
func editBenchGraph(n, deg int, seed int64) *Graph {
	r := rand.New(rand.NewSource(seed))
	b := NewBuilder(n, true)
	for u := 0; u < n; u++ {
		for i := 0; i < deg; i++ {
			b.AddEdge(NodeID(u), NodeID(r.Intn(n)), float64(1+r.Intn(3)))
		}
	}
	return b.Build()
}

// editBenchBatch draws k random weighted arcs among n nodes.
func editBenchBatch(r *rand.Rand, n, k int) []Edge {
	adds := make([]Edge, k)
	for i := range adds {
		adds[i] = Edge{U: NodeID(r.Intn(n)), V: NodeID(r.Intn(n)), W: float64(1 + r.Intn(3))}
	}
	return adds
}

// BenchmarkApplyEdits prices one 20-arc batch on a 2400-node, 8-out-arc
// graph through the row merge and through the reference rebuild.
func BenchmarkApplyEdits(b *testing.B) {
	g := editBenchGraph(2400, 8, 1)
	adds := editBenchBatch(rand.New(rand.NewSource(2)), g.NumNodes(), 20)
	for _, impl := range []struct {
		name string
		fn   func(*Graph, []Edge, [][2]NodeID) (*Graph, error)
	}{{"merge", ApplyEdits}, {"reference", applyEditsReference}} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := impl.fn(g, adds, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

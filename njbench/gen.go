package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
)

// rng is a splitmix64 generator. It is tiny, seedable per stream, and owned
// by the benchmark, so a seed pins the generated graph and request stream
// byte for byte across Go releases (math/rand's derived methods carry no
// such promise).
type rng struct{ s uint64 }

// newRNG derives an independent generator for one (seed, stream) pair;
// request i of a workload draws from stream i, so its content does not
// depend on which client happens to send it.
func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ (stream+1)*0xd1b54a32d192ed03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a value in [0, n); the modulo bias is below 2^-40 for the
// small n used here.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// pick draws k distinct members of pool (partial Fisher–Yates on a copy),
// in draw order.
func (r *rng) pick(pool []int32, k int) []int32 {
	cp := append([]int32(nil), pool...)
	for i := 0; i < k; i++ {
		j := i + r.intn(len(cp)-i)
		cp[i], cp[j] = cp[j], cp[i]
	}
	return cp[:k]
}

// graphSpec sizes a planted-community graph: every node draws Degree
// distinct out-arcs, each to its own community with probability 1-Cross.
type graphSpec struct {
	Nodes, Communities, Degree int
	Cross                      float64
}

type arc struct{ u, v int32 }

// genGraph is a generated graph: its text-format file (what the daemon
// receives), its communities, and its arc set (to draw edits that are new).
type genGraph struct {
	text  []byte
	comm  [][]int32
	arcs  map[arc]bool
	nodes int
}

// generateGraph builds the graph for spec from seed. Weights are integers
// in [1, 3]; communities are contiguous id ranges, declared as node sets
// C0, C1, … in the file.
func generateGraph(spec graphSpec, seed int64) *genGraph {
	r := newRNG(seed, 1<<40)
	size := spec.Nodes / spec.Communities
	g := &genGraph{nodes: spec.Nodes, arcs: make(map[arc]bool, spec.Nodes*spec.Degree)}
	for c := 0; c < spec.Communities; c++ {
		ids := make([]int32, size)
		for i := range ids {
			ids[i] = int32(c*size + i)
		}
		g.comm = append(g.comm, ids)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "graph %d directed\n", spec.Nodes)
	for u := 0; u < spec.Nodes; u++ {
		c := u / size
		if c >= spec.Communities {
			c = spec.Communities - 1
		}
		for added := 0; added < spec.Degree; {
			var v int32
			if r.float() < spec.Cross {
				v = int32(r.intn(spec.Nodes))
			} else {
				v = g.comm[c][r.intn(size)]
			}
			a := arc{int32(u), v}
			if v == int32(u) || g.arcs[a] {
				continue
			}
			g.arcs[a] = true
			added++
			fmt.Fprintf(&b, "edge %d %d %d\n", u, v, 1+r.intn(3))
		}
	}
	for c, ids := range g.comm {
		fmt.Fprintf(&b, "nodeset C%d", c)
		for _, id := range ids {
			b.WriteByte(' ')
			b.WriteString(strconv.Itoa(int(id)))
		}
		b.WriteByte('\n')
	}
	g.text = b.Bytes()
	return g
}

// Operation kinds. A workload's mix is a list of them; the HTTP client,
// the oracle and the traced replay all switch on Op.
const (
	opJoin2  = "join2"  // batch POST /join2
	opStream = "stream" // NDJSON POST /join2
	opJoinN  = "joinn"  // batch POST /joinN
	opEdit   = "edit"   // POST /graphs/{g}/edges
)

// options is the subset of the wire options the workloads use.
type options struct {
	Measure  string `json:"measure,omitempty"`
	Accuracy string `json:"accuracy,omitempty"`
	Algo     string `json:"algo,omitempty"`
}

type setRef struct {
	IDs []int32 `json:"ids"`
}

type join2Body struct {
	Graph   string   `json:"graph"`
	P       setRef   `json:"p"`
	Q       setRef   `json:"q"`
	K       int      `json:"k"`
	Stream  bool     `json:"stream,omitempty"`
	Cursor  int      `json:"cursor,omitempty"`
	Options *options `json:"options,omitempty"`
}

type joinNBody struct {
	Graph   string   `json:"graph"`
	Sets    []setRef `json:"sets"`
	Shape   string   `json:"shape"`
	K       int      `json:"k"`
	Options *options `json:"options,omitempty"`
}

type edgeAdd struct {
	U int32 `json:"u"`
	V int32 `json:"v"`
	W int   `json:"w"`
}

type editBody struct {
	Add []edgeAdd `json:"add"`
}

// request is one generated request: its wire form plus the decoded fields
// the oracle and the traced replay need.
type request struct {
	ID    int
	Op    string
	Label string // mix entry: "dht", "stream", "ppr", "fast", "chain", …
	Path  string
	Body  []byte

	P, Q      []int32
	Sets      [][]int32
	Shape     string
	K, Cursor int
	Opts      options
	Adds      []edgeAdd
}

const graphName = "g"

func newJoin2(id int, label string, p, q []int32, k, cursor int, stream bool, o options) request {
	body := join2Body{Graph: graphName, P: setRef{p}, Q: setRef{q}, K: k, Stream: stream, Cursor: cursor}
	if o != (options{}) {
		body.Options = &o
	}
	op := opJoin2
	if stream {
		op = opStream
	}
	return request{ID: id, Op: op, Label: label, Path: "/join2", Body: mustJSON(body),
		P: p, Q: q, K: k, Cursor: cursor, Opts: o}
}

func newJoinN(id int, shape string, sets [][]int32, k int) request {
	refs := make([]setRef, len(sets))
	for i, s := range sets {
		refs[i] = setRef{s}
	}
	body := joinNBody{Graph: graphName, Sets: refs, Shape: shape, K: k}
	return request{ID: id, Op: opJoinN, Label: shape, Path: "/joinN", Body: mustJSON(body),
		Sets: sets, Shape: shape, K: k}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the bodies are plain structs of ints and strings
	}
	return b
}

// twoCommunities draws an ordered pair of distinct communities.
func twoCommunities(r *rng, g *genGraph) ([]int32, []int32) {
	a := r.intn(len(g.comm))
	b := (a + 1 + r.intn(len(g.comm)-1)) % len(g.comm)
	return g.comm[a], g.comm[b]
}

// stratum returns the mix entry of request id: ids come in blocks of
// len(pattern), each a seeded shuffle of pattern, so every window of whole
// blocks carries the mix exactly and run-to-run spread does not come from
// the mix drifting.
func stratum(seed int64, id int, pattern []string) string {
	r := newRNG(seed, 1<<45+uint64(id/len(pattern)))
	perm := make([]string, len(pattern))
	copy(perm, pattern)
	for i := len(perm) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[id%len(pattern)]
}

// share is one mix entry and how many requests of a block it gets.
type share struct {
	label string
	n     int
}

func pattern(shares ...share) []string {
	var out []string
	for _, sh := range shares {
		for i := 0; i < sh.n; i++ {
			out = append(out, sh.label)
		}
	}
	return out
}

var (
	pairColdMix = pattern(share{"dht", 11}, share{"stream", 5}, share{"ppr", 2}, share{"fast", 2})
	nwayColdMix = pattern(share{"chain", 4}, share{"triangle", 3}, share{"star", 3})
	hotMix      = pattern(share{"page", 4}, share{"page-stream", 1})
)

// pairColdRead is request id of pair-cold: fresh 100×100 P/Q from two
// communities; 55% batch dht k=50, 25% NDJSON stream with default options,
// 10% ppr, 10% forced certified fast kernel.
func pairColdRead(g *genGraph, seed int64, id int) request {
	r := newRNG(seed, uint64(id))
	ca, cb := twoCommunities(r, g)
	p, q := r.pick(ca, 100), r.pick(cb, 100)
	switch label := stratum(seed, id, pairColdMix); label {
	case "stream":
		return newJoin2(id, label, p, q, 50, 0, true, options{})
	case "ppr":
		return newJoin2(id, label, p, q, 50, 0, false, options{Measure: "ppr"})
	case "fast":
		return newJoin2(id, label, p, q, 50, 0, false, options{Accuracy: "fast", Algo: "B-BJ-fast"})
	default:
		return newJoin2(id, label, p, q, 50, 0, false, options{})
	}
}

// nwayColdRead is request id of nway-cold: chain(3) 40%, triangle(3) 30%,
// star(4) 30%, fresh 30–50-node sets from random communities, k ∈ {5,10,20}.
func nwayColdRead(g *genGraph, seed int64, id int) request {
	r := newRNG(seed, uint64(id))
	shape := stratum(seed, id, nwayColdMix)
	n := 3
	if shape == "star" {
		n = 4
	}
	sets := make([][]int32, n)
	for i := range sets {
		sets[i] = r.pick(g.comm[r.intn(len(g.comm))], 30+r.intn(21))
	}
	return newJoinN(id, shape, sets, []int{5, 10, 20}[r.intn(3)])
}

// hotPairs is the fixed working set of pair-hot-edits: 48 P/Q pairs of 64
// nodes each, drawn once per seed.
func hotPairs(g *genGraph, seed int64) [][2][]int32 {
	r := newRNG(seed, 1<<41)
	pairs := make([][2][]int32, 48)
	for i := range pairs {
		ca, cb := twoCommunities(r, g)
		pairs[i] = [2][]int32{r.pick(ca, 64), r.pick(cb, 64)}
	}
	return pairs
}

// hotRead is read id of pair-hot-edits: a Zipf(1.1) draw over the fixed
// pairs, a k=10 page at cursor 0, 10, 20 or 30, streamed 20% of the time.
func hotRead(pairs [][2][]int32, z *zipf, seed int64, id int) request {
	r := newRNG(seed, uint64(id))
	pq := pairs[z.draw(r.float())]
	cursor := 10 * r.intn(4)
	label := stratum(seed, id, hotMix)
	return newJoin2(id, label, pq[0], pq[1], 10, cursor, label == "page-stream", options{})
}

// editBatches draws n edge batches of 20 arcs each that are new to g and to
// every earlier batch, so each acknowledged batch grows the edge count by
// exactly its length.
func editBatches(g *genGraph, seed int64, n int) []request {
	r := newRNG(seed, 1<<42)
	seen := make(map[arc]bool)
	out := make([]request, n)
	for i := range out {
		adds := make([]edgeAdd, 0, 20)
		for len(adds) < 20 {
			a := arc{int32(r.intn(g.nodes)), int32(r.intn(g.nodes))}
			if a.u == a.v || g.arcs[a] || seen[a] {
				continue
			}
			seen[a] = true
			adds = append(adds, edgeAdd{U: a.u, V: a.v, W: 1 + r.intn(3)})
		}
		out[i] = request{ID: i, Op: opEdit, Label: "edit", Path: "/graphs/" + graphName + "/edges",
			Body: mustJSON(editBody{Add: adds}), Adds: adds}
	}
	return out
}

// zipf samples ranks 0..n-1 with P(i) ∝ 1/(i+1)^s by inverting its CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &zipf{cdf}
}

// draw maps u ∈ [0, 1) to a rank: the first whose CDF exceeds u.
func (z *zipf) draw(u float64) int {
	i := sort.Search(len(z.cdf), func(i int) bool { return z.cdf[i] > u })
	return min(i, len(z.cdf)-1)
}

// percentile returns the p-th percentile (0..100) of sorted values by
// linear interpolation between closest ranks (numpy's default).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tailPercentile is the highest of p99, p95, p90, p75 that has at least
// ten samples beyond it among n, or 0 when none has.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// Command bench executes the quick-mode benchmark set in-process and emits
// a machine-readable BENCH_<rev>.json with ns/op, B/op, and allocs/op per
// benchmark, so the performance trajectory of the walk kernels and join
// algorithms is tracked per revision (CI uploads the file as an artifact;
// compare two revisions by diffing their JSON).
//
// Usage:
//
//	bench                  # run the full set, write BENCH_<git rev>.json
//	bench -rev pr2         # name the revision explicitly
//	bench -o out/          # write the file into a directory
//	bench -bench Fig9a     # run the benchmarks whose name contains a substring
//	bench -list            # list benchmark names and exit
//	bench -baseline bench/BENCH_pr5.json -threshold 2.5
//	                       # additionally print a benchstat-style old/new
//	                       # table against the baseline and exit non-zero
//	                       # when any shared benchmark regresses past the
//	                       # ns/op threshold factor (the CI bench job's
//	                       # regression gate)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/dhtjoin"
	"repro/internal/cluster"
	"repro/internal/dht"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/join2"
	"repro/internal/service"
)

// Result is one benchmark measurement, flattened for JSON.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Report is the BENCH_<rev>.json document.
type Report struct {
	Rev     string   `json:"rev"`
	GoOS    string   `json:"goos"`
	GoArch  string   `json:"goarch"`
	Date    string   `json:"date"`
	Results []Result `json:"results"`
}

// spec is one registered benchmark.
type spec struct {
	name string
	fn   func(b *testing.B)
}

func main() {
	var (
		rev       = flag.String("rev", "", "revision label (default: git rev-parse --short HEAD)")
		outDir    = flag.String("o", ".", "directory to write BENCH_<rev>.json into")
		match     = flag.String("bench", "", "run only benchmarks whose name contains this substring")
		list      = flag.Bool("list", false, "list benchmark names and exit")
		baseline  = flag.String("baseline", "", "BENCH_*.json to compare against after the run (regression check)")
		threshold = flag.Float64("threshold", 1.5, "ns/op regression factor that fails the -baseline comparison")
		compare   = flag.String("compare", "", "compare this already-written BENCH_*.json against -baseline without running anything")
	)
	flag.Parse()

	if *compare != "" {
		if *baseline == "" {
			fmt.Fprintln(os.Stderr, "bench: -compare requires -baseline")
			os.Exit(2)
		}
		fresh, err := readReport(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := compareBaseline(*baseline, fresh, *threshold); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	specs := benchSet()
	if *list {
		for _, s := range specs {
			fmt.Println(s.name)
		}
		return
	}
	if *rev == "" {
		*rev = gitRev()
	}

	rep := Report{
		Rev:    *rev,
		GoOS:   runtime.GOOS,
		GoArch: runtime.GOARCH,
		Date:   time.Now().UTC().Format(time.RFC3339),
	}
	for _, s := range specs {
		if *match != "" && !strings.Contains(s.name, *match) {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %s...\n", s.name)
		r := testing.Benchmark(s.fn)
		if r.N == 0 {
			fmt.Fprintf(os.Stderr, "bench: %s failed (see output above)\n", s.name)
			os.Exit(1)
		}
		rep.Results = append(rep.Results, Result{
			Name:        s.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
		fmt.Fprintf(os.Stderr, "  %d iters, %.0f ns/op, %d B/op, %d allocs/op\n",
			r.N, float64(r.T.Nanoseconds())/float64(r.N), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}

	path := filepath.Join(*outDir, "BENCH_"+*rev+".json")
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(path)
	if *baseline != "" {
		if err := compareBaseline(*baseline, &rep, *threshold); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
}

// readReport loads a BENCH_*.json document.
func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &rep, nil
}

// compareBaseline prints a benchstat-style table of the fresh results
// against a checked-in baseline report and errors when any benchmark shared
// by both regresses in ns/op past the threshold factor. Benchmarks present
// on only one side are reported but never gate: a new benchmark has no
// baseline, and a retired one no longer matters. ns/op is only comparable
// between runs on the same machine — treat cross-machine comparisons (e.g.
// CI against a developer-recorded baseline) as advisory.
func compareBaseline(path string, fresh *Report, threshold float64) error {
	basePtr, err := readReport(path)
	if err != nil {
		return err
	}
	base := *basePtr
	old := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		old[r.Name] = r
	}
	fmt.Fprintf(os.Stderr, "\nvs baseline %s (rev %s):\n", path, base.Rev)
	fmt.Fprintf(os.Stderr, "%-28s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	var regressions []string
	for _, r := range fresh.Results {
		b, ok := old[r.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "%-28s %14s %14.0f %8s\n", r.Name, "-", r.NsPerOp, "new")
			continue
		}
		delta := 0.0
		if b.NsPerOp > 0 {
			delta = (r.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		}
		fmt.Fprintf(os.Stderr, "%-28s %14.0f %14.0f %+7.1f%%\n", r.Name, b.NsPerOp, r.NsPerOp, delta)
		if b.NsPerOp > 0 && r.NsPerOp > b.NsPerOp*threshold {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f -> %.0f ns/op (×%.2f > ×%.2f)", r.Name, b.NsPerOp, r.NsPerOp, r.NsPerOp/b.NsPerOp, threshold))
		}
	}
	for _, r := range base.Results {
		found := false
		for _, f := range fresh.Results {
			if f.Name == r.Name {
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "%-28s %14.0f %14s %8s\n", r.Name, r.NsPerOp, "-", "gone")
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("regressions past ×%.2f:\n  %s", threshold, strings.Join(regressions, "\n  "))
	}
	fmt.Fprintln(os.Stderr, "no regressions past the threshold")
	return nil
}

// gitRev resolves the short revision of the working tree, "dev" when git is
// unavailable (e.g. a source tarball).
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "dev"
	}
	return strings.TrimSpace(string(out))
}

// benchSet registers the quick-mode set: the experiment drivers the ISSUE
// acceptance targets name, the 2-way joiner benches, and the kernel
// microbenches (solo vs batched), mirroring the *_test.go benchmarks so the
// JSON numbers are directly comparable to `go test -bench` output.
func benchSet() []spec {
	var (
		envOnce bool
		env     *experiments.Env
	)
	getEnv := func(b *testing.B) *experiments.Env {
		b.Helper()
		if !envOnce {
			env = experiments.NewEnv(experiments.Quick())
			// Materialize the datasets outside the timed region.
			if _, err := env.Yeast(); err != nil {
				b.Fatal(err)
			}
			if _, err := env.DBLP(); err != nil {
				b.Fatal(err)
			}
			if _, err := env.YouTube(); err != nil {
				b.Fatal(err)
			}
			envOnce = true
		}
		return env
	}
	expBench := func(id string) func(b *testing.B) {
		return func(b *testing.B) {
			e := getEnv(b)
			r, err := experiments.ByID(id)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab, err := r.Run(e)
				if err != nil {
					b.Fatal(err)
				}
				if len(tab.Rows) == 0 {
					b.Fatalf("%s produced an empty table", id)
				}
			}
		}
	}
	joinCfg := func(b *testing.B) join2.Config {
		b.Helper()
		g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
			Sizes: []int{800, 800, 800}, PIn: 0.008, POut: 0.008, Seed: 3, MinOutLink: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		return join2.Config{
			Graph:  g,
			Params: dht.DHTLambda(0.2),
			D:      8,
			P:      sets[0].Nodes()[:100],
			Q:      sets[1].Nodes()[:100],
		}
	}
	joinBench := func(mk func(join2.Config) (join2.Joiner, error), k int) func(b *testing.B) {
		return func(b *testing.B) {
			j, err := mk(joinCfg(b))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := j.TopK(k); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	kernelBench := func(batchW, steps int) func(b *testing.B) {
		return func(b *testing.B) {
			cfg := joinCfg(b)
			qs := make([]graph.NodeID, 0, max(batchW, 1))
			n := cfg.Graph.NumNodes()
			if batchW <= 1 {
				e, err := dht.NewEngine(cfg.Graph, cfg.Params, cfg.D)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.BackWalkScores(dht.FirstHit, graph.NodeID(i%n), steps)
				}
				return
			}
			be, err := dht.NewBatchEngine(cfg.Graph, cfg.Params, cfg.D, batchW)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i += batchW {
				qs = qs[:0]
				for c := 0; c < batchW && i+c < b.N; c++ {
					qs = append(qs, graph.NodeID((i+c)%n))
				}
				be.BackWalkScoresBatch(dht.FirstHit, qs, steps)
			}
		}
	}
	// The service pair: an identical repeated top-k workload through the
	// serving layer's shared pools/caches versus per-request construction —
	// the number that justifies njoind's existence. A third variant defeats
	// the result LRU to isolate the pool/memo reuse win.
	serviceBench := func(svcCfg *service.Config) func(b *testing.B) {
		return func(b *testing.B) {
			cfg := joinCfg(b)
			p := service.SetRef{IDs: cfg.P}
			q := service.SetRef{IDs: cfg.Q}
			if svcCfg == nil { // one-shot: rebuild everything per request
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					j, err := join2.NewBIDJY(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := j.TopK(50); err != nil {
						b.Fatal(err)
					}
				}
				return
			}
			svc := service.New(*svcCfg)
			if err := svc.LoadGraph("g", cfg.Graph, nil); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.Join2(context.Background(), "g", p, q, 50, service.Query{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// The streaming pair: time-to-first-result (open the incremental
	// stream with a minimal initial batch and pull once) versus a streamed
	// top-50 (same stream drained to 50). Compare the first against
	// BIDJYTop50 to see the latency the stream inversion buys, and the
	// second against BIDJYTop50 to see what incremental production costs
	// when the caller wants the full prefix anyway.
	streamBench := func(initial, pulls int) func(b *testing.B) {
		return func(b *testing.B) {
			cfg := joinCfg(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := join2.NewIncrementalStream(cfg, join2.BoundY, join2.StreamSpec{Initial: initial})
				if err != nil {
					b.Fatal(err)
				}
				for n := 0; n < pulls; n++ {
					if _, ok, err := st.Next(); err != nil || !ok {
						b.Fatalf("pull %d: ok=%v err=%v", n, ok, err)
					}
				}
				st.Release()
			}
		}
	}
	// The served stream: first result through the full service stack
	// (admission, session pool, memo) with the result cache defeated, so
	// the number tracks real streaming work, not a cache hit.
	serviceStreamBench := func() func(b *testing.B) {
		return func(b *testing.B) {
			cfg := joinCfg(b)
			svc := service.New(service.Config{ResultCacheSize: -1})
			if err := svc.LoadGraph("g", cfg.Graph, nil); err != nil {
				b.Fatal(err)
			}
			p := service.SetRef{IDs: cfg.P}
			q := service.SetRef{IDs: cfg.Q}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// M sizes the stream's initial batch; 1 minimizes latency.
				st, err := svc.OpenJoin2(ctx, "g", p, q, service.Query{M: 1})
				if err != nil {
					b.Fatal(err)
				}
				if _, ok, err := st.Next(); err != nil || !ok {
					b.Fatalf("first result: ok=%v err=%v", ok, err)
				}
				st.Stop()
			}
		}
	}
	// The planner pair: PlanOverhead prices one Explain — workload assembly
	// plus the full candidate cost table against the graph's cached stats —
	// which the acceptance bar holds under 100µs per query. The FullRanking
	// pair is the workload where the planner's non-default pick wins: at
	// k = |P|·|Q| nothing can be pruned, so B-IDJ-Y's deepening rounds are
	// pure overhead and the planner flips to B-BJ (one full-depth walk per
	// target). Both run the identical public batch path; only the algorithm
	// choice differs (PlannerFullRanking lets the planner pick, Forced
	// pins the old default via hints), so their delta is exactly the
	// planner's win.
	planBench := func() func(b *testing.B) {
		return func(b *testing.B) {
			cfg := joinCfg(b)
			qy := dhtjoin.NewPairQuery(cfg.Graph,
				graph.NewNodeSet("P", cfg.P), graph.NewNodeSet("Q", cfg.Q))
			ctx := context.Background()
			if _, err := qy.Explain(ctx); err != nil { // warm the stats cache
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := qy.Explain(ctx); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	plannerFull := func(forced string) func(b *testing.B) {
		return func(b *testing.B) {
			// Walk-dominated shape: few sources, many targets. The backward
			// family pays one walk per target either way; demanding the full
			// ranking leaves B-IDJ-Y's deepening rounds nothing to prune.
			g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
				Sizes: []int{800, 800, 800}, PIn: 0.008, POut: 0.008, Seed: 3, MinOutLink: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			p := graph.NewNodeSet("P", sets[0].Nodes()[:5])
			q := graph.NewNodeSet("Q", sets[1].Nodes()[:400])
			qy := dhtjoin.NewPairQuery(g, p, q)
			if forced != "" {
				qy = qy.WithHints(dhtjoin.Hints{Algorithm: forced})
			}
			k := p.Len() * q.Len()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := qy.TopKPairs(ctx, k)
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != k {
					b.Fatalf("got %d of %d pairs", len(res), k)
				}
			}
		}
	}
	// The certified fast-kernel trio. FastFBJTop50 is FBJTop50's workload
	// (same graph, sets, and k) through the forced certified backward
	// joiner: the float32 fast kernel scores all |P|·|Q| pairs pull-form
	// and the exact rescore touches only the ε-band around the cut — same
	// ranking as the exact F-BJ baseline at a fraction of the walk cost.
	// (The forward-certified joiner is deliberately NOT the fast path here:
	// per-pair forward sweeps are dense in the fast kernel, which is
	// exactly why the cost model prices F-BJ-fast out and routes the
	// workload backward. Forcing mirrors ForcedBIDJYFullRanking — at this
	// k the unforced planner may still prefer B-IDJ-Y by a hair, and the
	// bench must measure the certified executor, not the tie-breaking.)
	// FastFig7a is the Fig7a Yeast 2-way workload planned at fast accuracy
	// through the public facade. CertifiedFullRanking demands k = |P|·|Q|
	// from the forced certified backward joiner — the degenerate case where
	// every pair is re-verified, pricing the certification protocol's
	// floor.
	fastJoinTop50 := func() func(b *testing.B) {
		return func(b *testing.B) {
			cfg := joinCfg(b)
			qy := dhtjoin.NewPairQuery(cfg.Graph,
				graph.NewNodeSet("P", cfg.P), graph.NewNodeSet("Q", cfg.Q)).
				WithOptions(&dhtjoin.Options{Accuracy: "fast"}).
				WithHints(dhtjoin.Hints{Algorithm: "B-BJ-fast"})
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := qy.TopKPairs(ctx, 50); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	fastFig7a := func() func(b *testing.B) {
		return func(b *testing.B) {
			e := getEnv(b)
			d, err := e.Yeast()
			if err != nil {
				b.Fatal(err)
			}
			bySize := append([]*graph.NodeSet(nil), d.Sets...)
			sort.SliceStable(bySize, func(i, j int) bool { return bySize[i].Len() > bySize[j].Len() })
			p, err := d.TopByDegree(bySize[0].Name, e.Cfg.SetSize)
			if err != nil {
				b.Fatal(err)
			}
			q, err := d.TopByDegree(bySize[1].Name, e.Cfg.SetSize)
			if err != nil {
				b.Fatal(err)
			}
			qy := dhtjoin.NewPairQuery(d.Graph, p, q).
				WithOptions(&dhtjoin.Options{Accuracy: "fast"})
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := qy.TopKPairs(ctx, e.Cfg.K); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// The measure pair: the same served top-50 workload under the two
	// non-default kernels. PPR runs the walk machinery with the reach fold
	// (ServiceJoin2ColdResults is the dht-measure twin); SimRank runs
	// SR-SCAN on a smaller graph — the dense fixed point is resolved by a
	// warm-up query outside the timed region, so the number prices the
	// steady state njoind serves: a heap scan over the cached matrix.
	measureJoinBench := func(measureName string) func(b *testing.B) {
		return func(b *testing.B) {
			var cfg join2.Config
			if measureName == "simrank" {
				g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
					Sizes: []int{250, 250}, PIn: 0.02, POut: 0.01, Directed: true, Seed: 3, MinOutLink: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				cfg = join2.Config{Graph: g, P: sets[0].Nodes()[:100], Q: sets[1].Nodes()[:100]}
			} else {
				cfg = joinCfg(b)
			}
			svc := service.New(service.Config{ResultCacheSize: -1})
			if err := svc.LoadGraph("g", cfg.Graph, nil); err != nil {
				b.Fatal(err)
			}
			p := service.SetRef{IDs: cfg.P}
			q := service.SetRef{IDs: cfg.Q}
			qy := service.Query{MeasureName: measureName}
			ctx := context.Background()
			if _, err := svc.Join2(ctx, "g", p, q, 50, qy); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.Join2(ctx, "g", p, q, 50, qy); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// The cluster scatter bench: the ServiceJoin2 workload through a real
	// 3-node in-process cluster — three services, three loopback RPC
	// listeners, the graph sharded 3 ways with 2 replicas — so the number
	// prices what shard-and-scatter costs over the single-node path
	// (ServiceJoin2ColdResults is the closest apples-to-apples baseline:
	// routed queries bypass the result cache too). Setup (cluster boot,
	// segment shipping) sits outside the timed region; each iteration is a
	// full scatter: open shard streams, τ-bounded merge, drain to 50.
	clusterScatterBench := func() func(b *testing.B) {
		return func(b *testing.B) {
			cfg := joinCfg(b)
			nodes := make([]*cluster.Node, 3)
			svcs := make([]*service.Service, 3)
			for i := range nodes {
				svc := service.New(service.Config{MaxConcurrency: 16})
				nd, err := cluster.Start(cluster.Config{
					Name:    fmt.Sprintf("node-%d", i),
					Bind:    "127.0.0.1:0",
					Service: svc,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer nd.Close()
				svc.SetRouter(nd)
				nodes[i], svcs[i] = nd, svc
			}
			ctx := context.Background()
			addrs := make([]string, len(nodes))
			for i, nd := range nodes {
				addrs[i] = nd.Self().Addr
			}
			for _, nd := range nodes {
				if err := nd.Join(ctx, addrs); err != nil {
					b.Fatal(err)
				}
			}
			// Placement is deterministic in (node names, graph name):
			// "zipf" is a name whose parts land on peers of node-0, so the
			// timed queries really scatter instead of collapsing to the
			// local path.
			if err := svcs[0].LoadGraph("zipf", cfg.Graph, nil); err != nil {
				b.Fatal(err)
			}
			if err := nodes[0].PlaceGraph(ctx, "zipf", 3, 2); err != nil {
				b.Fatal(err)
			}
			// Stride P and Q across the whole node range: the partitioner
			// splits the ID space into contiguous ranges, and a P set
			// concentrated in one community would leave the other parts
			// empty (nothing to scatter). Same |P|, |Q|, and k as the
			// ServiceJoin2 benches.
			nn := cfg.Graph.NumNodes()
			pids := make([]graph.NodeID, 100)
			qids := make([]graph.NodeID, 100)
			for i := range pids {
				pids[i] = graph.NodeID(i * nn / 100)
				qids[i] = graph.NodeID((i*nn/100 + nn/200) % nn)
			}
			p := service.SetRef{IDs: pids}
			q := service.SetRef{IDs: qids}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svcs[0].Join2(ctx, "zipf", p, q, 50, service.Query{}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if rs := nodes[0].RouterStats(); rs.ScatterQueries == 0 {
				b.Fatal("cluster bench never scattered: placement kept every part local")
			}
		}
	}
	// EditBatch20 prices the edge-update ack's graph step: one 20-arc batch
	// merged by graph.ApplyEdits into a 2400-node graph with 8 random
	// out-arcs per node, the shape of the serving benchmark's edit workload.
	// Every iteration edits the same base graph, so the size stays fixed.
	editBatch := func() func(b *testing.B) {
		return func(b *testing.B) {
			const n, deg = 2400, 8
			r := rand.New(rand.NewSource(1))
			gb := graph.NewBuilder(n, true)
			for u := 0; u < n; u++ {
				for i := 0; i < deg; i++ {
					gb.AddEdge(graph.NodeID(u), graph.NodeID(r.Intn(n)), float64(1+r.Intn(3)))
				}
			}
			g := gb.Build()
			adds := make([]graph.Edge, 20)
			for i := range adds {
				adds[i] = graph.Edge{U: graph.NodeID(r.Intn(n)), V: graph.NodeID(r.Intn(n)), W: float64(1 + r.Intn(3))}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := graph.ApplyEdits(g, adds, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return []spec{
		{"Fig9a2WayAlgos", expBench("fig9a")},
		{"Fig7aYeastVsN", expBench("fig7a")},
		{"Fig10bPruning", expBench("fig10b")},
		{"BBJTop50", joinBench(func(c join2.Config) (join2.Joiner, error) { return join2.NewBBJ(c) }, 50)},
		{"BIDJXTop50", joinBench(func(c join2.Config) (join2.Joiner, error) { return join2.NewBIDJX(c) }, 50)},
		{"BIDJYTop50", joinBench(func(c join2.Config) (join2.Joiner, error) { return join2.NewBIDJY(c) }, 50)},
		{"FBJTop50", joinBench(func(c join2.Config) (join2.Joiner, error) { return join2.NewFBJ(c) }, 50)},
		{"BackWalkSolo", kernelBench(1, 8)},
		{"BatchBackWalkW8", kernelBench(8, 8)},
		{"StreamFirstResult", streamBench(1, 1)},
		{"StreamTop50", streamBench(1, 50)},
		{"ServiceStreamFirstResult", serviceStreamBench()},
		{"ServiceJoin2Repeat", serviceBench(&service.Config{})},
		{"ServiceJoin2ColdResults", serviceBench(&service.Config{ResultCacheSize: -1})},
		{"OneShotJoin2Repeat", serviceBench(nil)},
		{"PlanOverhead", planBench()},
		{"PlannerFullRanking", plannerFull("")},
		{"ForcedBIDJYFullRanking", plannerFull("B-IDJ-Y")},
		{"FastFBJTop50", fastJoinTop50()},
		{"FastFig7a", fastFig7a()},
		{"CertifiedFullRanking", plannerFull("B-BJ-fast")},
		{"PPRJoinTop50", measureJoinBench("ppr")},
		{"SimRankJoinTop50", measureJoinBench("simrank")},
		{"ClusterScatterTop50", clusterScatterBench()},
		{"EditBatch20", editBatch()},
	}
}

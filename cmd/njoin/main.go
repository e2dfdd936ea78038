// Command njoin evaluates top-k multi-way joins over DHT on a graph file.
//
// The graph file (text format, see internal/graph) must declare the node
// sets referenced by -sets. The query shape is chain, triangle, star, or
// clique over those sets, in the order given.
//
// Usage:
//
//	gengraph -kind yeast -o yeast.graph
//	njoin -graph yeast.graph -sets 3-U,8-D -k 10                  # 2-way
//	njoin -graph yeast.graph -sets 3-U,5-F,8-D -shape triangle -k 5
//	njoin -graph yeast.graph -sets 3-U,5-F,8-D -agg SUM -algo pj -m 100
//	njoin -graph yeast.graph -sets 3-U,8-D -k 10 -explain         # plan only
//	njoin -graph yeast.graph -sets 3-U,5-F,8-D -measure simrank -k 5
//	njoin -graph yeast.graph -sets 3-U,8-D -measure ppr -lambda 0.15
//
// The query runs through the public dhtjoin API (dhtjoin.TopK), so its
// answers are exactly the library's. By default (-algo auto) the
// cost-based planner picks the evaluation algorithm from the graph's
// structural stats and the query shape; -explain prints the chosen plan and
// the per-candidate cost table without running the join. -measure selects
// a scoring measure from the registry (internal/measure): walk measures
// reuse the DHT executors with the kernel's walk kind, while matrix
// measures such as simrank plan onto their dedicated executors (SR-AP).
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/dhtjoin"
	"repro/internal/rankjoin"
)

// config holds the parsed command line.
type config struct {
	graphPath, setNames, shape string
	k, m, limit                int
	algo, accuracy, aggName    string
	measure                    string
	lambda, eps                float64
	lambdaSet, dhte            bool
	explain, quiet             bool
}

// flags registers njoin's flags on a new flag set writing into c.
func flags(c *config, handling flag.ErrorHandling) *flag.FlagSet {
	fs := flag.NewFlagSet("njoin", handling)
	fs.StringVar(&c.graphPath, "graph", "", "graph file in text format (required)")
	fs.StringVar(&c.setNames, "sets", "", "comma-separated node set names, in query order (required)")
	fs.StringVar(&c.shape, "shape", "chain", "chain | triangle | star | clique")
	fs.IntVar(&c.k, "k", 50, "number of answers")
	fs.IntVar(&c.m, "m", 50, "per-edge 2-way join budget (PJ/PJ-i)")
	fs.StringVar(&c.algo, "algo", "auto", "auto (cost-based planner) | nl | ap | pj | pji")
	fs.StringVar(&c.accuracy, "accuracy", "exact", "planner kernel contract: exact | fast (certified fast kernel; identical answers)")
	fs.BoolVar(&c.explain, "explain", false, "print the chosen plan and cost table without running the join")
	fs.StringVar(&c.aggName, "agg", "MIN", "aggregate: SUM | MIN | MAX | AVG")
	fs.StringVar(&c.measure, "measure", "", "scoring measure from the registry: dht | reach | ppr | simrank (default \"dht\")")
	fs.Float64Var(&c.lambda, "lambda", 0.2, "DHTλ decay factor under -measure dht or reach; the PPR damping factor under -measure ppr "+
		"(unset, ppr uses its registered default 0.5); ignored by simrank")
	fs.BoolVar(&c.dhte, "dhte", false, "use the DHTe parameterization instead of DHTλ (overrides -lambda)")
	fs.Float64Var(&c.eps, "eps", 1e-6, "truncation accuracy target (Lemma 1)")
	fs.IntVar(&c.limit, "limit", 0, "trim each node set to its first N members (0 = all)")
	fs.BoolVar(&c.quiet, "q", false, "print answers only, no timing")
	return fs
}

func main() {
	var c config
	fs := flags(&c, flag.ExitOnError)
	fs.Parse(os.Args[1:])
	c.lambdaSet = isSet(fs, "lambda")
	if err := run(c, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "njoin:", err)
		os.Exit(1)
	}
}

// isSet reports whether the named flag was given on the command line.
func isSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func run(c config, stdout, stderr io.Writer) error {
	if c.graphPath == "" || c.setNames == "" {
		return fmt.Errorf("-graph and -sets are required (see -h)")
	}
	f, err := os.Open(c.graphPath)
	if err != nil {
		return err
	}
	defer f.Close()
	g, sets, err := dhtjoin.LoadText(f)
	if err != nil {
		return err
	}
	byName := make(map[string]*dhtjoin.NodeSet, len(sets))
	for _, s := range sets {
		byName[s.Name] = s
	}
	var chosen []*dhtjoin.NodeSet
	for _, name := range strings.Split(c.setNames, ",") {
		s, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return fmt.Errorf("graph file declares no node set %q (has: %s)", name, names(sets))
		}
		if c.limit > 0 {
			s = s.Take(c.limit)
		}
		chosen = append(chosen, s)
	}

	var qg *dhtjoin.QueryGraph
	switch c.shape {
	case "chain":
		qg = dhtjoin.Chain(chosen...)
	case "triangle":
		if len(chosen) != 3 {
			return fmt.Errorf("triangle needs exactly 3 sets, got %d", len(chosen))
		}
		qg = dhtjoin.Triangle(chosen[0], chosen[1], chosen[2])
	case "star":
		qg = dhtjoin.Star(chosen[0], chosen[1:]...)
	case "clique":
		qg = dhtjoin.Clique(chosen...)
	default:
		return fmt.Errorf("unknown shape %q", c.shape)
	}

	agg, err := rankjoin.ByName(c.aggName)
	if err != nil {
		return err
	}
	// Zero params leave the defaults to the library, which resolves them
	// through the measure registry.
	opts := &dhtjoin.Options{Epsilon: c.eps, Agg: agg, M: c.m, MeasureName: c.measure, Accuracy: c.accuracy}
	switch {
	case c.dhte:
		opts.Params = dhtjoin.DHTE()
	case c.lambdaSet && c.measure == "ppr":
		opts.Params = dhtjoin.PPR(c.lambda)
	case c.lambdaSet:
		opts.Params = dhtjoin.DHTLambda(c.lambda)
	}

	// Map the -algo flag to a registered executor name ("" = planner).
	forced := map[string]string{"auto": "", "nl": "NL", "ap": "AP", "pj": "PJ", "pji": "PJ-i"}
	name, ok := forced[c.algo]
	if !ok {
		return fmt.Errorf("unknown algorithm %q (want auto, nl, ap, pj, or pji)", c.algo)
	}
	query := dhtjoin.NewJoinQuery(g, qg).WithOptions(opts).WithHints(dhtjoin.Hints{Algorithm: name})

	ctx := context.Background()
	pl, err := query.ExplainTopK(ctx, c.k)
	if err != nil {
		return err
	}
	if c.explain {
		fmt.Fprint(stdout, pl.Format())
		return nil
	}
	start := time.Now()
	answers, err := query.TopK(ctx, c.k)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	for i, a := range answers {
		fmt.Fprintf(stdout, "%3d  %s\n", i+1, a.Format(g))
	}
	if !c.quiet {
		fmt.Fprintf(stderr, "%s: %d answers in %v (d=%d, measure=%s)\n",
			pl.Algorithm, len(answers), elapsed, pl.Workload.D, cmp.Or(c.measure, "dht"))
	}
	return nil
}

func names(sets []*dhtjoin.NodeSet) string {
	out := make([]string, len(sets))
	for i, s := range sets {
		out[i] = s.Name
	}
	return strings.Join(out, ", ")
}

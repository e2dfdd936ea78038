package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/dhtjoin"
	"repro/internal/graph"
)

// writeGraph writes a small three-community graph to a temp file and
// returns its path along with the graph and sets as njoin will read them.
func writeGraph(t *testing.T) (string, *dhtjoin.Graph, []*dhtjoin.NodeSet) {
	t.Helper()
	g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{12, 12, 12}, PIn: 0.3, POut: 0.08, Seed: 7, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteText(f, g, sets...); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	rg, rsets, err := dhtjoin.LoadText(rf)
	if err != nil {
		t.Fatal(err)
	}
	return path, rg, rsets
}

// runArgs parses args exactly as main does and runs njoin, returning stdout.
func runArgs(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var c config
	fs := flags(&c, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	c.lambdaSet = isSet(fs, "lambda")
	var out bytes.Buffer
	err := run(c, &out, io.Discard)
	return out.String(), err
}

func queryFor(t *testing.T, shape string, sets []*dhtjoin.NodeSet) *dhtjoin.QueryGraph {
	t.Helper()
	switch shape {
	case "chain":
		return dhtjoin.Chain(sets...)
	case "triangle":
		return dhtjoin.Triangle(sets[0], sets[1], sets[2])
	}
	t.Fatalf("no query for shape %q", shape)
	return nil
}

// TestNjoinMatchesTopK: under every registered measure at default flags,
// the answers njoin prints are exactly dhtjoin.TopK's.
func TestNjoinMatchesTopK(t *testing.T) {
	path, g, sets := writeGraph(t)
	const k = 6
	for _, shape := range []string{"chain", "triangle"} {
		for _, m := range dhtjoin.Measures() {
			got, err := runArgs(t, "-graph", path, "-sets", "C0,C1,C2", "-shape", shape, "-k", fmt.Sprint(k), "-measure", m, "-q")
			if err != nil {
				t.Fatalf("%s/%s: %v", shape, m, err)
			}
			answers, err := dhtjoin.TopK(g, queryFor(t, shape, sets), k, &dhtjoin.Options{MeasureName: m})
			if err != nil {
				t.Fatal(err)
			}
			var want strings.Builder
			for i, a := range answers {
				fmt.Fprintf(&want, "%3d  %s\n", i+1, a.Format(g))
			}
			if got != want.String() {
				t.Fatalf("%s/%s: njoin printed\n%s\nwant dhtjoin.TopK\n%s", shape, m, got, want.String())
			}
		}
	}
}

// TestNjoinExplainIsExplainTopK: -explain prints the facade's plan for the
// same query and demand.
func TestNjoinExplainIsExplainTopK(t *testing.T) {
	path, g, sets := writeGraph(t)
	got, err := runArgs(t, "-graph", path, "-sets", "C0,C1,C2", "-k", "5", "-explain")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := dhtjoin.NewJoinQuery(g, dhtjoin.Chain(sets...)).ExplainTopK(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != pl.Format() {
		t.Fatalf("-explain printed\n%s\nwant ExplainTopK(5).Format()\n%s", got, pl.Format())
	}
}

// TestNjoinUnknownSetListsDeclared: a misspelled set name fails with the
// declared names, so the user can correct it.
func TestNjoinUnknownSetListsDeclared(t *testing.T) {
	path, _, _ := writeGraph(t)
	_, err := runArgs(t, "-graph", path, "-sets", "C0,c1")
	if err == nil {
		t.Fatal("unknown set name accepted")
	}
	for _, name := range []string{`"c1"`, "C0, C1, C2"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not mention %s", err, name)
		}
	}
}

// TestNjoinLambdaHelpNamesMeasures: the -lambda help states how the flag
// interacts with -measure.
func TestNjoinLambdaHelpNamesMeasures(t *testing.T) {
	var c config
	usage := flags(&c, flag.ContinueOnError).Lookup("lambda").Usage
	for _, m := range []string{"dht", "ppr", "simrank"} {
		if !strings.Contains(usage, m) {
			t.Fatalf("-lambda help %q does not say how it applies under -measure %s", usage, m)
		}
	}
}

package graph

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestTextRoundTrip(t *testing.T) {
	b := NewBuilder(4, true)
	b.AddEdge(0, 1, 1.5)
	b.AddEdge(1, 2, 2)
	b.AddEdge(2, 3, 0.25)
	b.SetLabel(0, "node zero")
	g := b.Build()
	sets := []*NodeSet{NewNodeSet("P", []NodeID{0, 1}), NewNodeSet("Q", []NodeID{2, 3})}

	var buf bytes.Buffer
	if err := WriteText(&buf, g, sets...); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	g2, sets2, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	assertGraphEqual(t, g, g2)
	if len(sets2) != 2 || sets2[0].Name != "P" || sets2[1].Len() != 2 {
		t.Fatalf("sets round trip wrong: %v", sets2)
	}
	if g2.Label(0) != "node zero" {
		t.Fatalf("label lost: %q", g2.Label(0))
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g, sets, err := GenerateCommunity(CommunityConfig{
		Sizes: []int{20, 30}, PIn: 0.3, POut: 0.05, Seed: 7, MaxWeight: 4,
	})
	if err != nil {
		t.Fatalf("GenerateCommunity: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g, sets...); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	g2, sets2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	assertGraphEqual(t, g, g2)
	if len(sets2) != 2 || sets2[0].Len() != 20 || sets2[1].Len() != 30 {
		t.Fatalf("sets wrong after binary round trip")
	}
}

func assertGraphEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape mismatch: (%d,%d) vs (%d,%d)", a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	for u := 0; u < a.NumNodes(); u++ {
		at, aw, ap := a.OutEdges(NodeID(u))
		bt, bw, bp := b.OutEdges(NodeID(u))
		if len(at) != len(bt) {
			t.Fatalf("node %d degree mismatch", u)
		}
		for j := range at {
			if at[j] != bt[j] || aw[j] != bw[j] || ap[j] != bp[j] {
				t.Fatalf("node %d edge %d mismatch", u, j)
			}
		}
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := map[string]string{
		"no header":        "edge 0 1 1\n",
		"bad count":        "graph x\n",
		"dup header":       "graph 2\ngraph 2\n",
		"edge fields":      "graph 2\nedge 0 1\n",
		"edge range":       "graph 2\nedge 0 5 1\n",
		"edge weight":      "graph 2\nedge 0 1 -2\n",
		"edge zero weight": "graph 2\nedge 0 1 0\n",
		"bad directive":    "graph 2\nfoo\n",
		"node range":       "graph 2\nnode 7 hi\n",
		"node fields":      "graph 2\nnode 0\n",
		"nodeset member":   "graph 2\nnodeset S 9\n",
		"nodeset name":     "graph 2\nnodeset\n",
		"empty":            "",
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) {
			if _, _, err := ReadText(strings.NewReader(input)); err == nil {
				t.Fatalf("input %q accepted", input)
			}
		})
	}
}

func TestReadTextSkipsCommentsAndBlank(t *testing.T) {
	in := "# hello\n\ngraph 2 undirected\n# mid comment\nedge 0 1 1\n"
	g, _, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2 (undirected)", g.NumEdges())
	}
}

func TestReadBinaryGarbage(t *testing.T) {
	if _, _, err := ReadBinary(strings.NewReader("not a gob stream")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestTextRoundTripProperty: any small random graph must survive a text
// round trip bit-exactly in structure.
func TestTextRoundTripProperty(t *testing.T) {
	f := func(seed int64, rawN uint8, rawP uint8) bool {
		n := 2 + int(rawN)%20
		p := 0.05 + float64(rawP%90)/100
		g, err := GenerateER(n, p, seed)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, g); err != nil {
			return false
		}
		g2, _, err := ReadText(&buf)
		if err != nil {
			return false
		}
		if g.NumNodes() != g2.NumNodes() || g.NumEdges() != g2.NumEdges() {
			return false
		}
		for u := 0; u < g.NumNodes(); u++ {
			at, aw, _ := g.OutEdges(NodeID(u))
			bt, bw, _ := g2.OutEdges(NodeID(u))
			if len(at) != len(bt) {
				return false
			}
			for j := range at {
				if at[j] != bt[j] || aw[j] != bw[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestReadTextRejectsHugeNodeCount pins the header cap: a one-line input
// must not size the graph past maxTextNodes.
func TestReadTextRejectsHugeNodeCount(t *testing.T) {
	for _, in := range []string{"graph 200000000\n", "graph 99999999999999999\n"} {
		if _, _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("ReadText(%q) accepted", in)
		}
	}
}

package graph

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text format is line oriented:
//
//	# comment
//	graph <nodes> <directed|undirected>
//	node <id> <label...>            (optional)
//	edge <u> <v> <weight>
//	nodeset <name> <id> <id> ...    (optional, may repeat a name to extend it)
//
// It is intended for small fixtures and interchange; use WriteBinary for bulk.
// The header's node count is capped at maxTextNodes: the graph allocates
// per-node arrays up front, so an uncapped count would let a one-line input
// demand gigabytes.
const maxTextNodes = 1 << 24

// WriteText serializes g (and optional node sets) in the text format.
func WriteText(w io.Writer, g *Graph, sets ...*NodeSet) error {
	bw := bufio.NewWriter(w)
	dir := "directed"
	fmt.Fprintf(bw, "graph %d %s\n", g.NumNodes(), dir)
	if g.Labeled() {
		for u := 0; u < g.NumNodes(); u++ {
			if l := g.Label(NodeID(u)); l != "" {
				fmt.Fprintf(bw, "node %d %s\n", u, l)
			}
		}
	}
	for u := 0; u < g.NumNodes(); u++ {
		to, wts, _ := g.OutEdges(NodeID(u))
		for j := range to {
			fmt.Fprintf(bw, "edge %d %d %g\n", u, to[j], wts[j])
		}
	}
	for _, s := range sets {
		var sb strings.Builder
		sb.WriteString("nodeset ")
		sb.WriteString(s.Name)
		for _, id := range s.Nodes() {
			sb.WriteByte(' ')
			sb.WriteString(strconv.Itoa(int(id)))
		}
		sb.WriteByte('\n')
		if _, err := bw.WriteString(sb.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text format, returning the graph and any node sets in
// declaration order.
func ReadText(r io.Reader) (*Graph, []*NodeSet, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var b *Builder
	setIDs := make(map[string][]NodeID)
	var setOrder []string
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "graph":
			if b != nil {
				return nil, nil, fmt.Errorf("graph text line %d: duplicate graph header", lineNo)
			}
			if len(fields) < 2 {
				return nil, nil, fmt.Errorf("graph text line %d: graph header needs a node count", lineNo)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, nil, fmt.Errorf("graph text line %d: bad node count %q", lineNo, fields[1])
			}
			if n > maxTextNodes {
				return nil, nil, fmt.Errorf("graph text line %d: node count %d exceeds the text format's limit of %d", lineNo, n, maxTextNodes)
			}
			directed := true
			if len(fields) >= 3 && fields[2] == "undirected" {
				directed = false
			}
			b = NewBuilder(n, directed)
		case "node":
			if b == nil {
				return nil, nil, fmt.Errorf("graph text line %d: node before graph header", lineNo)
			}
			if len(fields) < 3 {
				return nil, nil, fmt.Errorf("graph text line %d: node needs id and label", lineNo)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id < 0 || id >= b.NumNodes() {
				return nil, nil, fmt.Errorf("graph text line %d: bad node id %q", lineNo, fields[1])
			}
			b.SetLabel(NodeID(id), strings.Join(fields[2:], " "))
		case "edge":
			if b == nil {
				return nil, nil, fmt.Errorf("graph text line %d: edge before graph header", lineNo)
			}
			if len(fields) != 4 {
				return nil, nil, fmt.Errorf("graph text line %d: edge needs u v w", lineNo)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			w, err3 := strconv.ParseFloat(fields[3], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, nil, fmt.Errorf("graph text line %d: malformed edge %q", lineNo, line)
			}
			if u < 0 || u >= b.NumNodes() || v < 0 || v >= b.NumNodes() {
				return nil, nil, fmt.Errorf("graph text line %d: edge (%d,%d) out of range", lineNo, u, v)
			}
			if w <= 0 {
				return nil, nil, fmt.Errorf("graph text line %d: edge weight must be positive, got %g", lineNo, w)
			}
			b.AddEdge(NodeID(u), NodeID(v), w)
		case "nodeset":
			if b == nil {
				return nil, nil, fmt.Errorf("graph text line %d: nodeset before graph header", lineNo)
			}
			if len(fields) < 2 {
				return nil, nil, fmt.Errorf("graph text line %d: nodeset needs a name", lineNo)
			}
			name := fields[1]
			if _, seen := setIDs[name]; !seen {
				setOrder = append(setOrder, name)
			}
			for _, f := range fields[2:] {
				id, err := strconv.Atoi(f)
				if err != nil || id < 0 || id >= b.NumNodes() {
					return nil, nil, fmt.Errorf("graph text line %d: bad nodeset member %q", lineNo, f)
				}
				setIDs[name] = append(setIDs[name], NodeID(id))
			}
		default:
			return nil, nil, fmt.Errorf("graph text line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if b == nil {
		return nil, nil, fmt.Errorf("graph text: missing graph header")
	}
	g := b.Build()
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	sets := make([]*NodeSet, 0, len(setOrder))
	for _, name := range setOrder {
		sets = append(sets, NewNodeSet(name, setIDs[name]))
	}
	return g, sets, nil
}

// binaryFile is the gob payload for WriteBinary/ReadBinary.
type binaryFile struct {
	N        int
	OutIndex []int64
	OutTo    []NodeID
	OutW     []float64
	Labels   []string
	SetName  []string
	SetIDs   [][]NodeID
}

// WriteBinary serializes g and node sets with encoding/gob. Only the out-CSR
// and weights are stored; probabilities and in-adjacency are rebuilt on load.
func WriteBinary(w io.Writer, g *Graph, sets ...*NodeSet) error {
	f := binaryFile{
		N:        g.n,
		OutIndex: g.outIndex,
		OutTo:    g.outTo,
		OutW:     g.outW,
		Labels:   g.labels,
	}
	for _, s := range sets {
		f.SetName = append(f.SetName, s.Name)
		f.SetIDs = append(f.SetIDs, s.Nodes())
	}
	return gob.NewEncoder(w).Encode(&f)
}

// ReadBinary loads a graph written by WriteBinary.
func ReadBinary(r io.Reader) (*Graph, []*NodeSet, error) {
	var f binaryFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, nil, err
	}
	b := NewBuilder(f.N, true)
	for u := 0; u < f.N; u++ {
		if int(f.OutIndex[u+1]) > len(f.OutTo) || f.OutIndex[u] > f.OutIndex[u+1] {
			return nil, nil, fmt.Errorf("graph binary: corrupt CSR index at node %d", u)
		}
		for j := f.OutIndex[u]; j < f.OutIndex[u+1]; j++ {
			b.AddEdge(NodeID(u), f.OutTo[j], f.OutW[j])
		}
	}
	for u, l := range f.Labels {
		if l != "" {
			b.SetLabel(NodeID(u), l)
		}
	}
	g := b.Build()
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	var sets []*NodeSet
	for i, name := range f.SetName {
		sets = append(sets, NewNodeSet(name, f.SetIDs[i]))
	}
	return g, sets, nil
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
)

var smallSpec = graphSpec{Nodes: 400, Communities: 4, Degree: 6, Cross: 0.1}

func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// streamDigest hashes the first n request bodies of every workload, plus
// the edit batches, generated from seed.
func streamDigest(g *genGraph, seed int64, n int) string {
	var bodies [][]byte
	for i := range workloads {
		reads := workloads[i].reads(g, seed)
		for id := 0; id < n; id++ {
			r := reads(id)
			bodies = append(bodies, []byte(r.Path), r.Body)
		}
	}
	for _, e := range editBatches(g, seed, n) {
		bodies = append(bodies, e.Body)
	}
	return digest(bodies...)
}

// TestGeneratorPinned pins the generated graph file and request stream
// byte for byte: a change here changes every workload's inputs, which
// makes results incomparable with earlier runs.
func TestGeneratorPinned(t *testing.T) {
	g := generateGraph(smallSpec, 1)
	if got, want := digest(g.text), "8e825337949efe26"; got != want {
		t.Errorf("graph digest = %s, want %s", got, want)
	}
	if got, want := streamDigest(g, 1, 40), "fa4eda71371530f5"; got != want {
		t.Errorf("request stream digest = %s, want %s", got, want)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 2, 99} {
		a, b := generateGraph(smallSpec, seed), generateGraph(smallSpec, seed)
		if !bytes.Equal(a.text, b.text) {
			t.Fatalf("seed %d: graph files differ", seed)
		}
		if streamDigest(a, seed, 30) != streamDigest(b, seed, 30) {
			t.Fatalf("seed %d: request streams differ", seed)
		}
	}
	if bytes.Equal(generateGraph(smallSpec, 1).text, generateGraph(smallSpec, 2).text) {
		t.Fatal("seeds 1 and 2 generated the same graph")
	}
}

// TestEditBatchesAreNew checks the property the end-state check relies on:
// every edit arc is absent from the graph and from every earlier batch.
func TestEditBatchesAreNew(t *testing.T) {
	g := generateGraph(smallSpec, 3)
	seen := map[arc]bool{}
	for _, b := range editBatches(g, 3, 50) {
		if len(b.Adds) != 20 {
			t.Fatalf("batch %d has %d arcs, want 20", b.ID, len(b.Adds))
		}
		for _, e := range b.Adds {
			a := arc{e.U, e.V}
			if e.U == e.V || g.arcs[a] || seen[a] {
				t.Fatalf("batch %d repeats or loops arc %v", b.ID, a)
			}
			seen[a] = true
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {25, 1.75}, {50, 2.5}, {90, 3.7}, {100, 4}} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 0}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestZipf(t *testing.T) {
	z := newZipf(48, 1.1)
	if z.draw(0) != 0 || z.draw(math.Nextafter(1, 0)) != 47 {
		t.Fatal("zipf endpoints map outside [0, 47]")
	}
	const n = 200000
	counts := make([]int, 48)
	for i := 0; i < n; i++ {
		counts[z.draw((float64(i)+0.5)/n)]++
	}
	h := 0.0
	for i := 1; i <= 48; i++ {
		h += math.Pow(float64(i), -1.1)
	}
	for _, r := range []int{0, 1, 9, 47} {
		want := math.Pow(float64(r+1), -1.1) / h
		if got := float64(counts[r]) / n; math.Abs(got-want) > 1e-3 {
			t.Errorf("rank %d share = %.4f, want %.4f", r, got, want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code in step: the
// workloads and the metrics each kind of run prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[i] = x.Name
		}
		return out
	}
	var wl []string
	for _, w := range workloads {
		wl = append(wl, w.name)
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", names(spec.Workloads), wl},
		{"end_to_end", names(spec.EndToEnd), endToEnd},
		{"per_layer", names(spec.PerLayer), perLayer},
	} {
		if fmt.Sprint(c.got) != fmt.Sprint(c.want) {
			t.Errorf("BENCHMARK.json %s = %v, code reports %v", c.what, c.got, c.want)
		}
	}
}

package dhtjoin

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestConcurrentOptionsJoins drives Options-level joins — with Relabel on,
// so each one-shot call relabels the shared graph — from many goroutines against
// one shared graph, and the Service facade alongside them, so the shared
// engine pool and the concurrency-safe score memo see the same traffic.
// Run under -race in CI; every response is checked against the serial
// reference, so scheduling can corrupt neither the caches nor the results.
func TestConcurrentOptionsJoins(t *testing.T) {
	g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{40, 40, 30}, PIn: 0.15, POut: 0.05, Seed: 17, MaxWeight: 3, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, q, r := sets[0], sets[1], sets[2]
	query := Chain(p, q, r)

	// Serial references: plain and relabeled (relabeling reorders the
	// per-row fp summation, so the relabeled runs get their own reference,
	// computed serially with the same Options).
	wantPairs, err := TopKPairs(g, p, q, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantPairsRel, err := TopKPairs(g, p, q, 10, &Options{Relabel: RelabelDegree})
	if err != nil {
		t.Fatal(err)
	}
	wantAnswers, err := TopK(g, query, 6, &Options{Relabel: RelabelBFS})
	if err != nil {
		t.Fatal(err)
	}

	svc := NewService(ServiceConfig{MaxConcurrency: 4})
	if err := svc.LoadGraph("g", g, p, q, r); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 10; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				switch (w + i) % 4 {
				case 0: // one-shot, relabeled per call
					got, err := TopKPairs(g, p, q, 10, &Options{Relabel: RelabelDegree, Workers: 2})
					if err != nil {
						errs <- err
						return
					}
					if !pairsEqual(got, wantPairsRel) {
						errs <- fmt.Errorf("w%d i%d: relabeled TopKPairs diverged", w, i)
						return
					}
				case 1: // one-shot n-way, second relabel mode in the cache
					got, err := TopK(g, query, 6, &Options{Relabel: RelabelBFS})
					if err != nil {
						errs <- err
						return
					}
					if !answersEqual(got, wantAnswers) {
						errs <- fmt.Errorf("w%d i%d: relabeled TopK diverged", w, i)
						return
					}
				case 2: // service facade: shared pool + memo + result LRU
					got, err := svc.TopKPairs(context.Background(), "g", p, q, 10, nil)
					if err != nil {
						errs <- err
						return
					}
					if !pairsEqual(got, wantPairs) {
						errs <- fmt.Errorf("w%d i%d: service TopKPairs diverged", w, i)
						return
					}
				default: // service n-way with relabel
					got, err := svc.TopK(context.Background(), "g", query, 6, &Options{Relabel: RelabelBFS, Workers: 2})
					if err != nil {
						errs <- err
						return
					}
					if !answersEqual(got, wantAnswers) {
						errs <- fmt.Errorf("w%d i%d: service TopK diverged", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := svc.Stats()
	if st.ResultHits == 0 {
		t.Fatal("service saw no result-cache hits under repeated identical queries")
	}
}

func pairsEqual(a, b []PairResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func answersEqual(a, b []Answer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Score != b[i].Score || len(a[i].Nodes) != len(b[i].Nodes) {
			return false
		}
		for j := range a[i].Nodes {
			if a[i].Nodes[j] != b[i].Nodes[j] {
				return false
			}
		}
	}
	return true
}

// TestServiceFacadeBitIdentical pins the facade contract outside of
// concurrency: served results equal the one-shot calls for the same Options,
// including non-default parameters.
func TestServiceFacadeBitIdentical(t *testing.T) {
	g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{30, 30}, PIn: 0.2, POut: 0.08, Seed: 5, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, q := sets[0], sets[1]
	svc := NewService(ServiceConfig{})
	if err := svc.LoadGraph("g", g, p, q); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []*Options{
		nil,
		{D: 5},
		{Params: DHTLambda(0.5), Epsilon: 1e-4},
		{Measure: MeasureReach, Params: PPR(0.2)},
		{Agg: Sum, M: 20},
	} {
		want, err := TopKPairs(g, p, q, 8, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := svc.TopKPairs(context.Background(), "g", p, q, 8, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !pairsEqual(got, want) {
			t.Fatalf("opts %+v: facade diverged from one-shot", opts)
		}
		wantN, err := TopK(g, Chain(p, q), 5, opts)
		if err != nil {
			t.Fatal(err)
		}
		gotN, err := svc.TopK(context.Background(), "g", Chain(p, q), 5, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !answersEqual(gotN, wantN) {
			t.Fatalf("opts %+v: facade n-way diverged from one-shot", opts)
		}
		u, v := p.Nodes()[0], q.Nodes()[0]
		wantS, err := Score(g, u, v, opts)
		if err != nil {
			t.Fatal(err)
		}
		gotS, err := svc.Score(context.Background(), "g", u, v, opts)
		if err != nil {
			t.Fatal(err)
		}
		if gotS != wantS {
			t.Fatalf("opts %+v: facade Score %v != %v", opts, gotS, wantS)
		}
	}
}

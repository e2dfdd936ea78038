package exec

import (
	"errors"
	"testing"

	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/measure"
	"repro/internal/plan"
	"repro/internal/rankjoin"
)

// TestResolveDefaults pins the paper's defaults and the measure-first
// parameter resolution.
func TestResolveDefaults(t *testing.T) {
	r, err := Resolve(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Params != dht.DHTLambda(0.2) || r.D != dht.DHTLambda(0.2).StepsForEpsilon(1e-6) ||
		r.Agg != rankjoin.Min || r.M != 50 || r.MeasureName != "dht" || r.Acc != plan.Exact {
		t.Fatalf("zero query resolved to %+v", r.Query)
	}
	ppr, err := Resolve(Query{MeasureName: "ppr"})
	if err != nil {
		t.Fatal(err)
	}
	if ppr.Params != dht.PPR(0.5) || ppr.Measure != dht.Reach {
		t.Fatalf("ppr resolved to params %v kind %v", ppr.Params, ppr.Measure)
	}
}

// TestResolveRejects: every malformed option fails the one resolve.
func TestResolveRejects(t *testing.T) {
	for _, q := range []Query{
		{MeasureName: "nope"},
		{Params: dht.Params{Alpha: 1, Lambda: 2}},
		{D: -1},
		{M: -1},
		{Accuracy: "bogus"},
		{Relabel: graph.RelabelMode(7)},
	} {
		if _, err := Resolve(q); err == nil {
			t.Fatalf("Resolve accepted %+v", q)
		}
	}
	if _, err := Resolve(Query{MeasureName: "nope"}); !errors.Is(err, measure.ErrUnknownMeasure) {
		t.Fatalf("unknown measure error %v is not ErrUnknownMeasure", err)
	}
	r, err := Resolve(Query{Algorithm: "PJ-i"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Forced(plan.TwoWay); !errors.Is(err, plan.ErrWrongClass) {
		t.Fatalf("n-way executor forced on a 2-way query: %v", err)
	}
	if err := r.Forced(plan.NWay); err != nil {
		t.Fatal(err)
	}
}

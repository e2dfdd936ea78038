package dhtjoin

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/service"
)

// TestToQueryCarriesEveryOption: every Options field, set to a non-zero
// value, reaches the query the serving layer resolves. A field toQuery drops
// would make Service silently ignore an option the one-shot calls honor.
func TestToQueryCarriesEveryOption(t *testing.T) {
	o := Options{
		Params:      DHTLambda(0.4),
		Epsilon:     1e-3,
		D:           6,
		Agg:         Sum,
		M:           7,
		Distinct:    true,
		Measure:     MeasureReach,
		MeasureName: "ppr",
		Workers:     3,
		BatchWidth:  4,
		Relabel:     RelabelBFS,
		Budget:      time.Second,
		Tenant:      "t",
		LowPriority: true,
		Accuracy:    "fast",
	}
	// Every field of Options must be set above, so a newly added option
	// cannot slip past this test.
	ov := reflect.ValueOf(o)
	for i := 0; i < ov.NumField(); i++ {
		if ov.Field(i).IsZero() {
			t.Fatalf("test sets no value for Options.%s", ov.Type().Field(i).Name)
		}
	}
	var q service.Query = toQuery(&o)
	qv := reflect.ValueOf(q)
	for i := 0; i < ov.NumField(); i++ {
		name := ov.Type().Field(i).Name
		switch name {
		case "LowPriority":
			if q.Priority != service.PriorityBatch {
				t.Errorf("LowPriority did not reach Query.Priority (got %d)", q.Priority)
			}
			continue
		}
		f := qv.FieldByName(name)
		if !f.IsValid() {
			t.Errorf("Options.%s has no Query counterpart", name)
			continue
		}
		if !reflect.DeepEqual(f.Interface(), ov.Field(i).Interface()) {
			t.Errorf("Options.%s = %v reached Query as %v", name, ov.Field(i).Interface(), f.Interface())
		}
	}
}

// TestServiceHonorsAccuracy: Service resolves Options.Accuracy exactly as the
// one-shot calls do — "fast" reaches the planner, an unknown spelling fails.
func TestServiceHonorsAccuracy(t *testing.T) {
	ctx := context.Background()
	g, sets := plannerWorld(t, 3)
	p, q := sets[0], sets[1]
	svc := NewService(ServiceConfig{})
	if err := svc.LoadGraph("g", g, p, q); err != nil {
		t.Fatal(err)
	}
	pl, err := svc.ExplainPairs(ctx, "g", p, q, 10, &Options{Accuracy: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Workload.Accuracy != plan.Fast {
		t.Fatalf("Service plan accuracy = %v, want fast", pl.Workload.Accuracy)
	}
	if _, err := NewPairQuery(g, p, q).WithOptions(&Options{Accuracy: "bogus"}).Explain(ctx); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("one-shot bogus accuracy: %v, want ErrInvalidOptions", err)
	}
	if _, err := svc.ExplainPairs(ctx, "g", p, q, 10, &Options{Accuracy: "bogus"}); err == nil {
		t.Fatal("Service accepted accuracy \"bogus\"")
	}
	if _, err := svc.TopKPairs(ctx, "g", p, q, 5, &Options{Accuracy: "bogus"}); err == nil {
		t.Fatal("Service join accepted accuracy \"bogus\"")
	}
}

// TestScoreOutOfRange: Score and ScoresFrom reject node ids outside the
// graph, and ScoresFrom a wrong-length column, with ErrOutOfRange under
// every measure family — never a panic, never a silent zero.
func TestScoreOutOfRange(t *testing.T) {
	b := NewBuilder(4, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	g := b.Build()
	svc := NewService(ServiceConfig{})
	if err := svc.LoadGraph("g", g); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"dht", "ppr", "simrank"} {
		opts := &Options{MeasureName: m}
		for _, tc := range []struct {
			name string
			u, v NodeID
		}{
			{"v past end", 0, 9},
			{"u past end", 9, 0},
			{"negative v", 0, -1},
			{"v == |V|", 0, 4},
		} {
			noPanic(t, m+"/Score/"+tc.name, func() error {
				_, err := Score(g, tc.u, tc.v, opts)
				return err
			})
			noPanic(t, m+"/Service.Score/"+tc.name, func() error {
				_, err := svc.Score(context.Background(), "g", tc.u, tc.v, opts)
				return err
			})
		}
		for _, v := range []NodeID{-1, 4, 9} {
			noPanic(t, m+"/ScoresFrom/bad v", func() error {
				_, err := ScoresFrom(g, v, opts, nil)
				return err
			})
		}
		for _, n := range []int{3, 5} {
			noPanic(t, m+"/ScoresFrom/bad out length", func() error {
				_, err := ScoresFrom(g, 1, opts, make([]float64, n))
				return err
			})
		}
		if _, err := ScoresFrom(g, 1, opts, make([]float64, 4)); err != nil {
			t.Fatalf("%s: in-range ScoresFrom failed: %v", m, err)
		}
		if _, err := Score(g, 0, 3, opts); err != nil {
			t.Fatalf("%s: in-range Score failed: %v", m, err)
		}
	}
}

// noPanic runs f, failing the test if it panics or returns anything but an
// ErrOutOfRange error.
func noPanic(t *testing.T, label string, f func() error) {
	t.Helper()
	var err error
	func() {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("%s: panicked: %v", label, p)
			}
		}()
		err = f()
	}()
	if !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("%s: error %v, want ErrOutOfRange", label, err)
	}
}

// TestInvalidRelabelOption: an undeclared Options.Relabel mode fails with
// ErrInvalidOptions on every entry point instead of running unrelabeled.
func TestInvalidRelabelOption(t *testing.T) {
	ctx := context.Background()
	g, sets := plannerWorld(t, 3)
	p, q := sets[0], sets[1]
	opts := &Options{Relabel: graph.RelabelMode(7)}
	if _, err := TopKPairs(g, p, q, 5, opts); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("TopKPairs: %v, want ErrInvalidOptions", err)
	}
	if _, err := TopK(g, Chain(p, q), 5, opts); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("TopK: %v, want ErrInvalidOptions", err)
	}
	if err := NewPairQuery(g, p, q).WithOptions(opts).Validate(); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("Validate: %v, want ErrInvalidOptions", err)
	}
	svc := NewService(ServiceConfig{})
	if err := svc.LoadGraph("g", g, p, q); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.TopKPairs(ctx, "g", p, q, 5, opts); err == nil {
		t.Fatal("Service.TopKPairs accepted relabel mode 7")
	}
	if _, err := svc.TopK(ctx, "g", Chain(p, q), 5, opts); err == nil {
		t.Fatal("Service.TopK accepted relabel mode 7")
	}
}

// Command njbench is the serving benchmark: it starts njoind on loopback,
// uploads a seeded generated graph, drives one workload over HTTP for a
// fixed time, checks a seeded sample of the answers against cache-less
// one-shot dhtjoin queries, and prints every metric by name and unit. With
// -trace 1 it instead replays the same request stream in-process through
// each module's public entry points and prints per-layer metrics.
//
// Usage (from the repository root, after building njoind):
//
//	njbench -workload pair-cold -seed 1 -seconds 25 -trace 0 -bin .bench_build/njoind
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// workload is one traffic mix against one generated graph.
type workload struct {
	name      string
	graph     graphSpec
	durable   bool          // njoind runs with -data-dir
	clients   int           // closed-loop readers
	editEvery time.Duration // open-loop writer period; 0 = no writer
	// headline selects the requests whose latency is lat_p50_ms/lat_p75_ms.
	headline func(*request) bool
	// reads returns the read stream for a graph and seed.
	reads func(g *genGraph, seed int64) func(id int) request
}

// layoutSeed fixes the graph and the hot working set of every workload;
// -seed varies the request and edit streams over them. Seeded graphs and
// working sets made run-to-run spread mostly a matter of which pairs
// happened to be popular, which a regression bound cannot see through.
const layoutSeed = 1

var coldGraph = graphSpec{Nodes: 5000, Communities: 4, Degree: 8, Cross: 0.1}

var workloads = []workload{
	{
		name: "pair-cold", graph: coldGraph, clients: 2,
		headline: func(r *request) bool { return r.Label == "dht" },
		reads: func(g *genGraph, seed int64) func(int) request {
			return func(id int) request { return pairColdRead(g, seed, id) }
		},
	},
	{
		name: "nway-cold", graph: coldGraph, clients: 2,
		headline: func(r *request) bool { return r.Op == opJoinN },
		reads: func(g *genGraph, seed int64) func(int) request {
			return func(id int) request { return nwayColdRead(g, seed, id) }
		},
	},
	{
		name: "pair-hot-edits", graph: graphSpec{Nodes: 2400, Communities: 4, Degree: 8, Cross: 0.1},
		durable: true, clients: 1, editEvery: 250 * time.Millisecond,
		headline: func(r *request) bool { return r.Op == opEdit },
		reads: func(g *genGraph, seed int64) func(int) request {
			pairs, z := hotPairs(g, layoutSeed), newZipf(48, 1.1)
			return func(id int) request { return hotRead(pairs, z, seed, id) }
		},
	},
}

// warmRequest is the one request per graph set-up waits for; it is not
// part of any workload's stream.
func warmRequest(g *genGraph) request {
	return newJoin2(-1, "warm", g.comm[0][:50], g.comm[1][:50], 10, 0, false, options{})
}

const (
	setups       = 21 // set-ups per run; setup_s is their median
	warmupFor    = time.Second
	oraclePerMix = 10 // oracle checks per mix entry per run
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "pair-cold | nway-cold | pair-hot-edits")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 25, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced in-process replay with per-layer metrics")
		bin     = flag.String("bin", ".bench_build/njoind", "njoind binary")
		work    = flag.String("work", ".bench_build", "directory for data dirs and span files")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "njbench: unknown workload %q or bad -seconds\n", *name)
		return 2
	}
	runDir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "njbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)
	ctx := context.Background()
	dur := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		res, err = runTraced(ctx, w, *seed, dur, runDir, filepath.Join(*work, "spans"))
	} else {
		res, err = runLoopback(ctx, w, *seed, dur, *bin, runDir)
	}
	if err == nil {
		var out []byte
		if out, err = json.Marshal(res); err == nil {
			fmt.Println(string(out))
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "njbench:", err)
	return 1
}

// report collects metrics and prints each as a "name value unit" line.
type report struct{ m map[string]metric }

func (r *report) add(name string, v float64, unit, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if r.m == nil {
		r.m = make(map[string]metric)
	}
	r.m[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("  %-34s %12.4f %s%s\n", name, v, unit, note)
}

// pick returns the subset of r's metrics named in names.
func (r *report) pick(names []string) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		out[n] = r.m[n]
	}
	return out
}

// latencies reports the p50 and the highest tail percentile with ten
// samples beyond it for one latency family.
func (r *report) latencies(family string, ms []float64) {
	if len(ms) == 0 {
		return
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	n := fmt.Sprintf("n=%d", len(s))
	r.add(family+"_p50_ms", percentile(s, 50), "ms", n)
	if p := tailPercentile(len(s)); p > 0 {
		r.add(fmt.Sprintf("%s_p%g_ms", family, p), percentile(s, p), "ms", n)
	}
}

// endToEnd lists the metrics BENCHMARK.json gates, in its order.
var endToEnd = []string{"setup_s", "qps", "lat_p50_ms", "lat_p75_ms", "cpu_ms_per_q", "rss_peak_mb"}

// runLoopback is the untraced run: set-up (setups times), warm-up, the
// measured window, the end-state check and the oracle sample.
func runLoopback(ctx context.Context, w *workload, seed int64, dur time.Duration, bin, runDir string) (result, error) {
	g := generateGraph(w.graph, layoutSeed)
	reads := w.reads(g, seed)
	var edits []request
	if w.editEvery > 0 {
		edits = editBatches(g, seed, int(dur/w.editEvery)+2)
	}
	hc := newHTTPClient(w.clients)
	var setupS []float64
	var d *daemon
	for i := 0; i < setups; i++ {
		dataDir := ""
		if w.durable {
			dataDir = filepath.Join(runDir, fmt.Sprintf("data%d", i))
		}
		dd, s, err := setUp(ctx, hc, bin, dataDir, g, warmRequest(g))
		if err != nil {
			return result{}, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupS = append(setupS, s)
		if i < setups-1 {
			dd.stop()
		} else {
			d = dd
		}
	}
	defer d.stop()

	var nextID atomic.Int64
	closedLoop(ctx, hc, d.base, w.clients, &nextID, reads, time.Now().Add(warmupFor), math.MaxInt, nil)

	var before struct {
		Graphs []graphInfo `json:"graphs"`
	}
	if err := getJSON(ctx, hc, d.base+"/graphs", &before); err != nil || len(before.Graphs) != 1 {
		return result{}, fmt.Errorf("listing graphs before the window: %v", err)
	}
	ec := &editCounters{}
	start := time.Now()
	deadline := start.Add(dur)
	// The window is cut into slices of about five seconds; throughput and
	// CPU per read are medians over slices, so a burst of noise from the
	// host moves one slice, not the result. cpuAt[i] is the daemon's CPU
	// time at the start of slice i.
	nSlices := max(1, int(dur/(5*time.Second)))
	slice := dur / time.Duration(nSlices)
	cpuAt := make([]float64, nSlices+1)
	sampled := make(chan error, 1)
	go func() {
		for i := range cpuAt {
			time.Sleep(time.Until(start.Add(time.Duration(i) * slice)))
			v, err := d.cpuMS()
			if err != nil {
				sampled <- err
				return
			}
			cpuAt[i] = v
		}
		sampled <- nil
	}()
	var editOuts []editOutcome
	editDone := make(chan struct{})
	go func() {
		defer close(editDone)
		if len(edits) > 0 {
			editOuts = openLoopWriter(ctx, newHTTPClient(1), d.base, edits, w.editEvery, start, deadline, ec)
		}
	}()
	outs := closedLoop(ctx, hc, d.base, w.clients, &nextID, reads, deadline, math.MaxInt, ec)
	<-editDone
	elapsed := time.Since(start).Seconds()
	if err := <-sampled; err != nil {
		return result{}, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return result{}, err
	}
	var after struct {
		Graphs []graphInfo `json:"graphs"`
	}
	if err := getJSON(ctx, hc, d.base+"/graphs", &after); err != nil || len(after.Graphs) != 1 {
		return result{}, fmt.Errorf("listing graphs after the window: %v", err)
	}
	d.stop()

	fmt.Printf("workload %s seed %d: %d reads and %d edits in %.2f s\n", w.name, seed, len(outs), len(editOuts), elapsed)
	correct := true
	all := append([]outcome(nil), outs...)
	for _, e := range editOuts {
		all = append(all, e.outcome)
	}
	if len(edits) > 0 {
		// The final graph must be the initial one plus exactly the
		// acknowledged batches: one generation and 20 new arcs each.
		acked := int(ec.acked.Load())
		b, a := before.Graphs[0], after.Graphs[0]
		if a.Generation != b.Generation+uint64(acked) || a.Edges != b.Edges+20*acked {
			fmt.Printf("  END STATE MISMATCH: generation %d→%d, edges %d→%d after %d acknowledged batches\n",
				b.Generation, a.Generation, b.Edges, a.Edges, acked)
			correct = false
		} else {
			fmt.Printf("  end state: generation %d→%d, edges %d→%d after %d acknowledged batches\n",
				b.Generation, a.Generation, b.Edges, a.Edges, acked)
		}
	}

	vs, err := newVersions(g.text, edits)
	if err != nil {
		return result{}, err
	}
	checked, bad, err := oracleSample(ctx, vs, outs, seed, oraclePerMix)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("  oracle: %d/%d sampled rankings identical to cache-less dhtjoin\n", checked-len(bad), checked)
	for _, b := range bad {
		fmt.Println("  ORACLE MISMATCH:", b)
		correct = false
	}

	var rep report
	failed := printOps(all)
	rep.add("fail_frac", float64(failed)/float64(len(all)), "ratio", fmt.Sprintf("%d/%d", failed, len(all)))
	rep.add("setup_s", median(setupS), "s", fmt.Sprintf("median of %d", len(setupS)))
	completed := 0
	perSlice := make([]int, nSlices)
	var headline []float64
	fam := map[string][]float64{}
	var ttfr []float64
	for _, o := range all {
		if o.fail != "" {
			continue
		}
		if o.req.Op != opEdit {
			completed++
			if i := int(o.sent.Add(time.Duration(o.latMS*float64(time.Millisecond))).Sub(start) / slice); i < nSlices {
				perSlice[i]++
			}
		}
		if w.headline(o.req) {
			headline = append(headline, o.latMS)
		}
		switch o.req.Op {
		case opJoin2:
			fam["join2"] = append(fam["join2"], o.latMS)
			fam["join2."+o.req.Label] = append(fam["join2."+o.req.Label], o.latMS)
		case opStream:
			if !math.IsNaN(o.ttfrMS) {
				ttfr = append(ttfr, o.ttfrMS)
			}
			fam["stream_total"] = append(fam["stream_total"], o.latMS)
		case opJoinN:
			fam["joinn"] = append(fam["joinn"], o.latMS)
			fam["joinn."+o.req.Label] = append(fam["joinn."+o.req.Label], o.latMS)
		case opEdit:
			fam["edit"] = append(fam["edit"], o.latMS)
		}
	}
	var qps, cpuPerQ []float64
	for i, n := range perSlice {
		qps = append(qps, float64(n)/slice.Seconds())
		cpuPerQ = append(cpuPerQ, (cpuAt[i+1]-cpuAt[i])/float64(max(n, 1)))
	}
	rep.add("qps", median(qps), "1/s", fmt.Sprintf("%d completed reads; median of %d slices %v", completed, nSlices, perSlice))
	hs := append([]float64(nil), headline...)
	sort.Float64s(hs)
	rep.add("lat_p50_ms", percentile(hs, 50), "ms", fmt.Sprintf("headline n=%d", len(hs)))
	rep.add("lat_p75_ms", percentile(hs, 75), "ms", fmt.Sprintf("headline n=%d", len(hs)))
	rep.add("cpu_ms_per_q", median(cpuPerQ), "ms", "daemon utime+stime per completed read, median of slices")
	rep.add("rss_peak_mb", rss, "MiB", "daemon VmHWM")
	names := make([]string, 0, len(fam))
	for n := range fam {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep.latencies(n, fam[n])
	}
	rep.latencies("ttfr", ttfr)
	if len(editOuts) > 0 {
		late := make([]float64, len(editOuts))
		for i, e := range editOuts {
			late[i] = e.lateMS
		}
		rep.latencies("loadgen.edit_late", late)
	}
	return result{Correct: correct, Attempted: len(all), Failed: failed, Metrics: rep.pick(endToEnd)}, nil
}

// printOps prints sent, succeeded and failed counts per operation type and
// returns the total failed.
func printOps(all []outcome) int {
	type counts struct{ sent, ok int }
	per := map[string]*counts{}
	reasons := map[string]int{}
	failed := 0
	for _, o := range all {
		key := o.req.Op + "/" + o.req.Label
		c := per[key]
		if c == nil {
			c = &counts{}
			per[key] = c
		}
		c.sent++
		if o.fail == "" {
			c.ok++
		} else {
			failed++
			reasons[o.fail]++
		}
	}
	keys := make([]string, 0, len(per))
	for k := range per {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c := per[k]
		fmt.Printf("  op %-22s sent %6d succeeded %6d failed %4d\n", k, c.sent, c.ok, c.sent-c.ok)
	}
	if len(reasons) > 0 {
		var parts []string
		for r, n := range reasons {
			parts = append(parts, fmt.Sprintf("%s=%d", r, n))
		}
		sort.Strings(parts)
		fmt.Println("  failures:", strings.Join(parts, " "))
	}
	return failed
}

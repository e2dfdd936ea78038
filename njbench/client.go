package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

type pairJSON struct {
	P     int32   `json:"p"`
	Q     int32   `json:"q"`
	Score float64 `json:"score"`
}

type answerJSON struct {
	Nodes []int32 `json:"nodes"`
	Score float64 `json:"score"`
}

// outcome is one request as the client saw it.
type outcome struct {
	req    *request
	sent   time.Time
	latMS  float64 // send → whole response read
	ttfrMS float64 // streams: send → first result line (NaN without one)
	fail   string  // why the request counts as failed; "" when it succeeded

	pairs   []pairJSON
	answers []answerJSON

	// Edits applied before the request was sent and edits begun by the time
	// it completed; equal values pin the graph version a read saw.
	ackedBefore, startedAfter int64
}

type graphInfo struct {
	Name       string `json:"name"`
	Nodes      int    `json:"nodes"`
	Edges      int    `json:"edges"`
	Generation uint64 `json:"generation"`
}

// batchBody is the union of the batch response shapes the workloads get.
type batchBody struct {
	Results   []pairJSON   `json:"results"`
	Answers   []answerJSON `json:"answers"`
	ClampedK  int          `json:"clamped_k"`
	Truncated bool         `json:"truncated"`
}

// streamLine is one NDJSON line: a result, an answer, the done terminator
// or an in-band error.
type streamLine struct {
	pairJSON
	Nodes     []int32         `json:"nodes"`
	Done      bool            `json:"done"`
	Truncated bool            `json:"truncated"`
	Error     json.RawMessage `json:"error"`
}

// newHTTPClient returns a client holding at most conns keep-alive
// connections to the daemon.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// send issues one request and classifies it. Failed are: transport errors,
// non-2xx statuses (429 quota and 503 drain/shed included), batch responses
// carrying clamped_k or truncated, and streams that end without a clean
// {"done":true} terminator.
func send(ctx context.Context, hc *http.Client, base string, req *request) outcome {
	o := outcome{req: req, ttfrMS: math.NaN()}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+req.Path, bytes.NewReader(req.Body))
	if err != nil {
		o.fail = "transport"
		return o
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Request-Id", fmt.Sprint(req.Op, "-", req.ID))
	o.sent = time.Now()
	resp, err := hc.Do(hreq)
	if err != nil {
		o.fail = "transport"
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		o.latMS = msSince(o.sent)
		o.fail = fmt.Sprintf("http-%d", resp.StatusCode)
		return o
	}
	if req.Op == opStream {
		readStream(resp.Body, &o)
		return o
	}
	body, err := io.ReadAll(resp.Body)
	o.latMS = msSince(o.sent)
	if err != nil {
		o.fail = "transport"
		return o
	}
	if req.Op == opEdit {
		if !json.Valid(body) {
			o.fail = "bad-body"
		}
		return o
	}
	var bb batchBody
	switch {
	case json.Unmarshal(body, &bb) != nil:
		o.fail = "bad-body"
	case bb.ClampedK != 0:
		o.fail = "clamped"
	case bb.Truncated:
		o.fail = "truncated"
	}
	o.pairs, o.answers = bb.Results, bb.Answers
	return o
}

func readStream(body io.Reader, o *outcome) {
	br := bufio.NewReader(body)
	done := false
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var sl streamLine
			switch {
			case json.Unmarshal(line, &sl) != nil:
				o.fail = "bad-body"
			case sl.Error != nil:
				o.fail = "stream-error"
			case sl.Done:
				done = true
				if sl.Truncated {
					o.fail = "truncated"
				}
			default:
				if math.IsNaN(o.ttfrMS) {
					o.ttfrMS = msSince(o.sent)
				}
				if sl.Nodes != nil {
					o.answers = append(o.answers, answerJSON{Nodes: sl.Nodes, Score: sl.Score})
				} else {
					o.pairs = append(o.pairs, sl.pairJSON)
				}
			}
		}
		if err != nil {
			break
		}
	}
	o.latMS = msSince(o.sent)
	if !done && o.fail == "" {
		o.fail = "no-terminator"
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// editCounters tie reads to the graph version they saw: started counts edit
// batches sent, acked those acknowledged with 2xx.
type editCounters struct{ started, acked atomic.Int64 }

// closedLoop runs clients that each send their next request only after the
// previous one completed, drawing request ids below limit from one shared
// sequence starting at *nextID, until the deadline. It returns the outcomes
// ordered by request id.
func closedLoop(ctx context.Context, hc *http.Client, base string, clients int, nextID *atomic.Int64,
	gen func(id int) request, deadline time.Time, limit int, ec *editCounters) []outcome {
	var (
		mu   sync.Mutex
		outs []outcome
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []outcome
			for time.Now().Before(deadline) && ctx.Err() == nil {
				id := int(nextID.Add(1) - 1)
				if id >= limit {
					break
				}
				req := gen(id)
				var before int64
				if ec != nil {
					before = ec.acked.Load()
				}
				o := send(ctx, hc, base, &req)
				if ec != nil {
					o.ackedBefore, o.startedAfter = before, ec.started.Load()
				}
				mine = append(mine, o)
			}
			mu.Lock()
			outs = append(outs, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(outs, func(i, j int) bool { return outs[i].req.ID < outs[j].req.ID })
	return outs
}

// editOutcome is one open-loop edit: its latency and its lateness, both
// measured from the time it was due.
type editOutcome struct {
	outcome
	lateMS float64
}

// openLoopWriter sends edits[i] at start + i·every regardless of how the
// earlier ones fared (a slow ack delays the next send, and that delay is
// charged to the next edit's latency), until the deadline.
func openLoopWriter(ctx context.Context, hc *http.Client, base string, edits []request, every time.Duration,
	start, deadline time.Time, ec *editCounters) []editOutcome {
	var outs []editOutcome
	for i := range edits {
		due := start.Add(time.Duration(i) * every)
		if !due.Before(deadline) || ctx.Err() != nil {
			break
		}
		time.Sleep(time.Until(due))
		late := msSince(due)
		ec.started.Add(1)
		o := send(ctx, hc, base, &edits[i])
		if o.fail == "" {
			ec.acked.Add(1)
		}
		o.latMS = msSince(due)
		outs = append(outs, editOutcome{outcome: o, lateMS: late})
	}
	return outs
}

// getJSON fetches base+path into v.
func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datagen"
)

// connections is the number of client connections every HTTP workload
// uses: one per core of the 2-core sandbox the bounds were measured on.
const connections = 2

// hotAskSlices is how many closed-loop/open-loop pairs hot_ask's window is
// cut into.
const hotAskSlices = 5

// oracleEvery: about one request in this many keeps its response body for
// the correctness check after the window.
const oracleEvery = 50

// sampled reports whether request i keeps its body. A hash, not i%50, so
// the sample is not locked to distinct_query's period-10 class pattern.
func sampled(i int, seed uint64) bool {
	return datagen.NewRNG(seed^uint64(i)).Next()%oracleEvery == 0
}

// obsv is one completed request as the client saw it.
type obsv struct {
	class string
	start time.Time     // when the request was sent
	lat   time.Duration // closed loop: from send; open loop: from due time
	late  time.Duration // open loop: how long the generator overslept the due time
	bytes int64
}

// saved is a response body kept for the oracle.
type saved struct {
	rq   request
	body []byte
}

// loadResult is what one timed phase produced.
type loadResult struct {
	obs       []obsv
	saved     []saved
	attempted int
	errs      []string // transport errors and non-200 answers
	elapsed   time.Duration
}

func (r *loadResult) merge(o *loadResult) {
	r.obs = append(r.obs, o.obs...)
	r.saved = append(r.saved, o.saved...)
	r.attempted += o.attempted
	r.errs = append(r.errs, o.errs...)
	r.elapsed += o.elapsed
}

// newConn returns a client that owns exactly one keep-alive connection.
func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}
}

// send performs one request and drains the answer; keep retains the body.
func send(c *http.Client, base string, rq request, keep bool) (body []byte, n int64, err error) {
	var rd io.Reader
	if rq.body != nil {
		rd = bytes.NewReader(rq.body)
	}
	req, err := http.NewRequest(rq.method, base+rq.path, rd)
	if err != nil {
		return nil, 0, err
	}
	if rq.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if keep {
		body, err = io.ReadAll(resp.Body)
		n = int64(len(body))
	} else {
		n, err = io.Copy(io.Discard, resp.Body)
	}
	if err != nil {
		return nil, n, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, n, fmt.Errorf("%s %s: status %d", rq.method, rq.path, resp.StatusCode)
	}
	return body, n, nil
}

// sendAll sends requests one after another on one connection and keeps
// every body: the priming pass.
func sendAll(base string, rqs []request) *loadResult {
	c := newConn()
	defer c.CloseIdleConnections()
	res := &loadResult{}
	for _, rq := range rqs {
		res.attempted++
		body, _, err := send(c, base, rq, true)
		if err != nil {
			res.errs = append(res.errs, err.Error())
			continue
		}
		res.saved = append(res.saved, saved{rq, body})
	}
	return res
}

// issue sends request i of the plan on c and records the outcome. Latency
// counts from `from` (the zero time means from the send).
func (r *loadResult) issue(c *http.Client, base string, p plan, i int, seed uint64, from time.Time, late time.Duration) {
	rq := p.at(i)
	keep := sampled(i, seed)
	start := time.Now()
	if from.IsZero() {
		from = start
	}
	r.attempted++
	body, n, err := send(c, base, rq, keep)
	if err != nil {
		r.errs = append(r.errs, err.Error())
		return
	}
	r.obs = append(r.obs, obsv{class: rq.class, start: start, lat: time.Since(from), late: late, bytes: n})
	if keep {
		r.saved = append(r.saved, saved{rq, body})
	}
}

// onConnections runs loop once per connection, each with its own client and
// its own result, and returns the merged result with the wall time taken.
func onConnections(loop func(c *http.Client, part *loadResult)) *loadResult {
	parts := make([]*loadResult, connections)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := range parts {
		parts[w] = &loadResult{}
		wg.Add(1)
		go func(part *loadResult) {
			defer wg.Done()
			c := newConn()
			defer c.CloseIdleConnections()
			loop(c, part)
		}(parts[w])
	}
	wg.Wait()
	res := &loadResult{}
	for _, part := range parts {
		res.merge(part)
	}
	res.elapsed = time.Since(t0)
	return res
}

// closedLoop drives the server for d with `connections` callers, each
// sending its next request as soon as the previous answer is read. Requests
// are p.at(first), p.at(first+1), ... handed out in order.
func closedLoop(base string, p plan, first int, seed uint64, d time.Duration) *loadResult {
	var next atomic.Int64
	next.Store(int64(first))
	deadline := time.Now().Add(d)
	return onConnections(func(c *http.Client, part *loadResult) {
		for time.Now().Before(deadline) {
			part.issue(c, base, p, int(next.Add(1)-1), seed, time.Time{}, 0)
		}
	})
}

// openLoop sends requests on a seeded Poisson schedule at rate per second
// for d, over `connections` connections, whether or not earlier answers
// have arrived. A request's latency counts from the instant it was due, so
// time spent waiting for a free connection is part of it.
func openLoop(base string, p plan, first int, seed uint64, rate float64, d time.Duration) *loadResult {
	rng := datagen.NewRNG(seed ^ 0x09E7)
	var due []time.Duration
	for t := 0.0; ; {
		t += -math.Log(1-rng.Float()) / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			break
		}
		due = append(due, at)
	}
	var next atomic.Int64
	t0 := time.Now()
	return onConnections(func(c *http.Client, part *loadResult) {
		for {
			k := int(next.Add(1) - 1)
			if k >= len(due) {
				return
			}
			dueAt := t0.Add(due[k])
			// The generator is late by however long it oversleeps; a
			// request that was already due when this connection came free
			// waited for the server, not for the generator.
			ready := time.Now()
			if dueAt.After(ready) {
				time.Sleep(dueAt.Sub(ready))
				ready = dueAt
			}
			part.issue(c, base, p, first+k, seed, dueAt, time.Since(ready))
		}
	})
}

// ---------------------------------------------------------------------------
// Sample statistics
// ---------------------------------------------------------------------------

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted. NaN when xs is empty.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// latencies returns the observations' latencies in ms.
func latencies(obs []obsv) []float64 {
	out := make([]float64, len(obs))
	for i, o := range obs {
		out[i] = ms(o.lat)
	}
	return out
}

// byClass groups latencies in ms by request class.
func byClass(obs []obsv) map[string][]float64 {
	out := map[string][]float64{}
	for _, o := range obs {
		out[o.class] = append(out[o.class], ms(o.lat))
	}
	return out
}

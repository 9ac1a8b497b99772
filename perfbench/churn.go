package main

import (
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// churn is the open-loop generator: payload GETs on a fixed schedule per
// rate rung over at most Connections connections, beside a publisher that
// republishes a Zipf-drawn video every PublishEveryMs.
type churn struct {
	w     *Workload
	st    *stack
	base  string
	http  *http.Client
	seed  uint64
	spans *spanLog
	// ref is each payload path's body checksum as fetched at set-up.
	ref map[string]uint32
}

func newChurn(w *Workload, st *stack, base string, rt http.RoundTripper, seed uint64, spans *spanLog) *churn {
	return &churn{w: w, st: st, base: base, http: &http.Client{Transport: rt}, seed: seed, spans: spans}
}

// get fetches one path, hashing the body as it streams.
func (c *churn) get(path string, id uint64, buf []byte) (status int, n int64, sum uint32, err error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	if id != 0 {
		req.Header.Set(requestIDHeader, strconv.FormatUint(id, 10))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	h := crc32.New(castagnoli)
	n, err = io.CopyBuffer(h, resp.Body, buf)
	return resp.StatusCode, n, h.Sum32(), err
}

// recordReference fetches every payload of the catalog once and keeps its
// body checksum: republishing an unchanged manifest must never change a
// byte, so every later 200 must match.
func (c *churn) recordReference() error {
	c.ref = make(map[string]uint32)
	buf := make([]byte, 32<<10)
	for _, p := range payloadURLs(c.w.Videos, c.st.mans) {
		status, _, sum, err := c.get(p, 0, buf)
		if err != nil {
			return fmt.Errorf("reference GET %s: %w", p, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("reference GET %s: status %d", p, status)
		}
		c.ref[p] = sum
	}
	return nil
}

// churnReq is one sent request's timeline, offsets from the rung's start.
type churnReq struct {
	due, sent, done time.Duration
	bytes           int64
	ok              bool
}

// rungResult is one rate rung.
type rungResult struct {
	rate     float64
	reqs     []churnReq // the requests sent, in due order
	failed   int
	bytes    int64
	backlog  int     // requests due before the schedule ended but never sent
	achieved float64 // requests completed per second of the rung
	p50, p99 float64 // ms from due to last body byte
	lateMs   []float64
	pass     bool
}

// rung runs one rate for d: request i is due at i/rate after the start.
// A request not sent by the end of the schedule is dropped and counted as
// backlog, so an overloaded rung lasts d too and measures what the
// serving tier completes under overload.
func (c *churn) rung(ri int, rate float64, d time.Duration) rungResult {
	n := max(1, int(rate*d.Seconds()))
	paths := churnRequests(c.w, c.st.mans, c.seed, ri, n)
	reqs := make([]churnReq, n)
	sent := make([]bool, n)
	interval := float64(time.Second) / rate
	scheduleEnd := time.Duration(float64(n) * interval)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < c.w.Connections; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 32<<10)
			for {
				i := int(next.Add(1) - 1)
				if i >= n || time.Since(start) > scheduleEnd {
					return
				}
				due := time.Duration(float64(i) * interval)
				if wait := due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				var id uint64
				if c.spans.recording() {
					id = c.spans.newID()
				}
				t0 := time.Now()
				status, nb, sum, err := c.get(paths[i], id, buf)
				t1 := time.Now()
				if id != 0 {
					c.spans.add(span{ID: id, Req: id, Name: spanRequest, Kind: endpointKind(paths[i]),
						Start: c.spans.since(t0), End: c.spans.since(t1)})
				}
				want, known := c.ref[paths[i]]
				reqs[i] = churnReq{due: due, sent: t0.Sub(start), done: t1.Sub(start), bytes: nb,
					ok: err == nil && status == http.StatusOK && known && sum == want}
				sent[i] = true
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	r := rungResult{rate: rate}
	var lat []float64
	for i, q := range reqs {
		if !sent[i] {
			r.backlog++
			continue
		}
		r.reqs = append(r.reqs, q)
		lat = append(lat, float64(q.done-q.due)/1e6)
		r.lateMs = append(r.lateMs, float64(q.sent-q.due)/1e6)
		r.bytes += q.bytes
		if !q.ok {
			r.failed++
		}
	}
	r.p50, r.p99 = quantile(lat, 0.5), quantile(lat, 0.99)
	r.achieved = float64(len(r.reqs)) / elapsed.Seconds()
	// A backlog of more than one latency limit's worth of requests at the
	// end of the schedule means the generator fell behind for good.
	maxBacklog := max(2, int(rate*c.w.LatencyLimitMs/1000))
	r.pass = r.failed == 0 && r.p99 <= c.w.LatencyLimitMs && r.backlog <= maxBacklog
	return r
}

// churnPhase is one pass over the rate ladder.
type churnPhase struct {
	rungs     []rungResult
	publishMs []float64
}

// run walks the ladder, d split evenly across rungs, with the publisher
// running throughout.
func (c *churn) run(d time.Duration) churnPhase {
	var ph churnPhase
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ph.publishMs = c.publish(stop)
	}()
	per := d / time.Duration(len(c.w.RatesPerS))
	for ri, rate := range c.w.RatesPerS {
		ph.rungs = append(ph.rungs, c.rung(ri, rate, per))
	}
	close(stop)
	wg.Wait()
	return ph
}

// publish republishes a Zipf-drawn video on every tick until stop, timing
// each Cluster.Publish call.
func (c *churn) publish(stop <-chan struct{}) []float64 {
	every := time.Duration(c.w.PublishEveryMs * float64(time.Millisecond))
	tick := time.NewTicker(every)
	defer tick.Stop()
	var draws []string
	var out []float64
	for i := 0; ; i++ {
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
		if i >= len(draws) {
			draws = publishDraws(c.w, c.seed, 2*i+64)
		}
		man := c.st.mans[draws[i]]
		end := c.spans.start(spanPublish, man.Video, 0, 0)
		t := time.Now()
		c.st.clu.Publish(man)
		out = append(out, float64(time.Since(t))/1e6)
		end()
	}
}

func (ph *churnPhase) nominal(w *Workload) *rungResult {
	for i := range ph.rungs {
		if ph.rungs[i].rate == w.NominalPerS {
			return &ph.rungs[i]
		}
	}
	return &ph.rungs[0]
}

// maxRPS is the achieved rate of the highest rung that met the latency
// limit with no growing backlog, 0 when none did.
func (ph *churnPhase) maxRPS() float64 {
	best := 0.0
	for _, r := range ph.rungs {
		if r.pass {
			best = r.achieved
		}
	}
	return best
}

// capacity is the achieved rate of the top rung, which the ladder sets
// above what the tier can serve: requests completed per second under
// overload.
func (ph *churnPhase) capacity() float64 { return ph.rungs[len(ph.rungs)-1].achieved }

func (ph *churnPhase) totals() (requests, failed int, bytes int64) {
	for _, r := range ph.rungs {
		requests += len(r.reqs)
		failed += r.failed
		bytes += r.bytes
	}
	return requests, failed, bytes
}

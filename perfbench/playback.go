package main

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"evr/internal/client"
	"evr/internal/delivery"
	"evr/internal/headtrace"
	"evr/internal/hmd"
	"evr/internal/loadgen"
	"evr/internal/scene"
	"evr/internal/telemetry"
)

// ringSize holds every frame of a session in the tracer's frame ring.
const ringSize = 1024

// playback drives closed-loop client.Player sessions: Sessions slots, each
// starting its next session as soon as the previous one ends, all on one
// shared HTTP transport.
type playback struct {
	w        *Workload
	baseURL  string
	segments int
	rt       http.RoundTripper
	pool     []pair
	traces   map[pair]headtrace.Trace
	spans    *spanLog
}

func newPlayback(w *Workload, baseURL string, segments int, rt http.RoundTripper, pool []pair, spans *spanLog) (*playback, error) {
	pb := &playback{w: w, baseURL: baseURL, segments: segments, rt: rt, pool: pool,
		traces: make(map[pair]headtrace.Trace), spans: spans}
	for _, p := range pool {
		v, ok := scene.ByName(p.Video)
		if !ok {
			return nil, fmt.Errorf("video %q not in the catalog", p.Video)
		}
		pb.traces[p] = headtrace.Generate(v, p.User)
	}
	return pb, nil
}

// sessionResult is one played session.
type sessionResult struct {
	pair     pair
	wall     time.Duration
	stats    client.PlaybackStats
	counters client.FetchCounters
	checksum uint64
	err      error
	io       *ioRecord
	tracer   *telemetry.Tracer // traced sessions only
	sid      uint64            // the client.session span's id, traced sessions only
}

// failed reports a session that errored or saw a non-2xx response.
func (r *sessionResult) failed() bool {
	return r.err != nil || r.io.non2xx > 0 || r.io.transport > 0
}

func (pb *playback) play(p pair) sessionResult {
	traced := pb.spans.recording()
	var sid uint64
	if traced {
		sid = pb.spans.newID()
	}
	rec := &ioRecord{}
	pl := client.NewPlayer(pb.baseURL)
	pl.HTTP = &http.Client{Transport: &timingRT{base: pb.rt, rec: rec, spans: pb.spans, parent: sid}}
	// Two sessions already fill both cores; a render pool per session
	// would only oversubscribe them. Output is identical for any count.
	pl.Workers = 1
	if pb.w.Delivery == "auto" {
		pl.Tiled = client.TiledConfig{Enabled: true, Force: delivery.ModeAuto}
	}
	var tr *telemetry.Tracer
	if traced {
		tr = telemetry.NewTracer(ringSize)
		pl.Trace = tr
	}
	end := pb.spans.start(spanSession, p.String(), sid, 0)
	start := time.Now()
	stats, frames, err := pl.Play(p.Video, hmd.NewIMU(pb.traces[p]), pb.segments)
	wall := time.Since(start)
	end()
	counters := pl.Fetcher().Counters()
	pl.Fetcher().Close()
	return sessionResult{pair: p, wall: wall, stats: stats, counters: counters,
		checksum: loadgen.ChecksumFrames(frames), err: err, io: rec, tracer: tr, sid: sid}
}

// run plays pool[order[i]] for i = 0, 1, ... across the session slots,
// starting sessions until d has passed and the current cycle through the
// pool is complete (at least one cycle), so every run plays each pair
// equally often.
func (pb *playback) run(order []int, d time.Duration) []sessionResult {
	var mu sync.Mutex
	next := 0
	deadline := time.Now().Add(d)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next > 0 && next%len(pb.pool) == 0 && !time.Now().Before(deadline) {
			return 0, false
		}
		next++
		return next - 1, true
	}
	var out []sessionResult
	var wg sync.WaitGroup
	for s := 0; s < pb.w.Sessions; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				r := pb.play(pb.pool[order[i%len(order)]])
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// checksums checks every session's displayed-frame checksum against the
// first play of its pair in the run, and first plays against the recorded
// checksums.
type checksums struct {
	ref      map[pair]uint64
	golden   map[string]string
	problems []string
}

func newChecksums(golden map[string]string) *checksums {
	return &checksums{ref: make(map[pair]uint64), golden: golden}
}

// check records a problem and returns false on any mismatch.
func (c *checksums) check(r *sessionResult) bool {
	if r.err != nil {
		c.problems = append(c.problems, fmt.Sprintf("%s: %v", r.pair, r.err))
		return false
	}
	sum := fmt.Sprintf("%016x", r.checksum)
	ref, seen := c.ref[r.pair]
	if !seen {
		c.ref[r.pair] = r.checksum
		if want := c.golden[r.pair.String()]; want != sum {
			c.problems = append(c.problems, fmt.Sprintf("%s: checksum %s, recorded %q", r.pair, sum, want))
			return false
		}
		return true
	}
	if ref != r.checksum {
		c.problems = append(c.problems, fmt.Sprintf("%s: checksum %s, first play %016x", r.pair, sum, ref))
		return false
	}
	return true
}

// playbackTotals sums a phase's sessions.
type playbackTotals struct {
	sessions, failed, frames, hits int
	bytes                          int64
	sessionTime                    time.Duration // summed over sessions
	latencyMs, sessionFrameMs      []float64
}

// fps is displayed frames per second of slot time: the phase's wall time
// as the slots saw it, without the tail in which one slot has finished
// and idles while the other plays its last session. That tail depends on
// which pair happens to play last, not on the code.
func (t playbackTotals) fps(slots int) float64 {
	return ratio(float64(t.frames)*float64(slots), t.sessionTime.Seconds())
}

func totalsOf(rs []sessionResult) playbackTotals {
	var t playbackTotals
	for i := range rs {
		r := &rs[i]
		t.sessions++
		if r.failed() {
			t.failed++
		}
		t.frames += r.stats.Frames
		t.hits += r.stats.Hits
		t.sessionTime += r.wall
		t.bytes += r.io.bytes
		t.latencyMs = append(t.latencyMs, r.io.latencyMs...)
		if r.stats.Frames > 0 {
			t.sessionFrameMs = append(t.sessionFrameMs, float64(r.wall)/1e6/float64(r.stats.Frames))
		}
	}
	return t
}

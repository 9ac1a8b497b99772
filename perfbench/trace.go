package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span names: one per layer boundary the benchmark's own code wraps.
const (
	spanIngest  = "server.ingest"   // Service.IngestVideo / Cluster.Ingest
	spanPublish = "cluster.publish" // Cluster.Publish
	spanSession = "client.session"  // Player.Play
	spanRequest = "client.request"  // one HTTP round trip, to the last body byte
	spanServer  = "server.handler"  // the served Service.Handler
	spanRouter  = "cluster.router"  // the served Cluster.Handler
)

// requestIDHeader carries the client span's id to the served handler, so
// the client and server spans of one request share an id.
const requestIDHeader = "X-Perfbench-Request-Id"

// span is one timed call into a layer. Start and End are nanoseconds since
// the log was made. Req is the request id shared by a client.request span
// and the handler span it caused.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"`
	// Path and Origin are set on a playback session's client.request
	// spans: the URL path, and "prefetch" or "demand" (see origin).
	Path   string `json:"path,omitempty"`
	Origin string `json:"origin,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps spans in memory; write dumps them at exit. The nil log
// records nothing, and a log records only while on.
type spanLog struct {
	t0  time.Time
	on  atomic.Bool
	ids atomic.Uint64
	mu  sync.Mutex
	all []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) recording() bool { return l != nil && l.on.Load() }

func (l *spanLog) setOn(on bool) {
	if l != nil {
		l.on.Store(on)
	}
}

func (l *spanLog) newID() uint64 { return l.ids.Add(1) }

func (l *spanLog) since(t time.Time) int64 { return int64(t.Sub(l.t0)) }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.all = append(l.all, s)
	l.mu.Unlock()
}

// start opens a span and returns the func that closes it; id 0 allocates
// a fresh id.
func (l *spanLog) start(name, kind string, id, parent uint64) func() {
	if !l.recording() {
		return func() {}
	}
	if id == 0 {
		id = l.newID()
	}
	t := time.Now()
	return func() {
		l.add(span{ID: id, Parent: parent, Name: name, Kind: kind, Start: l.since(t), End: l.since(time.Now())})
	}
}

func (l *spanLog) spans() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.all...)
}

// wrap returns h with a handler span per request, named name and joined to
// the client span through requestIDHeader.
func (l *spanLog) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !l.recording() {
			h.ServeHTTP(w, r)
			return
		}
		// A request without the header (not from a traced client) gets
		// id 0 and joins no client span.
		req, _ := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
		t := time.Now()
		h.ServeHTTP(w, r)
		l.add(span{ID: l.newID(), Parent: req, Req: req, Name: name, Kind: endpointKind(r.URL.Path),
			Start: l.since(t), End: l.since(time.Now())})
	})
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// endpointKind names a request path's endpoint: orig, fov, fovmeta, tile,
// tilelow, manifest, or the first path element otherwise.
func endpointKind(path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	if len(parts) >= 3 && parts[0] == "v" {
		return parts[2]
	}
	return parts[0]
}

// origin names the goroutine that issued the request being sent:
// "prefetch" for the fetcher's background prefetch, "demand" for the
// session's own goroutine and the tile loads it waits for. It reads the
// caller's stack, so only traced runs pay for it.
func origin() string {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.Contains(f.Function, ".(*Fetcher).prefetchSegment") {
			return "prefetch"
		}
		if !more {
			return "demand"
		}
	}
}

func isPayload(kind string) bool {
	switch kind {
	case "orig", "fov", "fovmeta", "tile", "tilelow":
		return true
	}
	return false
}

// selfTimes is the trace's self time per layer: a span's duration minus
// the part of it its children cover.
type selfTimes struct {
	session, request, handler time.Duration
	joined, requests          int
}

func computeSelfTimes(all []span) selfTimes {
	var st selfTimes
	handlerByReq := make(map[uint64]span)
	requestsByParent := make(map[uint64][]span)
	for _, s := range all {
		switch s.Name {
		case spanServer, spanRouter:
			handlerByReq[s.Req] = s
			st.handler += s.dur()
		case spanRequest:
			requestsByParent[s.Parent] = append(requestsByParent[s.Parent], s)
		}
	}
	for _, s := range all {
		switch s.Name {
		case spanRequest:
			st.requests++
			self := s.dur()
			if h, ok := handlerByReq[s.ID]; ok {
				st.joined++
				self -= h.dur()
			}
			if self > 0 {
				st.request += self
			}
		case spanSession:
			st.session += s.dur() - covered(s, requestsByParent[s.ID])
		}
	}
	return st
}

// covered returns how much of parent's interval the union of children
// covers.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	total += curB - curA
	return time.Duration(total)
}

func traceFile(dir, workload string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}

package main

import (
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// ioRecord accumulates what one client (a playback session, or the churn
// generator's reference fetch) saw on the wire. Safe for concurrent use:
// the fetcher's prefetch and tile goroutines share a session's record.
type ioRecord struct {
	mu        sync.Mutex
	latencyMs []float64 // payload GETs, request start to last body byte
	bytes     int64     // response body bytes, every request
	non2xx    int
	transport int // round trips that failed before a response
	// segmentLoads counts segment payloads fetched over the wire (every
	// payload kind but fovmeta), demand and prefetch alike.
	segmentLoads int
}

// timingRT times each round trip from request start to the last body byte,
// the only wrapper on the client side of an untraced run. With spans set
// and recording, it also records a client.request span and stamps the
// request-id header the served handler's span joins on.
type timingRT struct {
	base   http.RoundTripper
	rec    *ioRecord
	spans  *spanLog
	parent uint64 // session span id
}

func (t *timingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	var id uint64
	var from string
	if t.spans.recording() {
		id = t.spans.newID()
		from = origin()
		req = req.Clone(req.Context())
		req.Header.Set(requestIDHeader, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.rec.mu.Lock()
		t.rec.transport++
		t.rec.mu.Unlock()
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, rt: t, id: id, start: start,
		path: req.URL.Path, origin: from, status: resp.StatusCode}
	return resp, nil
}

// timedBody closes the round trip's measurement at the body's EOF, or at
// Close when the reader stops early.
type timedBody struct {
	io.ReadCloser
	rt     *timingRT
	id     uint64
	start  time.Time
	path   string
	origin string
	status int
	n      int64
	done   bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.finish()
	return err
}

func (b *timedBody) finish() {
	if b.done {
		return
	}
	b.done = true
	end := time.Now()
	kind := endpointKind(b.path)
	rec := b.rt.rec
	rec.mu.Lock()
	rec.bytes += b.n
	if b.status < 200 || b.status > 299 {
		rec.non2xx++
	}
	if isPayload(kind) {
		rec.latencyMs = append(rec.latencyMs, float64(end.Sub(b.start))/1e6)
		if kind != "fovmeta" {
			rec.segmentLoads++
		}
	}
	rec.mu.Unlock()
	if l := b.rt.spans; b.id != 0 {
		l.add(span{ID: b.id, Parent: b.rt.parent, Req: b.id, Name: spanRequest, Kind: kind,
			Path: b.path, Origin: b.origin, Start: l.since(b.start), End: l.since(end)})
	}
}

// newTransport returns the one HTTP transport every client of a run
// shares. maxConns > 0 caps connections to the server.
func newTransport(maxConns int) *http.Transport {
	t := &http.Transport{MaxIdleConns: 16, MaxIdleConnsPerHost: 16, IdleConnTimeout: 30 * time.Second}
	if maxConns > 0 {
		t.MaxConnsPerHost = maxConns
		t.MaxIdleConnsPerHost = maxConns
	}
	return t
}

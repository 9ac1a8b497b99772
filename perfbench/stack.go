package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"evr/internal/cluster"
	"evr/internal/scene"
	"evr/internal/server"
	"evr/internal/store"
)

// stack is one workload's serving side, built in-process through the
// public server / cluster / store APIs.
type stack struct {
	svc  *server.Service  // service target
	clu  *cluster.Cluster // cluster target
	mans map[string]*server.Manifest
	// handler is the HTTP surface clients reach: Service.Handler or
	// Cluster.Handler.
	handler http.Handler
}

// newStack builds the workload's service or cluster and ingests and
// publishes its catalog; this is what setup_s times. spans records one
// ingest span per video (nil records nothing).
func newStack(w *Workload, segments int, spans *spanLog) (*stack, error) {
	specs, err := w.videoSpecs()
	if err != nil {
		return nil, err
	}
	st := &stack{mans: make(map[string]*server.Manifest)}
	cfg := server.DefaultIngestConfig()
	cfg.MaxSegments = segments
	cfg.Tiled = w.Tiled
	opts := server.DefaultServiceOptions()
	opts.RespCacheBytes = w.RespCacheBytes
	opts.StoreDelay = w.storeDelay()
	var ingest func(scene.VideoSpec) (*server.Manifest, error)
	if w.Target == "cluster" {
		st.clu, err = cluster.New(store.New(), cluster.Options{
			Shards:         w.Shards,
			EdgeCacheBytes: w.EdgeCacheBytes,
			Shard:          opts,
		})
		if err != nil {
			return nil, err
		}
		st.handler = st.clu.Handler()
		ingest = func(v scene.VideoSpec) (*server.Manifest, error) { return st.clu.Ingest(v, cfg) }
	} else {
		st.svc = server.NewServiceOpts(store.New(), opts)
		st.handler = st.svc.Handler()
		ingest = func(v scene.VideoSpec) (*server.Manifest, error) { return st.svc.IngestVideo(v, cfg) }
	}
	for _, v := range specs {
		end := spans.start(spanIngest, v.Name, 0, 0)
		man, err := ingest(v)
		end()
		if err != nil {
			return nil, fmt.Errorf("ingesting %s: %w", v.Name, err)
		}
		st.mans[v.Name] = man
	}
	return st, nil
}

// serviceHandler returns a handler of one server.Service: the service
// itself, or shard 0 of a cluster (every shard publishes every manifest
// and reads the shared store, so any shard answers any request).
func (st *stack) serviceHandler() http.Handler {
	if st.svc != nil {
		return st.handler
	}
	return st.clu.Shard(0).Handler()
}

// serverCounters is the serving side's cumulative counters.
type serverCounters struct {
	resp      server.RespCacheStats // summed over shards
	cluster   cluster.Stats
	clustered bool
}

func (st *stack) counters() serverCounters {
	var c serverCounters
	add := func(s server.RespCacheStats, ok bool) {
		if !ok {
			return
		}
		c.resp.Hits += s.Hits
		c.resp.Misses += s.Misses
		c.resp.Coalesced += s.Coalesced
		c.resp.Evictions += s.Evictions
		c.resp.Doomed += s.Doomed
	}
	if st.svc != nil {
		add(st.svc.RespCacheStats())
		return c
	}
	c.clustered = true
	c.cluster = st.clu.Stats()
	for i := 0; i < st.clu.NumShards(); i++ {
		add(st.clu.Shard(i).RespCacheStats())
	}
	return c
}

// listener serves a handler on an ephemeral loopback port.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		if err := l.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		}
	}()
	return l, nil
}

// close drains in-flight requests (5 s at most), then waits for the serve
// goroutine to return.
func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close()
	}
	<-l.done
}

package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"evr/internal/scene"
	"evr/internal/server"
	"evr/internal/store"
	"evr/internal/telemetry"
)

// clusterSpec is a tiny deterministic video, cheap enough to ingest per
// test and route under -race.
func clusterSpec() scene.VideoSpec {
	return scene.VideoSpec{
		Name:     "CLUSTER",
		Duration: 4,
		FPS:      30,
		Objects: []scene.ObjectSpec{{
			ID: 0, BaseYaw: 0.3, BasePitch: 0.1, DriftYaw: 0.2,
			Radius: 0.35, Color: [3]byte{40, 220, 40},
		}},
		Complexity: 0.3,
	}
}

func clusterIngest() server.IngestConfig {
	cfg := server.DefaultIngestConfig()
	cfg.FullW, cfg.FullH = 48, 24
	cfg.FOVW, cfg.FOVH = 16, 16
	cfg.MaxSegments = 4
	cfg.Codec.SearchRange = 1
	return cfg
}

// newTestCluster builds an n-shard cluster with the test video ingested.
func newTestCluster(t *testing.T, n int, edgeBytes int64) *Cluster {
	t.Helper()
	opts := DefaultOptions()
	opts.Shards = n
	opts.EdgeCacheBytes = edgeBytes
	c, err := New(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(clusterSpec(), clusterIngest()); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	return c
}

// get runs one request through a handler and returns the recorder.
func get(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// segmentPaths enumerates every payload endpoint of the ingested test
// video, read from the routed manifest.
func segmentPaths(t *testing.T, h http.Handler) []string {
	t.Helper()
	rec := get(h, "/v/CLUSTER/manifest")
	if rec.Code != http.StatusOK {
		t.Fatalf("manifest: status %d: %s", rec.Code, rec.Body.String())
	}
	var man server.Manifest
	if err := json.Unmarshal(rec.Body.Bytes(), &man); err != nil {
		t.Fatalf("parsing manifest: %v", err)
	}
	var paths []string
	for _, seg := range man.Segments {
		paths = append(paths, fmt.Sprintf("/v/CLUSTER/orig/%d", seg.Index))
		for _, cl := range seg.Clusters {
			paths = append(paths,
				fmt.Sprintf("/v/CLUSTER/fov/%d/%d", seg.Index, cl.ID),
				fmt.Sprintf("/v/CLUSTER/fovmeta/%d/%d", seg.Index, cl.ID))
		}
	}
	if len(paths) < 4 {
		t.Fatalf("only %d payload paths — test video too small to exercise routing", len(paths))
	}
	return paths
}

// TestRoutedPlaybackByteIdentical is the tentpole gate: every payload the
// router serves — across shards and the edge tier — is byte-identical to
// what a single server serves for the same ingest.
func TestRoutedPlaybackByteIdentical(t *testing.T) {
	c := newTestCluster(t, 3, 1<<20)
	router := c.Handler()

	single := server.NewServiceOpts(store.New(), server.DefaultServiceOptions())
	if _, err := single.IngestVideo(clusterSpec(), clusterIngest()); err != nil {
		t.Fatalf("single ingest: %v", err)
	}
	ref := single.Handler()

	paths := append([]string{"/videos", "/v/CLUSTER/manifest"}, segmentPaths(t, router)...)
	for _, p := range paths {
		got, want := get(router, p), get(ref, p)
		if got.Code != want.Code {
			t.Errorf("%s: routed status %d, single-server %d", p, got.Code, want.Code)
			continue
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: routed bytes differ from single-server (%d vs %d bytes)",
				p, got.Body.Len(), want.Body.Len())
		}
		if ct := got.Header().Get("Content-Type"); ct != want.Header().Get("Content-Type") {
			t.Errorf("%s: routed Content-Type %q != %q", p, ct, want.Header().Get("Content-Type"))
		}
	}
}

// TestRoutingIsStableAndPartitioned pins cache affinity: repeated requests
// for one key land on one shard, and with enough keys every shard serves
// some of them.
func TestRoutingIsStableAndPartitioned(t *testing.T) {
	c := newTestCluster(t, 3, -1) // no edge tier: every request hits a shard
	router := c.Handler()
	paths := segmentPaths(t, router)

	before := make([]int64, c.NumShards())
	for i, sh := range c.Stats().Shards {
		before[i] = sh.Requests
	}
	const rounds = 4
	for r := 0; r < rounds; r++ {
		for _, p := range paths {
			if rec := get(router, p); rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d", p, rec.Code)
			}
		}
	}
	// Per-key affinity: each path's shard serves it every round, so shard
	// request deltas are all multiples of rounds.
	touched := 0
	for i, sh := range c.Stats().Shards {
		delta := sh.Requests - before[i]
		if delta%rounds != 0 {
			t.Errorf("%s: %d routed requests not a multiple of %d rounds — key affinity broken",
				sh.Name, delta, rounds)
		}
		if delta > 0 {
			touched++
		}
	}
	if touched < 2 {
		t.Errorf("only %d of %d shards served segment traffic — ring not partitioning", touched, c.NumShards())
	}
}

// TestShardKillFailoverChecksumIdentical is the failover gate: kill a
// shard mid-corpus and every payload must still be served, byte-identical,
// by the survivors; restart and it holds again.
func TestShardKillFailoverChecksumIdentical(t *testing.T) {
	c := newTestCluster(t, 3, 1<<20)
	router := c.Handler()
	paths := segmentPaths(t, router)

	baseline := make(map[string][]byte, len(paths))
	for _, p := range paths {
		rec := get(router, p)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d before kill", p, rec.Code)
		}
		baseline[p] = append([]byte(nil), rec.Body.Bytes()...)
	}

	for _, kill := range []int{0, 1} {
		if err := c.KillShard(kill); err != nil {
			t.Fatal(err)
		}
		if live := c.LiveShards(); len(live) != 2 {
			t.Fatalf("after killing shard %d: live shards %v", kill, live)
		}
		for _, p := range paths {
			rec := get(router, p)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d with shard %d down", p, rec.Code, kill)
			}
			if !bytes.Equal(rec.Body.Bytes(), baseline[p]) {
				t.Errorf("%s: bytes changed after killing shard %d", p, kill)
			}
		}
		if err := c.RestartShard(kill); err != nil {
			t.Fatal(err)
		}
		if live := c.LiveShards(); len(live) != 3 {
			t.Fatalf("after restarting shard %d: live shards %v", kill, live)
		}
		for _, p := range paths {
			rec := get(router, p)
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), baseline[p]) {
				t.Errorf("%s: corrupted after restarting shard %d (status %d)", p, kill, rec.Code)
			}
		}
	}
}

// TestEdgeCacheAbsorbsRepeats pins the edge tier: a repeated segment
// request is served at the edge without touching any shard.
func TestEdgeCacheAbsorbsRepeats(t *testing.T) {
	c := newTestCluster(t, 2, 1<<20)
	router := c.Handler()
	const path = "/v/CLUSTER/orig/0"

	first := get(router, path)
	if first.Code != http.StatusOK {
		t.Fatalf("status %d", first.Code)
	}
	if hdr := first.Header().Get("X-EVR-Edge"); hdr != "miss" {
		t.Errorf("first request X-EVR-Edge = %q, want miss", hdr)
	}
	shardReqs := func() int64 {
		var total int64
		for _, sh := range c.Stats().Shards {
			total += sh.Requests
		}
		return total
	}
	before := shardReqs()
	second := get(router, path)
	if second.Code != http.StatusOK {
		t.Fatalf("status %d", second.Code)
	}
	if hdr := second.Header().Get("X-EVR-Edge"); hdr != "hit" {
		t.Errorf("repeat request X-EVR-Edge = %q, want hit", hdr)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("edge-cached bytes differ from routed bytes")
	}
	if got := shardReqs(); got != before {
		t.Errorf("edge hit still touched a shard (%d → %d shard requests)", before, got)
	}
	if st := c.Stats(); st.Edge == nil || st.Edge.Hits == 0 {
		t.Error("edge stats recorded no hit")
	}
}

// TestKillAllShardsShedsThenRecovers pins full-outage behavior: an empty
// ring sheds 503 + Retry-After (clients back off instead of erroring),
// and a restart restores service.
func TestKillAllShardsShedsThenRecovers(t *testing.T) {
	c := newTestCluster(t, 2, -1)
	router := c.Handler()

	for i := 0; i < c.NumShards(); i++ {
		if err := c.KillShard(i); err != nil {
			t.Fatal(err)
		}
	}
	rec := get(router, "/v/CLUSTER/orig/0")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("full outage: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("full-outage 503 missing Retry-After")
	}
	if rec := get(router, "/videos"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("full outage catalog: status %d, want 503", rec.Code)
	}
	if st := c.Stats(); st.Router.NoShard == 0 {
		t.Error("no-shard counter did not move during full outage")
	}

	if err := c.RestartShard(1); err != nil {
		t.Fatal(err)
	}
	if rec := get(router, "/v/CLUSTER/orig/0"); rec.Code != http.StatusOK {
		t.Errorf("after restart: status %d, want 200", rec.Code)
	}
}

// TestClusterSoakUnderTopologyChurn hammers the router from many
// goroutines while shards are killed and restarted. Run under -race by
// ci.sh. Every 200 must carry the baseline bytes; 503s are acceptable
// (shed) but corruption never is.
func TestClusterSoakUnderTopologyChurn(t *testing.T) {
	c := newTestCluster(t, 3, 256<<10)
	router := c.Handler()
	paths := segmentPaths(t, router)

	baseline := make(map[string][]byte, len(paths))
	for _, p := range paths {
		rec := get(router, p)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: baseline status %d", p, rec.Code)
		}
		baseline[p] = append([]byte(nil), rec.Body.Bytes()...)
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			victim := i % c.NumShards()
			c.KillShard(victim) //nolint:errcheck // index always in range
			time.Sleep(2 * time.Millisecond)
			c.RestartShard(victim) //nolint:errcheck // index always in range
			time.Sleep(time.Millisecond)
		}
	}()

	const workers = 8
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 40; round++ {
				p := paths[(w+round)%len(paths)]
				rec := get(router, p)
				switch rec.Code {
				case http.StatusOK:
					if !bytes.Equal(rec.Body.Bytes(), baseline[p]) {
						errs <- fmt.Errorf("%s: corrupted bytes under churn", p)
						return
					}
				case http.StatusServiceUnavailable:
					// Shed during a window with the key's owners down — fine.
				default:
					errs <- fmt.Errorf("%s: status %d under churn", p, rec.Code)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := c.Stats()
	if st.Router.Requests == 0 {
		t.Fatal("soak routed no requests")
	}
	t.Logf("soak: %d requests, %d rerouted, %d shed, %d no-shard, edge hit rate %.2f",
		st.Router.Requests, st.Router.Rerouted, st.Router.ShedForwarded,
		st.Router.NoShard, st.Edge.HitRate())
}

// TestReingestVisibleThroughRouter pins purge propagation: after a
// re-ingest, the routed path serves the new bytes immediately — no stale
// edge or shard-cache payloads survive.
func TestReingestVisibleThroughRouter(t *testing.T) {
	c := newTestCluster(t, 2, 1<<20)
	router := c.Handler()
	const path = "/v/CLUSTER/orig/0"

	before := get(router, path)
	get(router, path) // ensure the edge holds it
	if before.Code != http.StatusOK {
		t.Fatalf("status %d", before.Code)
	}

	spec := clusterSpec()
	spec.Objects[0].Color = [3]byte{220, 40, 220} // different pixels, same layout
	if _, err := c.Ingest(spec, clusterIngest()); err != nil {
		t.Fatalf("re-ingest: %v", err)
	}
	after := get(router, path)
	if after.Code != http.StatusOK {
		t.Fatalf("status %d after re-ingest", after.Code)
	}
	if bytes.Equal(before.Body.Bytes(), after.Body.Bytes()) {
		t.Error("routed path served stale bytes after re-ingest")
	}
}

// TestClusterMetricsEndpoints sanity-checks the observability surface.
func TestClusterMetricsEndpoints(t *testing.T) {
	c := newTestCluster(t, 2, 1<<20)
	router := c.Handler()
	get(router, "/v/CLUSTER/orig/0")

	rec := get(router, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	for _, want := range []string{`"router"`, `"edge"`, `"shards"`, `"shard-0"`} {
		if !bytes.Contains(rec.Body.Bytes(), []byte(want)) {
			t.Errorf("/metrics JSON missing %s", want)
		}
	}
	prom := get(router, "/metrics?format=prom")
	for _, want := range []string{promRouterRequests, "evr_edge_hits_total", promRouterShardRequests} {
		if !bytes.Contains(prom.Body.Bytes(), []byte(want)) {
			t.Errorf("prom exposition missing %s", want)
		}
	}
	health := get(router, "/healthz")
	if health.Code != http.StatusOK || !bytes.Contains(health.Body.Bytes(), []byte(`"live":2`)) {
		t.Errorf("/healthz = %d %s", health.Code, health.Body.String())
	}
}

// TestNewRejectsBadOptions pins the constructor edges.
func TestNewRejectsBadOptions(t *testing.T) {
	if _, err := New(nil, Options{Shards: 0}); err == nil {
		t.Error("Shards=0 accepted")
	}
	c, err := New(nil, Options{Shards: 1, EdgeCacheBytes: -1, Shard: server.DefaultServiceOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if c.edge != nil {
		t.Error("negative EdgeCacheBytes did not disable the edge tier")
	}
	if err := c.KillShard(5); err == nil {
		t.Error("out-of-range KillShard accepted")
	}
	if err := c.RestartShard(-1); err == nil {
		t.Error("out-of-range RestartShard accepted")
	}
}

// TestEdgePurgeVideoDoomsInflight pins the edge tier's overtaken-flight
// rule: a purge landing while a routed load is in flight serves the load's
// result to its waiters but never caches it.
func TestEdgePurgeVideoDoomsInflight(t *testing.T) {
	ec := newEdgeCache(1<<20, telemetry.NewRegistry())
	loadStarted := make(chan struct{})
	releaseLoad := make(chan struct{})
	loads := 0
	done := make(chan *edgeResp, 1)
	key := edgeKey{video: "V", seg: "0", kind: "orig"}
	go func() {
		resp, _ := edgeGet(ec, key, func() (*edgeResp, int) {
			loads++
			close(loadStarted)
			<-releaseLoad
			return &edgeResp{status: http.StatusOK, body: []byte("stale")}, 0
		})
		done <- resp
	}()
	<-loadStarted
	purgeEdgeVideo(ec, "V")
	close(releaseLoad)
	if resp := <-done; string(resp.body) != "stale" {
		t.Fatalf("waiter got %q, want the in-flight result", resp.body)
	}
	// The doomed flight must not have cached: the next get loads again.
	fresh, hit := edgeGet(ec, key, func() (*edgeResp, int) {
		loads++
		return &edgeResp{status: http.StatusOK, body: []byte("fresh")}, 0
	})
	if hit || string(fresh.body) != "fresh" || loads != 2 {
		t.Errorf("purged-during-flight entry was cached: hit=%v body=%q loads=%d", hit, fresh.body, loads)
	}
	if st := edgeStats(ec); st.Doomed != 1 {
		t.Errorf("Doomed = %d, want 1", st.Doomed)
	}
}

// TestEdgePurgeMovedTargetsOwnership pins the targeted topology purge:
// only entries whose key ownership moved are dropped.
func TestEdgePurgeMovedTargetsOwnership(t *testing.T) {
	ec := newEdgeCache(1<<20, telemetry.NewRegistry())
	stay := edgeKey{video: "V", seg: "0", kind: "orig"}
	move := edgeKey{video: "V", seg: "1", kind: "orig"}
	edgeGet(ec, stay, func() (*edgeResp, int) { return &edgeResp{status: 200, body: []byte("a")}, 0 })
	edgeGet(ec, move, func() (*edgeResp, int) { return &edgeResp{status: 200, body: []byte("b")}, 1 })

	// Shard 1 died: its keys now belong to shard 0, shard 0's keys don't move.
	purgeEdgeMoved(ec, func(video, seg string) int { return 0 })

	if _, hit := edgeGet(ec, stay, func() (*edgeResp, int) { t.Fatal("stable entry reloaded"); return nil, -1 }); !hit {
		t.Error("entry with unmoved ownership was purged")
	}
	reloaded := false
	edgeGet(ec, move, func() (*edgeResp, int) {
		reloaded = true
		return &edgeResp{status: 200, body: []byte("b")}, 0
	})
	if !reloaded {
		t.Error("entry whose ownership moved survived the topology purge")
	}
	if st := edgeStats(ec); st.Purged != 1 {
		t.Errorf("Purged = %d, want 1", st.Purged)
	}
}

// TestEdgeUncacheableResponsesPassThrough pins that 404s and sheds are
// never cached — a recovered shard is visible immediately.
func TestEdgeUncacheableResponsesPassThrough(t *testing.T) {
	ec := newEdgeCache(1<<20, telemetry.NewRegistry())
	key := edgeKey{video: "V", seg: "9", kind: "orig"}
	loads := 0
	for i := 0; i < 2; i++ {
		resp, hit := edgeGet(ec, key, func() (*edgeResp, int) {
			loads++
			return &edgeResp{status: http.StatusNotFound, body: []byte("nope")}, 0
		})
		if hit || string(resp.body) != "nope" {
			t.Fatalf("uncacheable response: hit=%v body=%q", hit, resp.body)
		}
	}
	if loads != 2 {
		t.Errorf("404 was cached: %d loads, want 2", loads)
	}
	// A 200 that no live shard served (owner -1) is served, never cached.
	for i := 0; i < 2; i++ {
		edgeGet(ec, key, func() (*edgeResp, int) {
			loads++
			return &edgeResp{status: http.StatusOK, body: []byte("orphan")}, -1
		})
	}
	if st := edgeStats(ec); loads != 4 || st.Entries != 0 {
		t.Errorf("ownerless response was cached: %d loads, %+v", loads, st)
	}
}

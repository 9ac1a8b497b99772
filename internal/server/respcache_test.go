package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"evr/internal/codec"
	"evr/internal/lru"
	"evr/internal/telemetry"
)

func newTestRespCache(maxBytes int64) *respCache {
	return newRespCache(maxBytes, telemetry.NewRegistry())
}

func rk(video string, seg int) respKey {
	return respKey{video: video, seg: seg, kind: respOrig}
}

// TestRespCacheHitAfterMiss pins the port's shape: payloads are served
// through the cache, priced by their byte length, and reported in
// RespCacheStats.
func TestRespCacheHitAfterMiss(t *testing.T) {
	svc := fabricateService(t, DefaultServiceOptions())
	key := respKey{video: "V", seg: 0, kind: respOrig}
	first, ok := svc.payload(key)
	if !ok {
		t.Fatal("seed payload unavailable")
	}
	for i := 0; i < 2; i++ {
		if data, ok := svc.payload(key); !ok || string(data) != string(first) {
			t.Fatalf("get %d = %d bytes, %v", i, len(data), ok)
		}
	}
	st, ok := svc.RespCacheStats()
	if !ok || st.Hits != 2 || st.Misses != 1 || st.Entries != 1 || st.Bytes != int64(len(first)) ||
		st.MaxBytes != DefaultServiceOptions().RespCacheBytes {
		t.Errorf("stats = %+v", st)
	}
}

// TestRespCacheNegativeResultNotCached pins the store-miss sentinel: a key
// absent from the store answers !ok, is never cached, and a later request
// goes back to the store.
func TestRespCacheNegativeResultNotCached(t *testing.T) {
	svc := fabricateService(t, DefaultServiceOptions())
	for i := 0; i < 2; i++ {
		if _, ok := svc.payload(respKey{video: "V", seg: 9, kind: respOrig}); ok {
			t.Fatalf("missing key reported ok (get %d)", i)
		}
	}
	if st, _ := svc.RespCacheStats(); st.Misses != 2 || st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("negative result was cached: %+v", st)
	}
}

// TestRespCacheOversizedPayloadServedNotCached pins that a budget below
// the payload size still serves every request, and that the rejection is
// visible in RespCacheStats instead of masquerading as a 0% hit rate.
func TestRespCacheOversizedPayloadServedNotCached(t *testing.T) {
	opts := DefaultServiceOptions()
	opts.RespCacheBytes = 4
	svc := fabricateService(t, opts)
	for i := 0; i < 2; i++ {
		if data, ok := svc.payload(respKey{video: "V", seg: 0, kind: respOrig}); !ok || len(data) <= 4 {
			t.Fatalf("oversized payload not served: %d bytes, %v", len(data), ok)
		}
	}
	st, _ := svc.RespCacheStats()
	if st.Misses != 2 || st.Oversized != 2 || st.Entries != 0 || st.Bytes != 0 || st.Evictions != 0 {
		t.Errorf("oversized accounting: %+v", st)
	}
}

// payloadLoad returns a load that yields data.
func payloadLoad(data string) func() ([]byte, error) {
	return func() ([]byte, error) { return []byte(data), nil }
}

func TestRespCachePurgeVideo(t *testing.T) {
	c := newTestRespCache(1 << 20)
	for seg := 0; seg < 3; seg++ {
		c.Get(rk("a", seg), payloadLoad("abc"))
		c.Get(rk("b", seg), payloadLoad("de"))
	}
	purgeRespVideo(c, "a")
	st := respCacheStats(c)
	if st.Entries != 3 || st.Bytes != 6 {
		t.Fatalf("after purge: %+v", st)
	}
	for seg := 0; seg < 3; seg++ {
		if c.Peek(rk("a", seg)) {
			t.Errorf("purged video's seg %d still resident", seg)
		}
		if !c.Peek(rk("b", seg)) {
			t.Errorf("purge dropped another video's seg %d", seg)
		}
	}
}

// TestRespCachePurgeSegment pins the live-publish purge: one (video,
// segment) goes, its neighbours and other videos stay.
func TestRespCachePurgeSegment(t *testing.T) {
	c := newTestRespCache(1 << 20)
	for seg := 0; seg < 2; seg++ {
		c.Get(rk("a", seg), payloadLoad("x"))
		c.Get(rk("b", seg), payloadLoad("y"))
	}
	purgeRespSegment(c, "a", 1)
	if c.Peek(rk("a", 1)) || !c.Peek(rk("a", 0)) || !c.Peek(rk("b", 1)) {
		t.Errorf("segment purge hit the wrong keys: a0=%v a1=%v b1=%v", c.Peek(rk("a", 0)), c.Peek(rk("a", 1)), c.Peek(rk("b", 1)))
	}
}

// TestRespCachePurgeDoomsInflightLoad pins the re-ingest staleness bug:
// a flight that started before purgeRespVideo ran cannot prove its store read
// happened after the republish, so its result must be served to the
// waiters it already collected but never inserted into the cache. Before
// the fix the flight completed after the purge and repopulated the cache
// with the stale payload.
func TestRespCachePurgeDoomsInflightLoad(t *testing.T) {
	c := newTestRespCache(1 << 20)
	key := rk("V", 0)
	started := make(chan struct{})
	release := make(chan struct{})
	type result struct {
		data []byte
		ok   bool
	}
	got := make(chan result, 1)
	go func() {
		data, _, err := c.Get(key, func() ([]byte, error) {
			close(started)
			<-release // the load is mid-read while the purge lands
			return []byte("stale"), nil
		})
		got <- result{data, err == nil}
	}()
	<-started
	purgeRespVideo(c, "V") // re-ingest republishes while the load is in flight
	close(release)

	r := <-got
	if !r.ok || string(r.data) != "stale" {
		t.Fatalf("doomed flight not served to its waiters: %q, %v", r.data, r.ok)
	}
	// The stale result must not have been cached: the next request reloads
	// and sees the post-republish payload.
	data, outcome, err := c.Get(key, payloadLoad("fresh"))
	if outcome != lru.Miss {
		t.Fatal("purged-mid-flight payload was re-inserted into the cache")
	}
	if err != nil || string(data) != "fresh" {
		t.Fatalf("post-purge get = %q, %v", data, err)
	}
	st := respCacheStats(c)
	if st.Doomed != 1 {
		t.Errorf("Doomed = %d, want 1", st.Doomed)
	}
	cached, outcome, _ := c.Get(key, payloadLoad("reloaded"))
	if st.Entries != 1 || outcome != lru.Hit || string(cached) != "fresh" {
		t.Errorf("cache holds the wrong payload: %q (%v), %+v", cached, outcome, st)
	}
}

// TestRespCachePurgeDoomsOnlyThatVideo pins the targeting: a purge of one
// video leaves another video's concurrent flight cacheable.
func TestRespCachePurgeDoomsOnlyThatVideo(t *testing.T) {
	c := newTestRespCache(1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Get(rk("other", 0), func() ([]byte, error) {
			close(started)
			<-release
			return []byte("kept"), nil
		})
	}()
	<-started
	purgeRespVideo(c, "V")
	close(release)
	<-done
	if !c.Peek(rk("other", 0)) {
		t.Error("unrelated video's in-flight load was doomed by the purge")
	}
	if st := respCacheStats(c); st.Doomed != 0 {
		t.Errorf("Doomed = %d, want 0", st.Doomed)
	}
}

// TestServiceReingestDuringSlowLoad is the service-level interleave the
// issue pins: with StoreDelay widening the load window, a request that is
// mid-load when a re-ingest purges the video must not repopulate the cache
// afterward — the next request has to go back to the (fresh) store.
func TestServiceReingestDuringSlowLoad(t *testing.T) {
	opts := DefaultServiceOptions()
	opts.StoreDelay = 150 * time.Millisecond
	svc := fabricateService(t, opts)

	done := make(chan error, 1)
	go func() {
		_, ok := svc.payload(respKey{video: "V", seg: 0, kind: respOrig})
		if !ok {
			done <- fmt.Errorf("in-flight request failed")
			return
		}
		done <- nil
	}()
	// Let the request enter its slow load, then republish the video the way
	// IngestVideo does: overwrite the store and purge the cache.
	time.Sleep(30 * time.Millisecond)
	fresh := marshalBitstream(&codec.Bitstream{W: 16, H: 8, Frames: [][]byte{{9, 9, 9, 9}}, Types: []codec.FrameType{codec.IFrame}})
	if err := svc.store.Put(origKey("V", 0), fresh, nil); err != nil {
		t.Fatal(err)
	}
	purgeRespVideo(svc.cache, "V")
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// The doomed flight's payload must not be cached: this request has to
	// miss and read the republished store.
	missesBefore := svc.cache.Stats().Misses
	data, ok := svc.payload(respKey{video: "V", seg: 0, kind: respOrig})
	if !ok {
		t.Fatal("post-republish request failed")
	}
	if string(data) != string(fresh) {
		t.Fatal("post-republish request served the pre-republish payload")
	}
	if got := svc.cache.Stats().Misses - missesBefore; got != 1 {
		t.Errorf("post-republish request hit the cache (misses delta %d, want 1): stale payload survived the purge", got)
	}
}

// TestRespCacheConcurrentChurn hammers a small cache from many goroutines
// under -race: hits, misses, evictions, and video purges all interleaving.
func TestRespCacheConcurrentChurn(t *testing.T) {
	c := newTestRespCache(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				seg := (g + i) % 12
				video := fmt.Sprintf("v%d", i%3)
				data, _, err := c.Get(respKey{video: video, seg: seg, kind: respFOV}, func() ([]byte, error) {
					return make([]byte, 16+seg), nil
				})
				if err != nil || len(data) != 16+seg {
					t.Errorf("churn get seg %d: %d bytes, %v", seg, len(data), err)
					return
				}
				if i%50 == 0 {
					purgeRespVideo(c, video)
				}
			}
		}(g)
	}
	wg.Wait()
	st := respCacheStats(c)
	if st.Bytes > 256 {
		t.Errorf("cache grew past budget: %+v", st)
	}
	if st.Hits+st.Misses+st.Coalesced != 8*200 {
		t.Errorf("accounting leak: hits+misses+coalesced = %d, want %d", st.Hits+st.Misses+st.Coalesced, 8*200)
	}
}

func TestNewRespCacheDisabled(t *testing.T) {
	if c := newTestRespCache(0); c != nil {
		t.Error("zero budget built a cache")
	}
	if c := newTestRespCache(-5); c != nil {
		t.Error("negative budget built a cache")
	}
	// The disabled (nil) cache still serves from the store, and the purge
	// paths that used to be guarded on it are no-ops.
	svc := fabricateService(t, ServiceOptions{})
	svc.Publish(svc.manifests["V"])
	for i := 0; i < 2; i++ {
		if data, ok := svc.payload(respKey{video: "V", seg: 0, kind: respOrig}); !ok || len(data) == 0 {
			t.Fatalf("disabled cache: get %d failed", i)
		}
	}
	if st, ok := svc.RespCacheStats(); ok || st != (RespCacheStats{}) {
		t.Errorf("disabled cache reported stats %+v, %v", st, ok)
	}
}

package client

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"evr/internal/frame"
)

func ckey(seg, cluster int) segmentKey {
	return segmentKey{video: "v", seg: seg, cluster: cluster}
}

// entryLoad returns a load yielding a one-frame entry that counts its runs.
func entryLoad(runs *atomic.Int64) func() (*segmentEntry, error) {
	return func() (*segmentEntry, error) {
		runs.Add(1)
		return &segmentEntry{frames: []*frame.Frame{frame.New(2, 2)}}, nil
	}
}

// TestSegmentCacheLRUEviction pins the fetcher's count budget: capacity is
// CacheSegments whole segments, the least recently used one goes first, and
// evictions surface in Counters.
func TestSegmentCacheLRUEviction(t *testing.T) {
	f := NewFetcher(FetchConfig{CacheSegments: 2}, nil)
	defer f.Close()
	var runs atomic.Int64
	for _, seg := range []int{0, 1, 0, 2} { // touching 0 makes 1 the victim
		f.segment(ckey(seg, 0), false, entryLoad(&runs))
	}
	if f.cache.Peek(ckey(1, 0)) || !f.cache.Peek(ckey(0, 0)) || !f.cache.Peek(ckey(2, 0)) {
		t.Error("wrong LRU victim")
	}
	if c := f.Counters(); c.Evictions != 1 || c.CacheHits != 1 || runs.Load() != 3 {
		t.Errorf("evictions=%d cacheHits=%d loads=%d, want 1/1/3", c.Evictions, c.CacheHits, runs.Load())
	}
}

// TestSegmentCachePrefetchFlagConsumedOnce pins the PrefetchHit accounting:
// a prefetched entry counts as one PrefetchHit for the first demand lookup
// that hits or joins it, never for a second, and a prefetch of a resident
// segment short-circuits without loading.
func TestSegmentCachePrefetchFlagConsumedOnce(t *testing.T) {
	f := NewFetcher(FetchConfig{CacheSegments: 4, Prefetch: true}, nil)
	defer f.Close()
	var runs atomic.Int64

	// Resident prefetched entry: first demand hit consumes the flag.
	f.segment(ckey(0, 0), true, entryLoad(&runs))
	f.segment(ckey(0, 0), true, entryLoad(&runs)) // resident: Peek short-circuits
	for i := 0; i < 2; i++ {
		if _, err := f.segment(ckey(0, 0), false, entryLoad(&runs)); err != nil {
			t.Fatal(err)
		}
	}
	if c := f.Counters(); runs.Load() != 1 || c.CacheHits != 2 || c.PrefetchHits != 1 {
		t.Fatalf("after resident hits: loads=%d %+v, want 1 load, 2 cache hits, 1 prefetch hit", runs.Load(), c)
	}

	// In-flight prefetch: of two demand joiners only one counts it.
	release := make(chan struct{})
	started := make(chan struct{})
	go f.segment(ckey(1, 0), true, func() (*segmentEntry, error) {
		close(started)
		<-release
		return entryLoad(&runs)()
	})
	<-started
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.segment(ckey(1, 0), false, entryLoad(&runs))
		}()
	}
	for f.cache.Stats().Coalesced != 2 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	f.segment(ckey(1, 0), false, entryLoad(&runs)) // resident, flag already consumed
	if c := f.Counters(); runs.Load() != 2 || c.CacheHits != 5 || c.PrefetchHits != 2 {
		t.Fatalf("after joined prefetch: loads=%d %+v, want 2 loads, 5 cache hits, 2 prefetch hits", runs.Load(), c)
	}
}

// TestNilSegmentCacheNeverHits pins CacheSegments = 0: nothing is kept, so
// sequential demand lookups each load, and prefetching is off.
func TestNilSegmentCacheNeverHits(t *testing.T) {
	f := NewFetcher(FetchConfig{CacheSegments: 0, Prefetch: true}, nil)
	defer f.Close()
	var runs atomic.Int64
	for i := 0; i < 2; i++ {
		f.segment(ckey(0, 0), false, entryLoad(&runs))
	}
	f.PrefetchOrig("http://127.0.0.1:1", "v", 0)
	f.Wait()
	if c := f.Counters(); runs.Load() != 2 || c.CacheHits != 0 || c.PrefetchIssued != 0 || c.Evictions != 0 {
		t.Errorf("disabled cache not inert: loads=%d %+v", runs.Load(), c)
	}
}

// TestFetcherDemandLoadsOncePerKey pins the duplicate-download window: a
// demand lookup landing between a finishing flight's completion and its
// cache insert used to find neither and download the segment again (tens
// of the 20 000 keys did, with or without -race). Each key must load
// exactly once however the lookups interleave.
func TestFetcherDemandLoadsOncePerKey(t *testing.T) {
	const keys, goroutines = 20000, 6
	f := NewFetcher(FetchConfig{CacheSegments: keys}, nil)
	defer f.Close()
	loads := make([]atomic.Int64, keys)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				f.segment(ckey(k, 0), false, entryLoad(&loads[k]))
			}
		}()
	}
	wg.Wait()
	dup := 0
	for k := range loads {
		if loads[k].Load() != 1 {
			dup++
		}
	}
	if dup > 0 {
		t.Errorf("%d of %d keys loaded more than once", dup, keys)
	}
}

package server

import (
	"errors"
	"time"

	"evr/internal/lru"
	"evr/internal/telemetry"
)

// ServiceOptions tunes the serving path for multi-user load: the response
// cache that keeps hot encoded payloads out of the store, and the
// admission-control knob that sheds load instead of queueing it. The zero
// value disables both — the seed behavior of a cold store.Get per request.
type ServiceOptions struct {
	// RespCacheBytes bounds the server-side response cache of encoded
	// segment payloads (originals, FOV videos, FOV metadata), in bytes of
	// cached payload. ≤ 0 disables the cache; concurrent identical misses
	// then each hit the store on their own.
	RespCacheBytes int64
	// MaxInFlight caps concurrently served segment requests (orig, fov,
	// fovmeta — the payload endpoints; manifest and metrics are exempt).
	// Beyond the cap the server answers 503 with a Retry-After header
	// instead of queueing, so overload degrades into client backoff rather
	// than unbounded goroutine pile-up. ≤ 0 means unlimited.
	MaxInFlight int
	// RetryAfter is the hint advertised on 503 responses. 0 = 1 s.
	RetryAfter time.Duration
	// StoreDelay adds synthetic latency to every store read that misses
	// the response cache. It models a remote or disk-backed SAS store for
	// load tests (the in-memory store is otherwise too fast to expose
	// coalescing and admission behavior). 0 = none.
	StoreDelay time.Duration
}

// DefaultServiceOptions enables a 64 MiB response cache, no admission cap,
// and the 1 s Retry-After hint.
func DefaultServiceOptions() ServiceOptions {
	return ServiceOptions{RespCacheBytes: 64 << 20, RetryAfter: time.Second}
}

// RespCacheStats is a point-in-time view of the response cache.
type RespCacheStats struct {
	Hits      int64 `json:"hits"`      // served straight from the cache
	Misses    int64 `json:"misses"`    // loaded from the store (one per flight)
	Coalesced int64 `json:"coalesced"` // requests that joined an in-flight identical miss
	Evictions int64 `json:"evictions"` // entries dropped to stay under the byte budget
	Oversized int64 `json:"oversized"` // payloads larger than the whole budget (served, never cached)
	Doomed    int64 `json:"doomed"`    // in-flight loads overtaken by a purge (served, never cached)
	Entries   int64 `json:"entries"`   // live cached payloads
	Bytes     int64 `json:"bytes"`     // live cached payload bytes
	MaxBytes  int64 `json:"maxBytes"`  // configured budget
}

// respKind distinguishes the payload shapes sharing the cache.
type respKind uint8

const (
	respOrig respKind = iota
	respFOV
	respFOVMeta
	respTile
	respTileLow
)

// respKey identifies one cacheable response payload: (video, seg, cluster)
// plus which of the segment's payloads it is. Originals use cluster 0;
// tile payloads use (tile, rung) with cluster 0.
type respKey struct {
	video   string
	seg     int
	cluster int
	tile    int
	rung    int
	kind    respKind
}

// Prometheus metric names for admission control and live serving. The
// response cache's own series are evr_respcache_* (see internal/lru).
const (
	promThrottled  = "evr_http_throttled_total"
	promTooEarly   = "evr_http_too_early_total"
	promLiveBehind = "evr_live_behind_seconds"
)

// respCache is a bounded LRU of encoded response payloads (immutable byte
// slices served to many requests concurrently) with singleflight
// coalescing of concurrent identical misses. The budget is payload bytes,
// not entries, because FOV metadata is ~KBs while segments are ~MBs. The
// nil cache (RespCacheBytes ≤ 0) loads every request from the store.
type respCache = lru.Cache[respKey, []byte]

// errNotStored is the load result for a key absent from the store: every
// waiter of the flight sees it and it is never cached, so a later request
// retries.
var errNotStored = errors.New("server: payload not in store")

// newRespCache builds the response cache with the given payload-byte
// budget, its evr_respcache_* series on reg. maxBytes ≤ 0 returns nil.
func newRespCache(maxBytes int64, reg *telemetry.Registry) *respCache {
	if maxBytes <= 0 {
		return nil
	}
	return lru.New[respKey](maxBytes, func(b []byte) int64 { return int64(len(b)) }, reg, "evr_respcache")
}

// purgeRespVideo drops every cached payload of one video and dooms its
// in-flight loads — called on (re-)ingest so stale responses never outlive
// a republish: a flight that started before the purge may have read the
// pre-republish store.
func purgeRespVideo(c *respCache, video string) {
	c.Purge(func(k respKey, _ []byte) bool { return k.video == video },
		func(k respKey) bool { return k.video == video })
}

// purgeRespSegment is purgeRespVideo narrowed to one (video, segment) — the
// live-publish counterpart, so a publish is immediately visible without
// evicting the rest of the video.
func purgeRespSegment(c *respCache, video string, seg int) {
	match := func(k respKey) bool { return k.video == video && k.seg == seg }
	c.Purge(func(k respKey, _ []byte) bool { return match(k) }, match)
}

// respCacheStats converts the cache's stats to the exported shape.
func respCacheStats(c *respCache) RespCacheStats {
	st := c.Stats()
	return RespCacheStats{
		Hits:      st.Hits,
		Misses:    st.Misses,
		Coalesced: st.Coalesced,
		Evictions: st.Evictions,
		Oversized: st.Oversized,
		Doomed:    st.Doomed,
		Entries:   st.Entries,
		Bytes:     st.Bytes,
		MaxBytes:  st.Budget,
	}
}

package ptlut

import (
	"time"

	"evr/internal/lru"
	"evr/internal/telemetry"
)

// promBuildSecs names the table-build histogram; the cache's other series
// are evr_ptlut_* (see internal/lru).
const promBuildSecs = "evr_ptlut_build_seconds"

// DefaultCacheBytes is the default table budget: enough for a few 1080p
// bilinear tables (~66 MB each) or hundreds of ingest-scale ones.
const DefaultCacheBytes = 256 << 20

// CacheStats is a point-in-time view of a mapping-LUT cache.
type CacheStats struct {
	Hits      int64 `json:"hits"`      // renders served from a resident table
	Misses    int64 `json:"misses"`    // table builds (one per flight)
	Coalesced int64 `json:"coalesced"` // renders that joined an in-flight build
	Evictions int64 `json:"evictions"` // tables dropped to stay under the byte budget
	Oversized int64 `json:"oversized"` // tables larger than the whole budget (built, served, never cached)
	Entries   int64 `json:"entries"`   // resident tables
	Bytes     int64 `json:"bytes"`     // resident table bytes
	MaxBytes  int64 `json:"maxBytes"`  // configured budget
}

// Cache is a bytes-budgeted LRU of mapping tables with singleflight build
// coalescing (internal/lru, the same primitive as the server's response
// cache): tables are immutable and served to many concurrent renders;
// eviction is size-based because a 1080p bilinear table outweighs an
// ingest-scale one by ~3 orders of magnitude. Safe for concurrent use. The
// nil *Cache is valid and caches nothing — every Get builds.
type Cache struct {
	tables    *lru.Cache[Key, *Table]
	buildSecs *telemetry.Histogram
}

// NewCache builds a table cache with the given byte budget (<= 0 uses
// DefaultCacheBytes), hanging its evr_ptlut_* metrics on reg (nil = no
// telemetry).
func NewCache(maxBytes int64, reg *telemetry.Registry) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	reg.SetHelp(promBuildSecs, "mapping-table build wall time in seconds")
	return &Cache{
		tables:    lru.New[Key](maxBytes, (*Table).Bytes, reg, "evr_ptlut"),
		buildSecs: reg.Histogram(promBuildSecs, telemetry.DefaultStageBuckets()),
	}
}

// Get returns the table for key, building it at most once per concurrent
// wave: the first miss runs build, concurrent identical requests wait on
// that flight, and the finished table is inserted under the LRU byte
// budget. A nil cache (or a failed build) falls through to the caller:
// build errors are returned, never cached.
func (c *Cache) Get(key Key, build func() (*Table, error)) (*Table, error) {
	if c == nil {
		return build()
	}
	tbl, _, err := c.tables.Get(key, func() (*Table, error) {
		t0 := time.Now()
		tbl, err := build()
		c.buildSecs.ObserveDuration(time.Since(t0))
		return tbl, err
	})
	return tbl, err
}

// Stats snapshots the cache counters. The nil cache reports zeros.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	st := c.tables.Stats()
	return CacheStats{
		Hits:      st.Hits,
		Misses:    st.Misses,
		Coalesced: st.Coalesced,
		Evictions: st.Evictions,
		Oversized: st.Oversized,
		Entries:   st.Entries,
		Bytes:     st.Bytes,
		MaxBytes:  st.Budget,
	}
}

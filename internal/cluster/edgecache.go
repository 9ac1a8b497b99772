package cluster

import (
	"errors"
	"net/http"

	"evr/internal/lru"
	"evr/internal/telemetry"
)

// edgeKey identifies one cacheable routed response. The components are raw
// path values: for every request a shard answers 200 they are canonical
// (the shard's own parsing guarantees it), so no two keys alias one
// payload.
type edgeKey struct {
	video   string
	seg     string
	cluster string // "" for originals
	kind    string // "orig", "fov", "fovmeta"
}

// edgeResp is one upstream response held by the edge tier: enough of the
// HTTP surface to replay it byte-identically — status, the content type,
// the Retry-After shed hint, the live publish timestamp, and the body.
// publishedAt is safe to cache: a segment's timestamp is immutable per
// publish, and every publish purges its edge entries first.
type edgeResp struct {
	status      int
	contentType string
	retryAfter  string
	publishedAt string // X-EVR-Published-At-Ns, "" for VOD payloads
	body        []byte
}

// cacheable reports whether the response may enter the edge cache: only
// successful payloads. Shed signals (503 + Retry-After), 404s, and errors
// pass through uncached so a recovered shard is visible immediately.
func (r *edgeResp) cacheable() bool { return r.status == http.StatusOK }

// edgeVal is one resident payload plus the shard that served it — the
// ownership record the topology purge matches against.
type edgeVal struct {
	resp  *edgeResp
	owner int
}

// EdgeStats is a point-in-time view of the edge cache.
type EdgeStats struct {
	Hits      int64 `json:"hits"`      // served at the edge, no shard touched
	Misses    int64 `json:"misses"`    // routed to a shard (one per flight)
	Coalesced int64 `json:"coalesced"` // requests that joined an in-flight identical load
	Evictions int64 `json:"evictions"` // entries dropped under the byte budget
	Oversized int64 `json:"oversized"` // payloads larger than the whole budget (served, never cached)
	Doomed    int64 `json:"doomed"`    // in-flight loads overtaken by a purge or topology change
	Purged    int64 `json:"purged"`    // entries dropped by video purges and topology changes
	Entries   int64 `json:"entries"`   // live cached payloads
	Bytes     int64 `json:"bytes"`     // live cached payload bytes
	MaxBytes  int64 `json:"maxBytes"`  // configured budget
}

// HitRate returns the edge hit fraction over all lookups so far.
func (s EdgeStats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Coalesced
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// edgeCache is the router's second-level response cache: a bounded LRU of
// routed payloads with singleflight coalescing, the same primitive as the
// shard-side respCache but keyed on raw path values and carrying full
// response envelopes plus shard ownership. It is what absorbs the head of
// a Zipf popularity distribution before it reaches any shard. The nil
// cache (edge tier disabled) routes every request.
type edgeCache = lru.Cache[edgeKey, edgeVal]

// errUncached is the load result for a response that must not enter the
// edge: not cacheable, or no live shard served it. Waiters still get the
// response through the value.
var errUncached = errors.New("cluster: response not cacheable at the edge")

// newEdgeCache builds an edge cache with the given payload-byte budget,
// its evr_edge_* series on reg. maxBytes ≤ 0 returns nil.
func newEdgeCache(maxBytes int64, reg *telemetry.Registry) *edgeCache {
	if maxBytes <= 0 {
		return nil
	}
	return lru.New[edgeKey](maxBytes, func(v edgeVal) int64 { return int64(len(v.resp.body)) }, reg, "evr_edge")
}

// edgeGet serves key from the edge when resident, otherwise routes exactly
// one load per concurrent wave through load (which returns the upstream
// response and the shard that served it, -1 when routing failed). Only
// cacheable responses from a live shard are inserted, and only when no
// purge or topology change overtook the flight. hit reports an edge serve.
func edgeGet(c *edgeCache, key edgeKey, load func() (*edgeResp, int)) (resp *edgeResp, hit bool) {
	v, outcome, _ := c.Get(key, func() (edgeVal, error) {
		resp, owner := load()
		if !resp.cacheable() || owner < 0 {
			return edgeVal{resp: resp}, errUncached
		}
		return edgeVal{resp: resp, owner: owner}, nil
	})
	return v.resp, outcome == lru.Hit
}

// purgeEdgeVideo drops every edge payload of one video and dooms its
// in-flight loads — re-ingest purge propagation, with the same
// overtaken-flight rule the shard cache applies.
func purgeEdgeVideo(c *edgeCache, video string) {
	c.Purge(func(k edgeKey, _ edgeVal) bool { return k.video == video },
		func(k edgeKey) bool { return k.video == video })
}

// purgeEdgeSegment drops every edge payload of one (video, segment) and
// dooms its in-flight loads — live-publish propagation: the segment
// transitions from 425 to a real payload, and any cached too-early
// envelope or stale flight must not outlive the publish.
func purgeEdgeSegment(c *edgeCache, video, seg string) {
	match := func(k edgeKey) bool { return k.video == video && k.seg == seg }
	c.Purge(func(k edgeKey, _ edgeVal) bool { return match(k) }, match)
}

// purgeEdgeMoved enforces the edge ownership invariant after a topology
// change: every resident entry must have been served by the shard that
// currently owns its key. Entries whose ownership moved (a killed shard's
// keys now belong to its ring successors; a restarted shard reclaims keys
// its stand-ins served) are dropped, and every in-flight load is doomed —
// its recorded owner may be stale by the time it lands.
func purgeEdgeMoved(c *edgeCache, owner func(video, seg string) int) {
	c.Purge(func(k edgeKey, v edgeVal) bool { return owner(k.video, k.seg) != v.owner },
		func(edgeKey) bool { return true })
}

// edgeStats converts the cache's stats to the exported shape.
func edgeStats(c *edgeCache) EdgeStats {
	st := c.Stats()
	return EdgeStats{
		Hits:      st.Hits,
		Misses:    st.Misses,
		Coalesced: st.Coalesced,
		Evictions: st.Evictions,
		Oversized: st.Oversized,
		Doomed:    st.Doomed,
		Purged:    st.Purged,
		Entries:   st.Entries,
		Bytes:     st.Bytes,
		MaxBytes:  st.Budget,
	}
}

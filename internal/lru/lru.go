// Package lru is the repo's one cache primitive: a cost-budgeted LRU with
// singleflight loading, purge-by-predicate, and a fixed set of telemetry
// series. The serving tier's response and edge caches, the mapping-LUT
// cache, and the client's decoded-segment cache are all instances of it.
//
// The contract every caller relies on:
//
//   - Get checks for a resident entry and registers a flight under one
//     lock, and deletes the flight and inserts its result under one lock,
//     so a key is loaded at most once per concurrent wave and never twice
//     back to back.
//   - A load error reaches every waiter of that flight and is never cached.
//   - An entry costing more than the whole budget is served but not cached,
//     and never evicts residents to make room.
//   - Purge drops matching residents and dooms matching flights: a doomed
//     flight still serves its waiters but is never inserted, because its
//     load may have read the state the purge was meant to retire.
//   - The nil *Cache is valid: it loads every time and reports zero stats.
package lru

import (
	"sync"
	"sync/atomic"

	"evr/internal/telemetry"
)

// Outcome says how Get served a key.
type Outcome uint8

const (
	// Miss: this call ran the load.
	Miss Outcome = iota
	// Hit: served from a resident entry; no load ran.
	Hit
	// Coalesced: joined another call's in-flight load.
	Coalesced
)

// Stats is a point-in-time view of a cache.
type Stats struct {
	Hits      int64 // served from a resident entry
	Misses    int64 // loads run (one per flight)
	Coalesced int64 // lookups that joined an in-flight load
	Evictions int64 // entries dropped to stay under the budget
	Oversized int64 // loads costing more than the whole budget (served, never cached)
	Doomed    int64 // flights overtaken by a purge (served, never cached)
	Purged    int64 // resident entries dropped by Purge
	Entries   int64 // resident entries
	Bytes     int64 // resident cost
	Budget    int64 // configured budget
}

// Cache is a cost-budgeted LRU of K → V with singleflight loading. Safe for
// concurrent use.
type Cache[K comparable, V any] struct {
	budget int64
	cost   func(V) int64

	// The counters live on the cache so Stats is exact with or without a
	// registry; the telemetry handles mirror them (nil-safe when reg is nil).
	hits, misses, coalesced, evictions, oversized, doomed, purged atomic.Int64

	tel series

	mu      sync.Mutex
	bytes   int64
	root    node[K, V] // sentinel: root.next is the most recently used entry
	items   map[K]*node[K, V]
	flights map[K]*flight[V]
}

type node[K comparable, V any] struct {
	prev, next *node[K, V]
	key        K
	val        V
	cost       int64
}

// flight is one in-flight load shared by concurrent identical lookups.
type flight[V any] struct {
	done   chan struct{}
	val    V
	err    error
	doomed bool // guarded by Cache.mu
}

type series struct {
	hits, misses, coalesced, evictions, oversized, doomed, purged *telemetry.Counter
	entries, bytes                                                *telemetry.Gauge
}

// New builds a cache holding entries whose summed cost stays within budget.
// cost prices one value (bytes, or 1 for a count budget) and runs under the
// cache lock; an entry costing more than budget is never retained, so a
// budget ≤ 0 with positive costs keeps nothing but still coalesces
// concurrent loads. The cache's series
// register on reg as prefix+"_hits_total", "_misses_total",
// "_coalesced_total", "_evictions_total", "_oversized_total",
// "_doomed_total", "_purged_total" (counters) and "_entries", "_bytes"
// (gauges); reg may be nil.
func New[K comparable, V any](budget int64, cost func(V) int64, reg *telemetry.Registry, prefix string) *Cache[K, V] {
	counter := func(suffix, help string) *telemetry.Counter {
		reg.SetHelp(prefix+suffix, help)
		return reg.Counter(prefix + suffix)
	}
	gauge := func(suffix, help string) *telemetry.Gauge {
		reg.SetHelp(prefix+suffix, help)
		return reg.Gauge(prefix + suffix)
	}
	c := &Cache[K, V]{
		budget: budget,
		cost:   cost,
		tel: series{
			hits:      counter("_hits_total", "lookups served from a resident entry"),
			misses:    counter("_misses_total", "loads run (one per flight)"),
			coalesced: counter("_coalesced_total", "lookups that joined an in-flight load"),
			evictions: counter("_evictions_total", "entries evicted under the budget"),
			oversized: counter("_oversized_total", "loads larger than the whole budget (served, never cached)"),
			doomed:    counter("_doomed_total", "in-flight loads overtaken by a purge (served, never cached)"),
			purged:    counter("_purged_total", "resident entries dropped by purges"),
			entries:   gauge("_entries", "resident entries"),
			bytes:     gauge("_bytes", "resident entry cost (bytes, or entries for a count budget)"),
		},
		items:   make(map[K]*node[K, V]),
		flights: make(map[K]*flight[V]),
	}
	c.root.next, c.root.prev = &c.root, &c.root
	return c
}

// Get returns the value for key: the resident entry when there is one,
// otherwise the result of load, run at most once per concurrent wave. The
// load's value and error go to every waiter of the flight; only a nil error
// from a flight no purge overtook is inserted.
func (c *Cache[K, V]) Get(key K, load func() (V, error)) (V, Outcome, error) {
	if c == nil {
		v, err := load()
		return v, Miss, err
	}
	c.mu.Lock()
	if n, ok := c.items[key]; ok {
		c.unlink(n)
		c.pushFront(n)
		c.mu.Unlock()
		count(&c.hits, c.tel.hits)
		return n.val, Hit, nil
	}
	if fl, ok := c.flights[key]; ok {
		c.mu.Unlock()
		count(&c.coalesced, c.tel.coalesced)
		<-fl.done
		return fl.val, Coalesced, fl.err
	}
	fl := &flight[V]{done: make(chan struct{})}
	c.flights[key] = fl
	c.mu.Unlock()
	count(&c.misses, c.tel.misses)

	fl.val, fl.err = load()

	c.mu.Lock()
	delete(c.flights, key)
	if fl.doomed {
		count(&c.doomed, c.tel.doomed)
	} else if fl.err == nil {
		c.insertLocked(key, fl.val)
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.val, Miss, fl.err
}

// insertLocked adds a fresh entry (the caller's flight guarantees key is
// not resident) and evicts from the LRU end past the budget. An entry
// costing more than the whole budget is rejected up front: inserting it
// would evict every resident and still bust the budget.
func (c *Cache[K, V]) insertLocked(key K, val V) {
	cost := c.cost(val)
	if cost > c.budget {
		count(&c.oversized, c.tel.oversized)
		return
	}
	n := &node[K, V]{key: key, val: val, cost: cost}
	c.items[key] = n
	c.pushFront(n)
	c.bytes += cost
	for c.bytes > c.budget {
		c.removeLocked(c.root.prev)
		count(&c.evictions, c.tel.evictions)
	}
	c.setGauges()
}

// Peek reports whether key is resident, without promoting it or counting a
// lookup.
func (c *Cache[K, V]) Peek(key K) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// Purge drops every resident entry for which resident returns true and
// dooms every in-flight load for which inFlight returns true. Both run
// under the cache lock and must not call back into the cache.
func (c *Cache[K, V]) Purge(resident func(K, V) bool, inFlight func(K) bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for n := c.root.next; n != &c.root; {
		next := n.next
		if resident(n.key, n.val) {
			c.removeLocked(n)
			count(&c.purged, c.tel.purged)
		}
		n = next
	}
	for key, fl := range c.flights {
		if inFlight(key) {
			fl.doomed = true
		}
	}
	c.setGauges()
}

// Stats snapshots the cache. The nil cache reports zeros.
func (c *Cache[K, V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	entries, bytes := int64(len(c.items)), c.bytes
	c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Oversized: c.oversized.Load(),
		Doomed:    c.doomed.Load(),
		Purged:    c.purged.Load(),
		Entries:   entries,
		Bytes:     bytes,
		Budget:    c.budget,
	}
}

func (c *Cache[K, V]) pushFront(n *node[K, V]) {
	n.prev, n.next = &c.root, c.root.next
	n.next.prev = n
	c.root.next = n
}

func (c *Cache[K, V]) unlink(n *node[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}

func (c *Cache[K, V]) removeLocked(n *node[K, V]) {
	c.unlink(n)
	delete(c.items, n.key)
	c.bytes -= n.cost
}

func (c *Cache[K, V]) setGauges() {
	c.tel.entries.Set(int64(len(c.items)))
	c.tel.bytes.Set(c.bytes)
}

func count(own *atomic.Int64, tel *telemetry.Counter) {
	own.Add(1)
	tel.Inc()
}

package lru

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"evr/internal/telemetry"
)

// byteCache is the shape the serving caches use: []byte values priced by
// length.
func byteCache(budget int64, reg *telemetry.Registry) *Cache[int, []byte] {
	return New[int](budget, func(b []byte) int64 { return int64(len(b)) }, reg, "evr_test")
}

// value returns a load that yields b and counts its runs.
func value(b []byte, runs *int) func() ([]byte, error) {
	return func() ([]byte, error) {
		if runs != nil {
			*runs++
		}
		return b, nil
	}
}

func mustNotLoad(t *testing.T, key int) func() ([]byte, error) {
	return func() ([]byte, error) {
		t.Helper()
		t.Errorf("key %d loaded, want a resident hit", key)
		return nil, nil
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := byteCache(1<<20, nil)
	runs := 0
	for i, want := range []Outcome{Miss, Hit, Hit} {
		data, got, err := c.Get(0, value([]byte("payload"), &runs))
		if err != nil || got != want || string(data) != "payload" {
			t.Fatalf("get %d = %q, %v, %v; want outcome %v", i, data, got, err, want)
		}
	}
	if runs != 1 {
		t.Errorf("load ran %d times, want 1", runs)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 7 || st.Budget != 1<<20 {
		t.Errorf("stats = %+v", st)
	}
}

// TestEvictionOrder pins LRU order: a promoted entry survives, the least
// recently used one is the victim, and the byte total never passes the
// budget.
func TestEvictionOrder(t *testing.T) {
	c := byteCache(100, nil)
	payload := make([]byte, 40)
	c.Get(0, value(payload, nil))
	c.Get(1, value(payload, nil))
	c.Get(0, mustNotLoad(t, 0)) // promote 0: 1 is now LRU
	c.Get(2, value(payload, nil))
	st := c.Stats()
	if st.Entries != 2 || st.Bytes != 80 || st.Evictions != 1 {
		t.Fatalf("after overflow: %+v", st)
	}
	if c.Peek(1) || !c.Peek(0) || !c.Peek(2) {
		t.Fatalf("wrong victim: resident 0=%v 1=%v 2=%v", c.Peek(0), c.Peek(1), c.Peek(2))
	}
	// One large entry evicts as many LRU entries as it takes.
	c.Get(3, value(make([]byte, 90), nil))
	st = c.Stats()
	if st.Entries != 1 || st.Bytes != 90 || st.Evictions != 3 || !c.Peek(3) {
		t.Fatalf("after large insert: %+v", st)
	}
}

// TestCountBudget pins the client's shape: cost 1 per entry, budget in
// entries.
func TestCountBudget(t *testing.T) {
	c := New[int](2, func(string) int64 { return 1 }, nil, "")
	for k := 0; k < 5; k++ {
		c.Get(k, func() (string, error) { return "x", nil })
	}
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 3 || !c.Peek(3) || !c.Peek(4) {
		t.Fatalf("count budget: %+v", st)
	}
}

// TestOversizedServedNotCached pins that an entry larger than the whole
// budget is served, counted, and never inserted — and that the residents
// already there survive it untouched.
func TestOversizedServedNotCached(t *testing.T) {
	c := byteCache(100, nil)
	small := []byte("0123456789")
	for k := 0; k < 3; k++ {
		c.Get(k, value(small, nil))
	}
	runs := 0
	for i := 0; i < 2; i++ {
		data, got, err := c.Get(99, value(make([]byte, 101), &runs))
		if err != nil || got != Miss || len(data) != 101 {
			t.Fatalf("oversized get %d: %d bytes, %v, %v", i, len(data), got, err)
		}
	}
	if runs != 2 {
		t.Errorf("oversized entry cached (%d loads)", runs)
	}
	st := c.Stats()
	if st.Entries != 3 || st.Bytes != 30 || st.Oversized != 2 || st.Evictions != 0 {
		t.Fatalf("oversized accounting: %+v", st)
	}
	for k := 0; k < 3; k++ {
		if _, got, _ := c.Get(k, mustNotLoad(t, k)); got != Hit {
			t.Errorf("resident %d: outcome %v after oversized inserts", k, got)
		}
	}
}

// TestZeroBudgetCoalescesButKeepsNothing pins the disabled-but-shared
// shape: nothing is retained, yet concurrent identical loads still share
// one flight.
func TestZeroBudgetCoalescesButKeepsNothing(t *testing.T) {
	c := New[int](0, func(int) int64 { return 1 }, nil, "")
	release := make(chan struct{})
	var runs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Get(0, func() (int, error) { runs.Add(1); <-release; return 1, nil })
		}()
	}
	for c.Stats().Coalesced != 3 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if runs.Load() != 1 {
		t.Errorf("%d loads for one wave, want 1", runs.Load())
	}
	if st := c.Stats(); st.Entries != 0 || c.Peek(0) {
		t.Errorf("zero budget retained an entry: %+v", st)
	}
}

// TestSingleflightCoalesces launches n concurrent gets of one cold key
// against a load that blocks until all have arrived: one load runs, n-1
// gets coalesce, and all see the same value.
func TestSingleflightCoalesces(t *testing.T) {
	const n = 16
	c := byteCache(1<<20, nil)
	var runs atomic.Int64
	release := make(chan struct{})
	load := func() ([]byte, error) {
		runs.Add(1)
		<-release
		return []byte("shared"), nil
	}
	outcomes := make([]Outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, got, err := c.Get(7, load)
			if err != nil || string(data) != "shared" {
				t.Errorf("coalesced get = %q, %v", data, err)
			}
			outcomes[i] = got
		}(i)
	}
	for c.Stats().Coalesced != n-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Errorf("%d loads ran, want 1", got)
	}
	var misses int
	for _, o := range outcomes {
		if o == Miss {
			misses++
		} else if o != Coalesced {
			t.Errorf("outcome %v during a cold wave", o)
		}
	}
	st := c.Stats()
	if misses != 1 || st.Misses != 1 || st.Coalesced != n-1 || st.Hits != 0 {
		t.Errorf("misses=%d stats=%+v, want 1 miss and %d coalesced", misses, st, n-1)
	}
}

// TestLoadErrorReachesEveryWaiterNotCached pins negative results: every
// waiter of a failing flight gets its value and error, and the next get
// loads again.
func TestLoadErrorReachesEveryWaiterNotCached(t *testing.T) {
	c := byteCache(1<<20, nil)
	boom := errors.New("boom")
	release := make(chan struct{})
	var runs atomic.Int64
	load := func() ([]byte, error) {
		runs.Add(1)
		<-release
		return []byte("partial"), boom
	}
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			data, _, err := c.Get(0, load)
			if string(data) != "partial" {
				err = fmt.Errorf("value %q not passed through", data)
			}
			errs <- err
		}()
	}
	for c.Stats().Coalesced != 3 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < 4; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Errorf("waiter got %v, want boom", err)
		}
	}
	if _, got, err := c.Get(0, value([]byte("ok"), nil)); got != Miss || err != nil {
		t.Fatalf("retry after error: %v, %v; want a fresh load", got, err)
	}
	if runs.Load() != 1 {
		t.Errorf("%d failing loads, want 1", runs.Load())
	}
	if st := c.Stats(); st.Entries != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestPurgeDoomsInflight pins the overtaken-flight rule: a flight that
// started before a matching purge serves its waiters but is never
// inserted, and a non-matching flight still inserts.
func TestPurgeDoomsInflight(t *testing.T) {
	c := byteCache(1<<20, nil)
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	slow := func(b string) func() ([]byte, error) {
		return func() ([]byte, error) {
			started <- struct{}{}
			<-release
			return []byte(b), nil
		}
	}
	done := make(chan string, 2)
	for k, b := range []string{"stale", "kept"} {
		go func(k int, b string) {
			data, _, _ := c.Get(k, slow(b))
			done <- string(data)
		}(k, b)
	}
	<-started
	<-started
	c.Purge(func(int, []byte) bool { return false }, func(k int) bool { return k == 0 })
	close(release)
	got := map[string]bool{<-done: true, <-done: true}
	if !got["stale"] || !got["kept"] {
		t.Fatalf("doomed flight not served to its waiters: %v", got)
	}
	if c.Peek(0) {
		t.Error("doomed flight was inserted")
	}
	if !c.Peek(1) {
		t.Error("unmatched flight was doomed")
	}
	if st := c.Stats(); st.Doomed != 1 || st.Purged != 0 {
		t.Errorf("doomed=%d purged=%d, want 1 and 0", st.Doomed, st.Purged)
	}
}

func TestPurgeDropsMatchingResidents(t *testing.T) {
	c := byteCache(1<<20, nil)
	for k := 0; k < 6; k++ {
		c.Get(k, value([]byte{byte(k)}, nil))
	}
	c.Purge(func(k int, v []byte) bool { return k%2 == 0 && v[0] == byte(k) }, func(int) bool { return false })
	for k := 0; k < 6; k++ {
		if c.Peek(k) != (k%2 == 1) {
			t.Errorf("key %d resident=%v after purge of even keys", k, c.Peek(k))
		}
	}
	if st := c.Stats(); st.Purged != 3 || st.Entries != 3 || st.Bytes != 3 || st.Evictions != 0 {
		t.Errorf("purge accounting: %+v", st)
	}
}

func TestPeekDoesNotPromoteOrCount(t *testing.T) {
	c := byteCache(2, nil)
	c.Get(0, value([]byte{0}, nil))
	c.Get(1, value([]byte{1}, nil))
	if !c.Peek(0) || c.Peek(5) {
		t.Fatal("Peek residency wrong")
	}
	c.Get(2, value([]byte{2}, nil)) // 0 is still LRU: Peek must not have promoted it
	if c.Peek(0) || !c.Peek(1) {
		t.Error("Peek promoted the entry")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 3 {
		t.Errorf("Peek counted a lookup: %+v", st)
	}
}

func TestNilCache(t *testing.T) {
	var c *Cache[int, []byte]
	runs := 0
	for i := 0; i < 2; i++ {
		if data, got, err := c.Get(0, value([]byte("x"), &runs)); got != Miss || err != nil || string(data) != "x" {
			t.Fatalf("nil get = %q, %v, %v", data, got, err)
		}
	}
	c.Purge(func(int, []byte) bool { return true }, func(int) bool { return true })
	if runs != 2 || c.Peek(0) || c.Stats() != (Stats{}) {
		t.Errorf("nil cache not inert: runs=%d stats=%+v", runs, c.Stats())
	}
}

// TestTelemetrySeries pins the prefix-driven series set, and that a
// registry-less cache still reports exact stats.
func TestTelemetrySeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := byteCache(4, reg)
	c.Get(0, value([]byte("ab"), nil))
	c.Get(0, value(nil, nil))
	c.Get(1, value([]byte("abcde"), nil))
	c.Purge(func(int, []byte) bool { return true }, func(int) bool { return true })
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"evr_test_hits_total 1", "evr_test_misses_total 2", "evr_test_coalesced_total 0",
		"evr_test_evictions_total 0", "evr_test_oversized_total 1", "evr_test_doomed_total 0",
		"evr_test_purged_total 1", "evr_test_entries 0", "evr_test_bytes 0",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	bare := byteCache(4, nil)
	bare.Get(0, value([]byte("ab"), nil))
	bare.Get(0, value(nil, nil))
	if st := bare.Stats(); st.Hits != 1 || st.Misses != 1 || st.Bytes != 2 {
		t.Errorf("registry-less stats = %+v", st)
	}
}

// TestNoDuplicateLoadAcrossFlightCompletion pins the one-lock handoff: a
// lookup landing while a flight completes either joins it or hits the
// inserted entry — it never starts a second load.
func TestNoDuplicateLoadAcrossFlightCompletion(t *testing.T) {
	const keys, goroutines = 20000, 6
	c := New[int](keys, func(int) int64 { return 1 }, nil, "")
	loads := make([]atomic.Int32, keys)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				c.Get(k, func() (int, error) { loads[k].Add(1); return k, nil })
			}
		}()
	}
	wg.Wait()
	for k := range loads {
		if n := loads[k].Load(); n != 1 {
			t.Errorf("key %d loaded %d times, want 1", k, n)
		}
	}
}

// TestConcurrentChurn hammers a small cache from many goroutines under
// -race: hits, misses, coalescing, evictions and purges interleaving. The
// budget must hold and every lookup must be accounted exactly once.
func TestConcurrentChurn(t *testing.T) {
	c := byteCache(256, telemetry.NewRegistry())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := (g + i) % 12
				data, _, err := c.Get(key, func() ([]byte, error) { return make([]byte, 16+key), nil })
				if err != nil || len(data) != 16+key {
					t.Errorf("churn get %d: %d bytes, %v", key, len(data), err)
					return
				}
				if i%50 == 0 {
					c.Purge(func(k int, _ []byte) bool { return k%3 == i%3 }, func(k int) bool { return k%3 == i%3 })
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > 256 {
		t.Errorf("cache grew past budget: %+v", st)
	}
	if st.Hits+st.Misses+st.Coalesced != 8*200 {
		t.Errorf("accounting leak: hits+misses+coalesced = %d, want %d", st.Hits+st.Misses+st.Coalesced, 8*200)
	}
}

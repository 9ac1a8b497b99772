package lru

import (
	"errors"
	"testing"
)

// model is the sequential reference the fuzzer checks Cache against: a
// map plus a recency list (front = most recently used) and the stats the
// cache must report.
type model struct {
	budget int64
	vals   map[int]item
	order  []int
	stats  Stats
}

// item is a loaded value: a serial number (so a hit can be told from a
// reload) and its cost.
type item struct {
	serial int
	cost   int64
}

func (m *model) bytes() int64 {
	var b int64
	for _, k := range m.order {
		b += m.vals[k].cost
	}
	return b
}

func (m *model) touch(k int) {
	m.remove(k)
	m.order = append([]int{k}, m.order...)
}

func (m *model) remove(k int) {
	for i, o := range m.order {
		if o == k {
			m.order = append(m.order[:i], m.order[i+1:]...)
			return
		}
	}
}

// insert mirrors insertLocked.
func (m *model) insert(k int, it item) {
	if it.cost > m.budget {
		m.stats.Oversized++
		return
	}
	m.vals[k] = it
	m.touch(k)
	for m.bytes() > m.budget {
		victim := m.order[len(m.order)-1]
		m.remove(victim)
		delete(m.vals, victim)
		m.stats.Evictions++
	}
}

var errFuzz = errors.New("fuzz load error")

// FuzzCacheModel decodes its input into a sequence of Get (ok, error, and
// doomed-by-a-purge-during-load), Peek, Purge and Stats operations and
// checks each against the sequential model: the value and outcome of every
// Get, the resident set and its LRU order, bytes ≤ budget, and every stats
// counter.
func FuzzCacheModel(f *testing.F) {
	f.Add([]byte{10, 0x00, 0x11, 0x22, 0x33, 0x00, 0x44})
	f.Add([]byte{4, 0x07, 0x17, 0x27, 0x01, 0x52, 0x63, 0x05})
	f.Add([]byte{0, 0x00, 0x10, 0x02, 0x13, 0x04})
	f.Add([]byte{64, 0xf0, 0xe1, 0xd2, 0xc3, 0xb4, 0xa5, 0x96, 0x87, 0x78, 0x69})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		budget := int64(ops[0] % 65)
		ops = ops[1:]
		c := New[int](budget, func(it item) int64 { return it.cost }, nil, "")
		m := &model{budget: budget, vals: make(map[int]item), stats: Stats{Budget: budget}}
		serial := 0
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			key := int(op>>4) % 8
			cost := int64(arg % 41)
			switch op % 6 {
			case 0, 1, 2: // Get: 0 ok, 1 load error, 2 purged while loading
				serial++
				want := item{serial: serial, cost: cost}
				loaded := false
				v, outcome, err := c.Get(key, func() (item, error) {
					loaded = true
					switch op % 6 {
					case 1:
						return want, errFuzz
					case 2:
						c.Purge(func(int, item) bool { return false }, func(k int) bool { return k == key })
					}
					return want, nil
				})
				if old, ok := m.vals[key]; ok {
					m.stats.Hits++
					m.touch(key)
					if loaded || outcome != Hit || err != nil || v != old {
						t.Fatalf("op %d: get resident %d = %+v, %v, %v (loaded %v); want hit %+v", i, key, v, outcome, err, loaded, old)
					}
					break
				}
				m.stats.Misses++
				if !loaded || outcome != Miss || v != want {
					t.Fatalf("op %d: get absent %d = %+v, %v (loaded %v); want miss %+v", i, key, v, outcome, loaded, want)
				}
				switch op % 6 {
				case 0:
					if err != nil {
						t.Fatalf("op %d: unexpected error %v", i, err)
					}
					m.insert(key, want)
				case 1:
					if !errors.Is(err, errFuzz) {
						t.Fatalf("op %d: load error lost: %v", i, err)
					}
				case 2:
					m.stats.Doomed++
				}
			case 3: // Peek
				_, want := m.vals[key]
				if got := c.Peek(key); got != want {
					t.Fatalf("op %d: Peek(%d) = %v, want %v", i, key, got, want)
				}
			case 4: // Purge residents with key ≡ arg (mod 3) or cost ≥ arg%41
				match := func(k int, it item) bool { return k%3 == int(arg)%3 || it.cost >= cost }
				c.Purge(match, func(int) bool { return true })
				for _, k := range append([]int(nil), m.order...) {
					if match(k, m.vals[k]) {
						m.remove(k)
						delete(m.vals, k)
						m.stats.Purged++
					}
				}
			case 5: // Stats, checked below after every op anyway
				c.Stats()
			}
			m.stats.Entries, m.stats.Bytes = int64(len(m.order)), m.bytes()
			if st := c.Stats(); st != m.stats {
				t.Fatalf("op %d: stats %+v, want %+v", i, st, m.stats)
			}
			if m.stats.Bytes > budget {
				t.Fatalf("op %d: %d bytes over budget %d", i, m.stats.Bytes, budget)
			}
			var order []int
			for n := c.root.next; n != &c.root; n = n.next {
				order = append(order, n.key)
			}
			if len(order) != len(m.order) {
				t.Fatalf("op %d: recency %v, want %v", i, order, m.order)
			}
			for j := range order {
				if order[j] != m.order[j] {
					t.Fatalf("op %d: recency %v, want %v", i, order, m.order)
				}
			}
		}
	})
}

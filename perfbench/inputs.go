package main

import (
	"fmt"
	"math"

	"evr/internal/server"
)

// rng is splitmix64. Its output is fixed by the algorithm, so a seed names
// the same inputs on every Go release and the recorded checksums stay
// valid.
type rng struct{ s uint64 }

// Input streams: each kind of draw gets its own stream so that, say, a
// longer rate ladder does not shift the session order.
const (
	streamPool uint64 = iota + 1
	streamOrder
	streamChurn
	streamPublish
)

func newRNG(seed, stream uint64) *rng {
	r := &rng{s: seed ^ stream*0xd1b54a32d192ed03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// zipfWeights returns P(i) ∝ 1/(i+1)^s for i in [0, n), unnormalized;
// s ≤ 0 is uniform.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
		if s > 0 {
			w[i] = 1 / math.Pow(float64(i+1), s)
		}
	}
	return w
}

// zipf draws an index in [0, n) by zipfWeights(n, s).
func (r *rng) zipf(n int, s float64) int { return r.weighted(zipfWeights(n, s)) }

// weighted draws an index with probability proportional to weights.
func (r *rng) weighted(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	u := r.float() * total
	for i, w := range weights {
		u -= w
		if u < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// pair is one playback session's input: a head trace of one user watching
// one video.
type pair struct {
	Video string
	User  int
}

func (p pair) String() string { return fmt.Sprintf("%s/%d", p.Video, p.User) }

// poolOf returns a playback workload's (video, user) pairs: users 0, 1,
// ... of each video, each video getting its Zipf share of the pool
// (uniform when the exponent is 0) by largest remainder. The pool is the
// same for every seed: per-pair cost varies about ±45% with the user's
// FOV-miss pattern, so a seed-drawn user set would make throughput a
// property of the seed. The seed orders the sessions.
func poolOf(w *Workload) []pair {
	n := len(w.Videos)
	weights := zipfWeights(n, w.Zipf)
	var total float64
	for _, x := range weights {
		total += x
	}
	counts := make([]int, n)
	rem := make([]float64, n)
	left := w.PoolPairs
	for i := range counts {
		share := float64(w.PoolPairs) * weights[i] / total
		counts[i] = int(share)
		rem[i] = share - float64(counts[i])
		left -= counts[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
	}
	var pool []pair
	for i, v := range w.Videos {
		for u := 0; u < counts[i]; u++ {
			pool = append(pool, pair{Video: v, User: u})
		}
	}
	return pool
}

// sessionOrder returns n pool indices: consecutive seeded permutations of
// the pool, one per cycle.
func sessionOrder(poolSize, n int, seed uint64) []int {
	r := newRNG(seed, streamOrder)
	out := make([]int, 0, n+poolSize)
	perm := make([]int, poolSize)
	for len(out) < n {
		for i := range perm {
			perm[i] = i
		}
		for i := poolSize - 1; i > 0; i-- {
			j := r.intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		out = append(out, perm...)
	}
	return out[:n]
}

// payloadURLs lists every payload path a catalog serves, the universe the
// churn mix draws from and the set whose bodies set-up records.
func payloadURLs(videos []string, mans map[string]*server.Manifest) []string {
	var out []string
	for _, v := range videos {
		man := mans[v]
		for _, seg := range man.Segments {
			out = append(out, fmt.Sprintf("/v/%s/orig/%d", v, seg.Index))
			for _, c := range seg.Clusters {
				out = append(out, fmt.Sprintf("/v/%s/fov/%d/%d", v, seg.Index, c.ID))
				out = append(out, fmt.Sprintf("/v/%s/fovmeta/%d/%d", v, seg.Index, c.ID))
			}
			if man.Tiling != nil {
				out = append(out, fmt.Sprintf("/v/%s/tilelow/%d", v, seg.Index))
				for t := 0; t < man.Tiling.Cols*man.Tiling.Rows; t++ {
					for q := 0; q < man.Tiling.Rungs; q++ {
						out = append(out, fmt.Sprintf("/v/%s/tile/%d/%d/%d", v, seg.Index, t, q))
					}
				}
			}
		}
	}
	return out
}

// churnRequests draws rung's n request paths: a Zipf video, a uniform
// segment, a payload kind from the mix, then a uniform cluster, tile or
// rung. A "fov" draw asks for the FOV video and then its metadata, as the
// player does. A kind the drawn segment lacks (a segment with no FOV
// cluster) falls back to its original stream.
func churnRequests(w *Workload, mans map[string]*server.Manifest, seed uint64, rung, n int) []string {
	r := newRNG(seed, streamChurn+uint64(rung)<<8)
	weights := make([]float64, len(w.Mix))
	for i, m := range w.Mix {
		weights[i] = m.Weight
	}
	out := make([]string, 0, n+1)
	for len(out) < n {
		v := w.Videos[r.zipf(len(w.Videos), w.Zipf)]
		man := mans[v]
		seg := man.Segments[r.intn(len(man.Segments))]
		kind := w.Mix[r.weighted(weights)].Kind
		switch {
		case kind == "fov" && len(seg.Clusters) > 0:
			c := seg.Clusters[r.intn(len(seg.Clusters))].ID
			out = append(out, fmt.Sprintf("/v/%s/fov/%d/%d", v, seg.Index, c),
				fmt.Sprintf("/v/%s/fovmeta/%d/%d", v, seg.Index, c))
		case kind == "tile" && man.Tiling != nil:
			t := r.intn(man.Tiling.Cols * man.Tiling.Rows)
			q := r.intn(man.Tiling.Rungs)
			out = append(out, fmt.Sprintf("/v/%s/tile/%d/%d/%d", v, seg.Index, t, q))
		case kind == "tilelow" && man.Tiling != nil:
			out = append(out, fmt.Sprintf("/v/%s/tilelow/%d", v, seg.Index))
		default:
			out = append(out, fmt.Sprintf("/v/%s/orig/%d", v, seg.Index))
		}
	}
	return out[:n]
}

// publishDraws returns the videos the churn publisher republishes, in
// order.
func publishDraws(w *Workload, seed uint64, n int) []string {
	r := newRNG(seed, streamPublish)
	out := make([]string, n)
	for i := range out {
		out[i] = w.Videos[r.zipf(len(w.Videos), w.Zipf)]
	}
	return out
}

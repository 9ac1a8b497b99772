package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"evr/internal/telemetry"
)

// sessionTime splits traced sessions' wall time by the demand-path stage
// that accounts for it: the per-frame sum check. frames are the frame
// ring's stages (FOV check, display crop, render), which run on the
// session's goroutine; loads is the time it waits for payloads; assembly
// is delivery.Assemble, which no stage times, at its direct-pass cost per
// tiled segment. The three never overlap: the session's goroutine does one
// at a time.
type sessionTime struct {
	wall, frames, loads, assembly time.Duration
}

func (t *sessionTime) add(o sessionTime) {
	t.wall += o.wall
	t.frames += o.frames
	t.loads += o.loads
	t.assembly += o.assembly
}

// unattributedPct is the share of wall time no stage accounts for;
// negative when the stages overcount it.
func (t sessionTime) unattributedPct() float64 {
	return 100 * ratio(float64(t.wall-t.frames-t.loads-t.assembly), float64(t.wall))
}

func (t sessionTime) String() string {
	pct := func(d time.Duration) float64 { return 100 * ratio(float64(d), float64(t.wall)) }
	return fmt.Sprintf("frames %.1f%%, loads %.1f%%, assembly %.1f%% of %.3f s",
		pct(t.frames), pct(t.loads), pct(t.assembly), t.wall.Seconds())
}

// accountSession accounts for one traced session. reqs are its
// client.request spans, ring its frame ring, decodeS its fetcher's total
// decode time, and cost each payload kind's (and "assemble"'s) direct-pass
// time.
//
// loads is the union of the intervals in which the session waits:
//   - its demand loads: each payload request, extended by its share of
//     decodeS, shared out over all the session's loads by each kind's
//     decode cost (the fetcher decodes right after the body arrives, on
//     the same goroutine). A FOV load runs from its video's request to the
//     end of its metadata's, which already spans the video's decode;
//   - prefetches it joined: a prefetched FOV video of a segment for which
//     it asked for no FOV video itself, from when it reached the segment,
//     and a prefetched original of a segment it fell back on, from its
//     first fallback frame. It reaches segment s when it prefetches s+1
//     (or first asks for a payload of s), and a fallback frame comes after
//     the stage time of the segment's frames before it.
//
// Other prefetch time is left out: it overlaps the frames it hides behind.
func accountSession(session span, reqs []span, ring []telemetry.FrameTrace, decodeS float64, tiledSegs int, cost map[string]float64) sessionTime {
	t := sessionTime{wall: session.dur(), assembly: time.Duration(float64(tiledSegs) * cost["assemble"] * 1e6)}
	// Per segment: the stage time before its first fallback frame, and
	// whether it had one.
	beforeFallback := make(map[int]time.Duration)
	fellBack := make(map[int]bool)
	for _, ft := range ring {
		var sum time.Duration
		for _, st := range ft.Stages {
			sum += st
		}
		t.frames += sum
		if ft.Stages[telemetry.StageRender] > 0 {
			fellBack[ft.Segment] = true
		}
		if !fellBack[ft.Segment] {
			beforeFallback[ft.Segment] += sum
		}
	}

	sort.Slice(reqs, func(i, j int) bool { return reqs[i].Start < reqs[j].Start })
	type load struct {
		iv       span
		seg      int
		prefetch bool
	}
	var loads []load
	var weights []float64
	var total float64
	used := make([]bool, len(reqs))
	reach := make(map[int]int64)
	asked := make(map[string]bool) // "kind seg" the session loaded itself
	for i, r := range reqs {
		seg := segmentOf(r.Path)
		prefetch := r.Origin == "prefetch"
		if prefetch {
			seg := seg - 1
			if _, ok := reach[seg]; !ok {
				reach[seg] = r.Start
			}
		} else {
			if _, ok := reach[seg]; !ok {
				reach[seg] = r.Start
			}
			asked[r.Kind+" "+strconv.Itoa(seg)] = true
		}
		if used[i] {
			continue
		}
		l := load{iv: r, seg: seg, prefetch: prefetch}
		w := cost[r.Kind]
		if r.Kind == "fov" {
			meta := strings.Replace(r.Path, "/fov/", "/fovmeta/", 1)
			for j := i + 1; j < len(reqs); j++ {
				if !used[j] && reqs[j].Path == meta && reqs[j].Origin == r.Origin {
					used[j] = true
					l.iv.End = reqs[j].End
					break
				}
			}
		}
		loads = append(loads, l)
		weights = append(weights, w)
		total += w
	}
	var ivs []span
	for i, l := range loads {
		if l.iv.Kind != "fov" && l.iv.Kind != "fovmeta" && total > 0 {
			l.iv.End += int64(decodeS * 1e9 * weights[i] / total)
		}
		if !l.prefetch {
			ivs = append(ivs, l.iv)
			continue
		}
		at, ok := reach[l.seg]
		switch {
		case !ok:
			continue
		case l.iv.Kind == "fov" && !asked["fov "+strconv.Itoa(l.seg)]:
		case l.iv.Kind == "orig" && fellBack[l.seg] && !asked["orig "+strconv.Itoa(l.seg)]:
			at += int64(beforeFallback[l.seg])
		default:
			continue
		}
		l.iv.Start = max(l.iv.Start, at)
		if l.iv.End > l.iv.Start {
			ivs = append(ivs, l.iv)
		}
	}
	t.loads = covered(session, ivs)
	return t
}

// segmentOf returns a payload path's segment index, -1 for other paths.
func segmentOf(path string) int {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	if len(parts) < 4 || parts[0] != "v" {
		return -1
	}
	seg, err := strconv.Atoi(parts[3])
	if err != nil {
		return -1
	}
	return seg
}

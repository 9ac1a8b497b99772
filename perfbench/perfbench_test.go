package main

import (
	"bytes"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"evr/internal/client"
	"evr/internal/hmd"
	"evr/internal/loadgen"
	"evr/internal/server"
	"evr/internal/telemetry"
)

// benchmarkJSON is the repository's BENCHMARK.json, seen from this
// directory.
const benchmarkJSON = "../BENCHMARK.json"

func testSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := loadSpec(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// fakeManifests gives every catalog video segs segments with two FOV
// clusters and a 4×2 grid of 3 rungs, enough to draw churn requests from
// without an ingest.
func fakeManifests(videos []string, segs int) map[string]*server.Manifest {
	out := make(map[string]*server.Manifest)
	for _, v := range videos {
		man := &server.Manifest{Video: v, Tiling: &server.TilingInfo{Cols: 4, Rows: 2, Rungs: 3, LowDiv: 4}}
		for i := 0; i < segs; i++ {
			man.Segments = append(man.Segments, server.SegmentInfo{Index: i,
				Clusters: []server.ClusterInfo{{ID: 0}, {ID: 1}}})
		}
		out[v] = man
	}
	return out
}

func TestSeedDeterminism(t *testing.T) {
	spec := testSpec(t)
	for i := range spec.Workloads {
		w := &spec.Workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			switch w.Kind {
			case "playback":
				pool := poolOf(w)
				if len(pool) != w.PoolPairs || !reflect.DeepEqual(pool, poolOf(w)) {
					t.Fatalf("pool %v is not %d fixed pairs", pool, w.PoolPairs)
				}
				o1, o2 := sessionOrder(len(pool), 100, 7), sessionOrder(len(pool), 100, 7)
				if !reflect.DeepEqual(o1, o2) || reflect.DeepEqual(o1, sessionOrder(len(pool), 100, 8)) {
					t.Fatal("session order is not a function of the seed alone")
				}
			case "churn":
				mans := fakeManifests(w.Videos, spec.Segments)
				a, b := churnRequests(w, mans, 7, 1, 500), churnRequests(w, mans, 7, 1, 500)
				if !reflect.DeepEqual(a, b) {
					t.Fatal("same seed, different request sequences")
				}
				if reflect.DeepEqual(a, churnRequests(w, mans, 8, 1, 500)) {
					t.Fatal("seeds 7 and 8 drew the same request sequence")
				}
				if !reflect.DeepEqual(publishDraws(w, 7, 50), publishDraws(w, 7, 50)) {
					t.Fatal("same seed, different publish draws")
				}
				universe := make(map[string]bool)
				for _, p := range payloadURLs(w.Videos, mans) {
					universe[p] = true
				}
				for i, p := range a {
					if !universe[p] {
						t.Fatalf("request %s is outside the payload universe", p)
					}
					if meta := strings.Replace(p, "/fov/", "/fovmeta/", 1); meta != p && i+1 < len(a) && a[i+1] != meta {
						t.Fatalf("request %s is not followed by its metadata", p)
					}
				}
			}
		})
	}
}

// TestWrapperTransparency plays one session and fetches every payload
// with and without the traced run's wrappers: bodies and displayed-frame
// checksums must not change.
func TestWrapperTransparency(t *testing.T) {
	spec := testSpec(t)
	w, _ := spec.workload("sas-vod")
	one := *w
	one.Videos = w.Videos[:1]
	st, err := newStack(&one, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	spans := newSpanLog()
	spans.setOn(true)
	plain, err := serve(st.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.close()
	wrapped, err := serve(spans.wrap(spanServer, st.handler))
	if err != nil {
		t.Fatal(err)
	}
	defer wrapped.close()
	transport := newTransport(0)
	defer transport.CloseIdleConnections()

	p := pair{Video: one.Videos[0], User: 3}
	pb, err := newPlayback(&one, plain.url, 1, transport, []pair{p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bare := client.NewPlayer(plain.url)
	bare.HTTP = &http.Client{Transport: transport}
	bare.Workers = 1
	_, frames, err := bare.Play(p.Video, hmd.NewIMU(pb.traces[p]), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := loadgen.ChecksumFrames(frames)
	untraced := pb.play(p)
	pb.baseURL, pb.spans = wrapped.url, spans
	traced := pb.play(p)
	for _, r := range []sessionResult{untraced, traced} {
		if r.failed() || r.checksum != want {
			t.Fatalf("checksum %016x (err %v), unwrapped %016x", r.checksum, r.err, want)
		}
	}
	st2 := computeSelfTimes(spans.spans())
	if st2.requests == 0 || st2.joined != st2.requests {
		t.Fatalf("%d of %d client spans joined a handler span", st2.joined, st2.requests)
	}

	rt := &timingRT{base: transport, rec: &ioRecord{}, spans: spans}
	for _, path := range payloadURLs(one.Videos, st.mans) {
		a := fetch(t, http.DefaultClient, plain.url+path)
		b := fetch(t, &http.Client{Transport: rt}, wrapped.url+path)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: body differs through the wrappers", path)
		}
	}
}

func fetch(t *testing.T, c *http.Client, url string) []byte {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %v", url, resp.StatusCode, err)
	}
	return b
}

func TestCovered(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: -5, End: 10}, {Start: 5, End: 20}, {Start: 50, End: 60}, {Start: 95, End: 120}}
	if got := covered(parent, kids); got != 35 {
		t.Fatalf("covered %d, want 35", got)
	}
}

// TestAccountSession checks the sum check's interval arithmetic on one
// made-up session of 100 ms: 30 ms of frame stages, a demand original
// load of segment 0, and a prefetched FOV video of segment 1 the session
// joined when it reached segment 1 (it prefetched segment 2 at 50 ms).
func TestAccountSession(t *testing.T) {
	ms := func(v int64) int64 { return v * 1e6 }
	session := span{Start: 0, End: ms(100)}
	reqs := []span{
		{Kind: "orig", Path: "/v/RS/orig/0", Origin: "demand", Start: 0, End: ms(10)},
		{Kind: "fov", Path: "/v/RS/fov/1/0", Origin: "prefetch", Start: ms(20), End: ms(40)},
		{Kind: "fovmeta", Path: "/v/RS/fovmeta/1/0", Origin: "prefetch", Start: ms(55), End: ms(60)},
		{Kind: "orig", Path: "/v/RS/orig/2", Origin: "prefetch", Start: ms(50), End: ms(52)},
	}
	var ring []telemetry.FrameTrace
	for seg := 0; seg < 3; seg++ {
		ring = append(ring, telemetry.FrameTrace{Segment: seg,
			Stages: [telemetry.NumStages]time.Duration{telemetry.StageDisplay: 10 * time.Millisecond}})
	}
	// 12 ms of decode, shared evenly between the two original loads: the
	// demand load of segment 0 grows by 6 ms, to 16 ms. The prefetched
	// FOV video counts from 50 ms, when the session reached segment 1, to
	// its metadata's end: 10 ms. The prefetched original of segment 2 was
	// never needed.
	got := accountSession(session, reqs, ring, 0.012, 0, map[string]float64{"orig": 2, "fov": 0})
	want := sessionTime{wall: 100 * time.Millisecond, frames: 30 * time.Millisecond, loads: 26 * time.Millisecond}
	if got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if pct := got.unattributedPct(); pct < 43.9 || pct > 44.1 {
		t.Fatalf("unattributed %.2f%%, want 44%%", pct)
	}
}

// TestSmoke runs every workload once, briefly, through the same path the
// benchmark command takes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up every workload's catalog")
	}
	var out bytes.Buffer
	args := []string{"--workload", "all", "--seconds", "0.5", "--trace", "1", "--trace-dir", t.TempDir(), "--benchmark", benchmarkJSON}
	if code := run(args, &out); code != 0 {
		t.Fatalf("smoke exit %d:\n%s", code, out.String())
	}
}

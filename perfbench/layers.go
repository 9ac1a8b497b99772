package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"evr/internal/client"
	"evr/internal/codec"
	"evr/internal/delivery"
	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/headtrace"
	"evr/internal/projection"
	"evr/internal/pt"
	"evr/internal/pte"
	"evr/internal/ptlut"
	"evr/internal/scene"
	"evr/internal/server"
	"evr/internal/tiling"
)

// Direct-pass sampling: every call is timed on its own, at least
// minReps times and until budget is spent or maxReps is reached.
const (
	minReps = 7
	maxReps = 400
	budget  = 300 * time.Millisecond
)

// measure times fn single-threaded and returns the samples in ms.
func measure(fn func()) []float64 {
	var out []float64
	t0 := time.Now()
	for len(out) < minReps || (len(out) < maxReps && time.Since(t0) < budget) {
		t := time.Now()
		fn()
		out = append(out, float64(time.Since(t))/1e6)
	}
	return out
}

// inMemoryGet serves one GET through h with no TCP.
func inMemoryGet(h http.Handler, path string) ([]byte, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, rec.Code)
	}
	return rec.Body.Bytes(), nil
}

func tileBits(payload []byte) (*codec.Bitstream, error) {
	p, err := delivery.UnmarshalTile(payload)
	if err != nil {
		return nil, err
	}
	return p.Bits, nil
}

// layerPass times single calls into each frame-path layer on fixed
// inputs captured from the workload's own catalog: segment 0 of the first
// pool pair's video, that pair's head poses, and (tiled catalogs) the
// segment's backfill plus its full rung-0 tile set. Each result is a
// median and an IQR, in ms.
func layerPass(st *stack, p pair) (map[string][2]float64, error) {
	out := make(map[string][2]float64)
	put := func(name string, samples []float64) { out[name] = [2]float64{median(samples), iqr(samples)} }
	man := st.mans[p.Video]
	seg := man.Segments[0]
	get := func(path string) ([]byte, error) { return inMemoryGet(st.handler, path) }

	origPayload, err := get(fmt.Sprintf("/v/%s/orig/0", p.Video))
	if err != nil {
		return nil, err
	}
	origBits, err := server.UnmarshalBitstream(origPayload)
	if err != nil {
		return nil, err
	}
	orig, err := codec.DecodeSequence(origBits)
	if err != nil {
		return nil, err
	}
	put("codec.decode_ms_per_segment.orig", measure(func() { codec.DecodeSequence(origBits) }))

	if len(seg.Clusters) > 0 {
		fovPath := fmt.Sprintf("/v/%s/fov/0/%d", p.Video, seg.Clusters[0].ID)
		payload, err := get(fovPath)
		if err != nil {
			return nil, err
		}
		bits, err := server.UnmarshalBitstream(payload)
		if err != nil {
			return nil, err
		}
		put("codec.decode_ms_per_segment.fov", measure(func() { codec.DecodeSequence(bits) }))
		req := httptest.NewRequest(http.MethodGet, fovPath, nil)
		h := st.serviceHandler()
		put("server.handler_ms_direct", measure(func() { h.ServeHTTP(httptest.NewRecorder(), req) }))
		if st.clu != nil {
			put("cluster.router_ms_direct", measure(func() { st.handler.ServeHTTP(httptest.NewRecorder(), req) }))
		}
	}

	spec, ok := scene.ByName(p.Video)
	if !ok {
		return nil, fmt.Errorf("video %q not in the catalog", p.Video)
	}
	samples := headtrace.Generate(spec, p.User).Samples
	poses := make([]geom.Orientation, len(orig))
	for i := range poses {
		poses[i] = samples[i%len(samples)].O
	}
	player := client.NewPlayer("")
	vp := player.HMD.ScaledViewport(player.ViewportScale)
	method := projection.Method(man.Projection)
	ptCfg := pt.Config{Projection: method, Filter: pt.Bilinear, Viewport: vp}
	engine, err := pte.New(pte.DefaultConfig(method, pt.Bilinear, vp))
	if err != nil {
		return nil, err
	}
	lut, err := ptlut.NewRenderer(ptCfg, ptlut.NewCache(0, nil), ptlut.Options{})
	if err != nil {
		return nil, err
	}
	for i := range orig {
		lut.Render(orig[i], poses[i], 1) // warm: every pose's table built
	}
	var k int
	frameArg := func() (*frame.Frame, geom.Orientation) {
		k++
		return orig[k%len(orig)], poses[k%len(orig)]
	}
	put("pte.render_ms_per_frame", measure(func() { f, o := frameArg(); engine.RenderParallel(f, o, 1) }))
	put("pt.render_ms_per_frame", measure(func() { f, o := frameArg(); pt.RenderParallel(ptCfg, f, o, 1) }))
	put("ptlut.render_ms_per_frame", measure(func() { f, o := frameArg(); lut.Render(f, o, 1) }))

	if man.Tiling != nil {
		lowPayload, err := get(fmt.Sprintf("/v/%s/tilelow/0", p.Video))
		if err != nil {
			return nil, err
		}
		lowBits, err := server.UnmarshalBitstream(lowPayload)
		if err != nil {
			return nil, err
		}
		low, err := codec.DecodeSequence(lowBits)
		if err != nil {
			return nil, err
		}
		put("codec.decode_ms_per_segment.tilelow", measure(func() { codec.DecodeSequence(lowBits) }))
		grid := tiling.Grid{Cols: man.Tiling.Cols, Rows: man.Tiling.Rows}
		tiles := make(map[int][]*frame.Frame)
		var bits0 *codec.Bitstream
		for t := 0; t < grid.Tiles(); t++ {
			payload, err := get(fmt.Sprintf("/v/%s/tile/0/%d/0", p.Video, t))
			if err != nil {
				return nil, err
			}
			bits, err := tileBits(payload)
			if err != nil {
				return nil, err
			}
			if tiles[t], err = codec.DecodeSequence(bits); err != nil {
				return nil, err
			}
			if t == 0 {
				bits0 = bits
			}
		}
		put("codec.decode_ms_per_segment.tile", measure(func() { codec.DecodeSequence(bits0) }))
		if _, err := delivery.Assemble(grid, man.FullW, man.FullH, low, tiles); err != nil {
			return nil, err
		}
		put("delivery.assemble_ms_per_segment", measure(func() { delivery.Assemble(grid, man.FullW, man.FullH, low, tiles) }))
	}
	return out, nil
}

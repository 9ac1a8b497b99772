package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"evr/internal/cluster"
	"evr/internal/server"
	"evr/internal/telemetry"
)

// golden.json holds the displayed-frame checksums of every playback
// workload's (video, user) pairs; update it with --update-golden.
//
//go:embed golden.json
var goldenJSON []byte

func loadGolden() (map[string]map[string]string, error) {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// updateGolden plays every pair of the playback pools once and writes
// their checksums to path.
func updateGolden(spec *Spec, path string) error {
	out := make(map[string]map[string]string)
	for i := range spec.Workloads {
		w := &spec.Workloads[i]
		if w.Kind != "playback" {
			continue
		}
		st, err := newStack(w, spec.Segments, nil)
		if err != nil {
			return err
		}
		l, err := serve(st.handler)
		if err != nil {
			return err
		}
		transport := newTransport(0)
		pool := poolOf(w)
		pb, err := newPlayback(w, l.url, spec.Segments, transport, pool, nil)
		if err != nil {
			l.close()
			return err
		}
		sums := make(map[string]string)
		for _, p := range pool {
			r := pb.play(p)
			if r.failed() {
				l.close()
				return fmt.Errorf("%s %s: session failed: %v", w.Name, p, r.err)
			}
			sums[p.String()] = fmt.Sprintf("%016x", r.checksum)
		}
		out[w.Name] = sums
		transport.CloseIdleConnections()
		l.close()
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// serverLayers reports the serving layers' counters over the traced phase
// and the handler spans' latencies.
func (m *measurement) serverLayers(before, after serverCounters) {
	d := func(a, b int64) float64 { return float64(a - b) }
	ra, rb := after.resp, before.resp
	hits, misses, coalesced := d(ra.Hits, rb.Hits), d(ra.Misses, rb.Misses), d(ra.Coalesced, rb.Coalesced)
	m.put("server.respcache_hit_ratio", ratio(hits, hits+misses+coalesced))
	m.put("server.respcache_coalesced", coalesced)
	m.put("server.respcache_evictions", d(ra.Evictions, rb.Evictions))
	m.put("server.respcache_doomed", d(ra.Doomed, rb.Doomed))
	m.put("store.reads", misses)

	var ea, eb cluster.EdgeStats
	var skew, rerouted float64
	if after.clustered {
		b, a := before.cluster, after.cluster
		if a.Edge != nil && b.Edge != nil {
			ea, eb = *a.Edge, *b.Edge
		}
		var sum, most float64
		for i := range a.Shards {
			n := d(a.Shards[i].Requests, b.Shards[i].Requests)
			sum += n
			most = max(most, n)
		}
		skew = ratio(most, sum/float64(len(a.Shards)))
		rerouted = d(a.Router.Rerouted, b.Router.Rerouted)
	}
	edgeHits, edgeLookups := d(ea.Hits, eb.Hits), d(ea.Hits+ea.Misses+ea.Coalesced, eb.Hits+eb.Misses+eb.Coalesced)
	m.put("cluster.edge_hit_ratio", ratio(edgeHits, edgeLookups))
	m.put("cluster.edge_coalesced", d(ea.Coalesced, eb.Coalesced))
	m.put("cluster.edge_evictions", d(ea.Evictions, eb.Evictions))
	m.put("cluster.edge_doomed", d(ea.Doomed, eb.Doomed))
	m.put("cluster.edge_purged", d(ea.Purged, eb.Purged))
	m.put("cluster.shard_skew", skew)
	m.put("cluster.rerouted", rerouted)

	byName := map[string][]float64{}
	byKind := map[string][]float64{}
	for _, s := range m.spans.spans() {
		us := float64(s.dur()) / 1e3
		byName[s.Name] = append(byName[s.Name], us)
		if s.Name == spanRouter {
			byKind[s.Kind] = append(byKind[s.Kind], us)
		}
	}
	m.put("server.handler_us_p50", quantile(byName[spanServer], 0.5))
	m.put("server.handler_us_p99", quantile(byName[spanServer], 0.99))
	m.put("cluster.router_us_p50", quantile(byName[spanRouter], 0.5))
	m.put("cluster.router_us_p99", quantile(byName[spanRouter], 0.99))
	for _, k := range []string{"fov", "fovmeta", "orig", "tile", "tilelow"} {
		m.put("cluster.router_us_p50."+k, quantile(byKind[k], 0.5))
	}
	var ingest time.Duration
	for _, s := range m.spans.spans() {
		if s.Name == spanIngest {
			ingest += s.dur()
		}
	}
	var segs int
	for _, man := range m.st.mans {
		segs += len(man.Segments)
	}
	m.put("server.ingest_s_per_segment", ingest.Seconds()/float64(segs))
}

// clientLayers reports the client-side layers from the traced sessions'
// tracers, fetch counters and playback stats (all zero for churn, whose
// generator has no client layers).
func (m *measurement) clientLayers(rs []sessionResult, frames int) {
	var fetch, decode telemetry.HistogramSnapshot
	var display, render, frameMs []float64
	var prefetchHits, prefetchIssued, cacheHits, loads, retries, timedOut float64
	var pteFrames, segments, fovSegs, tiledSegs, origSegs, tiles, mispredicted, tileErrs float64
	var acct sessionTime
	segFrames := server.DefaultIngestConfig().SAS.SegmentFrames
	sessions := make(map[uint64]span)
	requests := make(map[uint64][]span)
	for _, s := range m.spans.spans() {
		switch s.Name {
		case spanSession:
			sessions[s.ID] = s
		case spanRequest:
			requests[s.Parent] = append(requests[s.Parent], s)
		}
	}
	for i := range rs {
		r := &rs[i]
		tr := r.tracer
		f := tr.StageHistogram(telemetry.StageFetch).Snapshot()
		d := tr.StageHistogram(telemetry.StageDecode).Snapshot()
		fetch, decode = mergeHist(fetch, f), mergeHist(decode, d)
		ring := tr.Recent(0)
		for _, ft := range ring {
			var sum time.Duration
			for _, st := range ft.Stages {
				sum += st
			}
			frameMs = append(frameMs, float64(sum)/1e6)
			if ft.Stages[telemetry.StageDisplay] > 0 {
				display = append(display, float64(ft.Stages[telemetry.StageDisplay])/1e6)
			}
			if ft.Stages[telemetry.StageRender] > 0 {
				render = append(render, float64(ft.Stages[telemetry.StageRender])/1e6)
			}
		}
		acct.add(accountSession(sessions[r.sid], requests[r.sid], ring, d.Sum, r.stats.ModeTiledSegments, m.layerCost))
		prefetchHits += float64(r.counters.PrefetchHits)
		prefetchIssued += float64(r.counters.PrefetchIssued)
		cacheHits += float64(r.counters.CacheHits)
		loads += float64(r.io.segmentLoads)
		retries += float64(r.stats.Retries)
		timedOut += float64(r.stats.TimedOut)
		pteFrames += float64(r.stats.PTEFrames)
		segments += float64((r.stats.Frames + segFrames - 1) / segFrames)
		fovSegs += float64(r.stats.ModeFOVSegments)
		tiledSegs += float64(r.stats.ModeTiledSegments)
		origSegs += float64(r.stats.ModeOrigSegments)
		tiles += float64(r.stats.TiledTiles)
		mispredicted += float64(r.stats.MispredictedTiles)
		tileErrs += float64(r.stats.TiledTileErrors)
	}
	if rs != nil {
		printMix(m.stdout, rs, requests)
	}
	ms := func(s telemetry.HistogramSnapshot, q float64) float64 { return s.Quantile(q) * 1e3 }
	m.put("client.fetch_ms_p50", ms(fetch, 0.5))
	m.put("client.fetch_ms_p99", ms(fetch, 0.99))
	m.put("client.prefetch_useful_ratio", ratio(prefetchHits, prefetchIssued))
	m.put("client.cache_hit_ratio", ratio(cacheHits, cacheHits+loads))
	m.put("client.retries", retries)
	m.put("client.timed_out", timedOut)
	m.put("client.display_ms_p50", quantile(display, 0.5))
	m.put("client.display_ms_p99", quantile(display, 0.99))
	m.put("client.frame_ms_p50", quantile(frameMs, 0.5))
	m.put("client.frame_ms_p99", quantile(frameMs, 0.99))
	unattributed := acct.unattributedPct()
	m.put("client.unattributed_pct", unattributed)
	ok := 1.0
	if rs != nil {
		fmt.Fprintf(m.stdout, "demand path: %s; unattributed %.1f%% (tolerance ±%g%%)\n",
			acct, unattributed, m.spec.UnattributedTolPct)
		if math.Abs(unattributed) > m.spec.UnattributedTolPct {
			ok = 0
			fmt.Fprintln(m.stdout, "FLAG: demand-path stages do not account for session time")
		}
	}
	m.put("trace.sum_check_ok", ok)
	m.put("codec.decode_ms_p50", ms(decode, 0.5))
	m.put("codec.decode_ms_p99", ms(decode, 0.99))
	m.put("codec.decodes_per_segment_played", ratio(float64(decode.Count), segments))
	m.put("pte.render_ms_p50", quantile(render, 0.5))
	m.put("pte.render_ms_p99", quantile(render, 0.99))
	m.put("pte.pt_frame_ratio", ratio(pteFrames, float64(frames)))
	m.put("delivery.segments_fov", fovSegs)
	m.put("delivery.segments_tiled", tiledSegs)
	m.put("delivery.segments_orig", origSegs)
	m.put("delivery.tiles_per_segment", ratio(tiles, tiledSegs))
	m.put("delivery.mispredicted_tiles", mispredicted)
	m.put("delivery.tile_errors", tileErrs)
}

// printMix prints the traced sessions' payload GETs by endpoint kind,
// demand and prefetch alike: the mix serve-churn's weights come from.
func printMix(w io.Writer, rs []sessionResult, requests map[uint64][]span) {
	kinds := []string{"fov", "fovmeta", "orig", "tile", "tilelow"}
	count := make(map[string]int)
	var n int
	for i := range rs {
		for _, r := range requests[rs[i].sid] {
			if isPayload(r.Kind) {
				count[r.Kind]++
				n++
			}
		}
	}
	fmt.Fprintf(w, "request mix of %d payload GETs:", n)
	for _, k := range kinds {
		fmt.Fprintf(w, " %s %.4f", k, ratio(float64(count[k]), float64(n)))
	}
	fmt.Fprintln(w)
}

// selfTimes reports the trace's self time per layer, per op (displayed
// frame or request), and how many client request spans joined a handler
// span.
func (m *measurement) selfTimes(ops float64) {
	st := computeSelfTimes(m.spans.spans())
	m.put("self.session_ms_per_op", ratio(float64(st.session)/1e6, ops))
	m.put("self.request_ms_per_op", ratio(float64(st.request)/1e6, ops))
	m.put("self.handler_ms_per_op", ratio(float64(st.handler)/1e6, ops))
	m.put("trace.joined_ratio", ratio(float64(st.joined), float64(st.requests)))
}

// directLayers are the layer-pass results, each reported with its IQR.
var directLayers = []string{
	"codec.decode_ms_per_segment.orig",
	"codec.decode_ms_per_segment.fov",
	"codec.decode_ms_per_segment.tile",
	"pte.render_ms_per_frame",
	"pt.render_ms_per_frame",
	"ptlut.render_ms_per_frame",
	"delivery.assemble_ms_per_segment",
	"server.handler_ms_direct",
	"cluster.router_ms_direct",
}

// layers runs the direct layer pass; layers a workload's catalog cannot
// feed (tiles on an untiled ingest, a router without a cluster) read 0.
// It also keeps each payload kind's decode cost, and assembly's, for
// accountSession.
func (m *measurement) layers() error {
	p := pair{Video: m.w.Videos[0]}
	if len(m.pool) > 0 {
		p = m.pool[0]
	}
	got, err := layerPass(m.st, p)
	if err != nil {
		return fmt.Errorf("layer pass: %w", err)
	}
	for _, name := range directLayers {
		v := got[name]
		m.put(name, v[0])
		m.put(name+"_iqr", v[1])
	}
	m.layerCost = map[string]float64{"assemble": got["delivery.assemble_ms_per_segment"][0]}
	for _, kind := range []string{"orig", "fov", "tile", "tilelow"} {
		m.layerCost[kind] = got["codec.decode_ms_per_segment."+kind][0]
	}
	return nil
}

// Command perfbench is the repository's frame-path benchmark. For one
// workload it sets the serving side up in-process through the public
// server / cluster / store APIs, drives it from outside through
// client.Player.Play or plain HTTP GETs, checks every output, and prints
// the workload's metrics: human-readable lines, then one JSON object as
// the last line of standard output.
//
//	perfbench --workload sas-vod --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate
// traced run with the same seed and prints the per-layer metrics, writing
// its spans under --trace-dir. BENCHMARK.json, read from the working
// directory, names every workload and metric, and spec.json configures
// them; --workload all runs each workload in turn. `go test` in this
// directory runs the self-tests, including a short run of every workload
// (-short skips it).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// options are one invocation's flags.
type options struct {
	workload   string
	seed       uint64
	seconds    float64
	trace      int
	cpuprofile string
	traceDir   string
	golden     string
	benchmark  string
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run (see BENCHMARK.json), or all")
	fs.Uint64Var(&o.seed, "seed", 0, "input seed (0 = spec.json's default seed)")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured duration of the timed phase")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the timed phase to this file")
	fs.StringVar(&o.traceDir, "trace-dir", ".bench_build/traces", "directory traced runs write their spans to")
	fs.StringVar(&o.golden, "update-golden", "", "record every playback pair's checksums into this file and exit")
	fs.StringVar(&o.benchmark, "benchmark", "BENCHMARK.json", "the repository's BENCHMARK.json, which names every workload and metric")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(o.benchmark)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if o.seed == 0 {
		o.seed = spec.DefaultSeed
	}
	if o.golden != "" {
		if err := updateGolden(spec, o.golden); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var workloads []*Workload
	for i := range spec.Workloads {
		if o.workload == "all" || o.workload == spec.Workloads[i].Name {
			workloads = append(workloads, &spec.Workloads[i])
		}
	}
	if len(workloads) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	set := "end_to_end"
	if o.trace == 1 {
		set = "per_layer"
	}
	code := 0
	for _, w := range workloads {
		fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d nproc=%d go=%s commit=%s\n",
			w.Name, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit())
		res, err := runWorkload(spec, w, o, golden[w.Name], stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
			return 1
		}
		line, err := res.jsonLine(spec, set)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, line)
		if !res.correct {
			code = 1
		}
	}
	return code
}

// commit names the source revision when the tree is a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	problems          []string
	metrics           map[string]float64
}

func (r *result) jsonLine(spec *Spec, set string) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]value)}
	for _, m := range spec.metricsOf(set) {
		v, ok := r.metrics[m.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", m.Name)
		}
		out.Metrics[m.Name] = value{v, m.Unit}
	}
	known := make(map[string]bool)
	for _, m := range spec.Metrics {
		known[m.Name] = true
	}
	for name := range r.metrics {
		if !known[name] {
			return "", fmt.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// runWorkload sets the workload up, measures it and checks its outputs.
func runWorkload(spec *Spec, w *Workload, o options, golden map[string]string, stdout io.Writer) (*result, error) {
	traced := o.trace == 1
	var spans *spanLog
	repeats := spec.SetupRepeats
	if traced {
		spans = newSpanLog()
		repeats = 1
	}
	var setups []float64
	var st *stack
	spans.setOn(true)
	for i := 0; i < repeats; i++ {
		st = nil
		runtime.GC()
		t := time.Now()
		s, err := newStack(w, spec.Segments, spans)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		st = s
	}
	spans.setOn(false)
	handler := st.handler
	if traced {
		name := spanServer
		if st.clu != nil {
			name = spanRouter
		}
		handler = spans.wrap(name, handler)
	}
	l, err := serve(handler)
	if err != nil {
		return nil, err
	}
	defer l.close()
	transport := newTransport(w.Connections)
	defer transport.CloseIdleConnections()

	m := &measurement{spec: spec, w: w, o: o, st: st, spans: spans, stdout: stdout,
		res: &result{metrics: make(map[string]float64)}}
	if w.Kind == "playback" {
		m.pool = poolOf(w)
	}
	if traced {
		// The direct layer pass runs on inputs captured at set-up, before
		// the timed phases; the sum check needs its decode costs.
		if err := m.layers(); err != nil {
			return nil, err
		}
	}
	m.res.metrics["setup_s"] = median(setups)
	fmt.Fprintf(stdout, "setup_s %.4f s (median of %d set-ups)\n", median(setups), len(setups))
	d := time.Duration(o.seconds * float64(time.Second))
	if traced {
		d /= 2 // the untraced and the traced phase share the run's time
	}
	if w.Kind == "churn" {
		err = m.churn(newChurn(w, st, l.url, transport, o.seed, spans), d)
	} else {
		var pb *playback
		if pb, err = newPlayback(w, l.url, spec.Segments, transport, m.pool, spans); err == nil {
			err = m.playback(pb, golden, d)
		}
	}
	if err != nil {
		return nil, err
	}
	if traced {
		path := traceFile(o.traceDir, w.Name, o.seed)
		if err := spans.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
	}
	r := m.res
	r.metrics["error_rate"] = ratio(float64(r.failed), float64(r.attempted))
	r.correct = r.failed == 0 && len(r.problems) == 0
	for _, p := range r.problems {
		fmt.Fprintln(stdout, "MISMATCH", p)
	}
	if !traced {
		printE2E(stdout, w.Kind, r)
	}
	return r, nil
}

// measurement carries one run's state between its phases.
type measurement struct {
	spec   *Spec
	w      *Workload
	o      options
	st     *stack
	spans  *spanLog
	stdout io.Writer
	res    *result
	pool   []pair
	// layerCost is each payload kind's decode time, and assembly's
	// ("assemble"), in the layer pass, in ms.
	layerCost map[string]float64
}

// phaseCost is what a timed phase cost the process.
type phaseCost struct {
	heapMB, cpuS float64
	rt0, rt1     runtimeSample
}

// timed runs fn as the timed phase: heap peak, CPU time, runtime counters
// and the optional CPU profile cover exactly fn.
func (m *measurement) timed(fn func()) (c phaseCost, err error) {
	runtime.GC()
	if m.o.cpuprofile != "" {
		f, err := os.Create(m.o.cpuprofile)
		if err != nil {
			return c, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return c, err
		}
		defer pprof.StopCPUProfile()
	}
	hp := startHeapPeak()
	c.rt0 = readRuntime()
	cpu := cpuSeconds()
	fn()
	c.cpuS = cpuSeconds() - cpu
	c.rt1 = readRuntime()
	c.heapMB = hp.end()
	return c, nil
}

func (m *measurement) put(name string, v float64) { m.res.metrics[name] = v }

// playback plays one warm-up cycle through the pool (each pair's first
// play: the checksum reference, and warm caches and heap), then the timed
// phase; a traced run times an untraced phase first, then the traced one.
func (m *measurement) playback(pb *playback, golden map[string]string, d time.Duration) error {
	sums := newChecksums(golden)
	check := func(rs []sessionResult) {
		for i := range rs {
			bad := !sums.check(&rs[i]) || rs[i].failed()
			m.res.attempted++
			if bad {
				m.res.failed++
			}
		}
	}
	order := sessionOrder(len(pb.pool), 1<<14, m.o.seed)
	check(pb.run(order, 0))

	var rs []sessionResult
	var wall time.Duration
	cost, err := m.timed(func() {
		t := time.Now()
		rs = pb.run(order, d)
		wall = time.Since(t)
	})
	if err != nil {
		return err
	}
	check(rs)
	t := totalsOf(rs)
	fps := t.fps(m.w.Sessions)
	m.put("ops_per_s", fps)
	m.put("latency_ms_p50", quantile(t.latencyMs, 0.5))
	m.put("latency_ms_p99", quantile(t.latencyMs, 0.99))
	m.put("bytes_per_op", ratio(float64(t.bytes), float64(t.frames)))
	m.put("heap_peak_mb", cost.heapMB)
	m.put("runtime.cpu_ms_per_op", 1e3*cost.cpuS/float64(t.frames))
	m.put("client.fov_hit_rate", ratio(float64(t.hits), float64(t.frames)))
	m.put("client.session_frame_ms_p50", quantile(t.sessionFrameMs, 0.5))
	m.put("client.session_frame_ms_p90", quantile(t.sessionFrameMs, 0.9))
	fmt.Fprintf(m.stdout, "timed phase: %d sessions, %d frames, %d payload GETs in %.3f s\n",
		t.sessions, t.frames, len(t.latencyMs), wall.Seconds())
	defer func() { m.res.problems = append(m.res.problems, sums.problems...) }()
	if m.o.trace == 0 {
		return nil
	}

	// Traced run: the phase above was untraced; now the same again with
	// spans on, and the per-layer numbers come from this one.
	before := m.st.counters()
	m.spans.setOn(true)
	traced := pb.run(order, d)
	m.spans.setOn(false)
	after := m.st.counters()
	check(traced)
	tt := totalsOf(traced)
	m.put("trace.overhead_pct", 100*(fps-tt.fps(m.w.Sessions))/fps)
	m.put("runtime.alloc_mb_per_frame", ratio(cost.rt1.allocBytes-cost.rt0.allocBytes, float64(t.frames))/(1<<20))
	m.put("runtime.gc_cpu_pct", 100*ratio(cost.rt1.gcCPU-cost.rt0.gcCPU, cost.rt1.totalCPU-cost.rt0.totalCPU))
	for _, name := range []string{"max_rps", "gen.late_ms_p99", "gen.sent", "cluster.publish_ms_p50", "cluster.publish_ms_max"} {
		m.put(name, 0) // churn-only layers
	}
	m.serverLayers(before, after)
	m.clientLayers(traced, tt.frames)
	m.selfTimes(float64(tt.frames))
	return nil
}

// churn records the reference bodies and runs the ladder; a traced run
// runs it untraced first, then traced.
func (m *measurement) churn(c *churn, d time.Duration) error {
	if err := c.recordReference(); err != nil {
		return err
	}
	var ph churnPhase
	cost, err := m.timed(func() { ph = c.run(d) })
	if err != nil {
		return err
	}
	count := func(ph *churnPhase) {
		n, failed, _ := ph.totals()
		m.res.attempted += n
		m.res.failed += failed
		if failed > 0 {
			m.res.problems = append(m.res.problems, fmt.Sprintf("%d of %d requests failed or returned a body unlike set-up's", failed, n))
		}
	}
	count(&ph)
	nom := ph.nominal(m.w)
	n, _, bytes := ph.totals()
	m.put("ops_per_s", ph.capacity())
	m.put("max_rps", ph.maxRPS())
	m.put("latency_ms_p50", nom.p50)
	m.put("latency_ms_p99", nom.p99)
	m.put("bytes_per_op", ratio(float64(bytes), float64(n)))
	m.put("heap_peak_mb", cost.heapMB)
	m.put("runtime.cpu_ms_per_op", 1e3*cost.cpuS/float64(n))
	for _, r := range ph.rungs {
		fmt.Fprintf(m.stdout, "rung %6.0f req/s: achieved %8.1f req/s  p50 %7.3f ms  p99 %7.3f ms  backlog %4d  failed %d  pass %v\n",
			r.rate, r.achieved, r.p50, r.p99, r.backlog, r.failed, r.pass)
	}
	if ph.maxRPS() == 0 {
		fmt.Fprintf(m.stdout, "max_rps: no rung met the %.0f ms p99 limit\n", m.w.LatencyLimitMs)
	}
	if m.o.trace == 0 {
		return nil
	}

	before := m.st.counters()
	m.spans.setOn(true)
	tph := c.run(d)
	m.spans.setOn(false)
	after := m.st.counters()
	count(&tph)
	tn := tph.nominal(m.w)
	tnReqs, _, _ := tph.totals()
	m.put("trace.overhead_pct", 100*(tn.p50-nom.p50)/nom.p50)
	m.put("gen.late_ms_p99", quantile(tn.lateMs, 0.99))
	m.put("gen.sent", float64(tnReqs))
	m.put("runtime.alloc_mb_per_frame", 0)
	m.put("runtime.gc_cpu_pct", 100*ratio(cost.rt1.gcCPU-cost.rt0.gcCPU, cost.rt1.totalCPU-cost.rt0.totalCPU))
	m.put("cluster.publish_ms_p50", quantile(tph.publishMs, 0.5))
	m.put("cluster.publish_ms_max", quantile(tph.publishMs, 1))
	for _, name := range []string{"client.fov_hit_rate", "client.session_frame_ms_p50", "client.session_frame_ms_p90"} {
		m.put(name, 0) // the generator plays no frames
	}
	m.serverLayers(before, after)
	m.clientLayers(nil, 0)
	m.selfTimes(float64(tnReqs))
	return nil
}

// workloadNames maps the end-to-end metrics under their per-workload names
// onto the measured spec names: the JSON line carries names every
// workload reports, the text lines say what each means here.
var workloadNames = map[string][][3]string{
	"playback": {
		{"fps", "ops_per_s", "frames/s"},
		{"frame_ms_p50", "client.session_frame_ms_p50", "ms"},
		{"frame_ms_p90", "client.session_frame_ms_p90", "ms"},
		{"fetch_ms_p50", "latency_ms_p50", "ms"},
		{"fetch_ms_p99", "latency_ms_p99", "ms"},
		{"bytes_per_frame", "bytes_per_op", "B"},
		{"fov_hit_rate", "client.fov_hit_rate", "ratio"},
	},
	"churn": {
		{"req_ms_p50", "latency_ms_p50", "ms"},
		{"req_ms_p99", "latency_ms_p99", "ms"},
		{"max_rps", "max_rps", "req/s"},
		{"capacity_rps", "ops_per_s", "req/s"},
		{"bytes_per_request", "bytes_per_op", "B"},
	},
}

// printE2E prints the end-to-end metrics under the workload's own names.
func printE2E(w io.Writer, kind string, r *result) {
	rows := append(workloadNames[kind],
		[3]string{"error_rate", "error_rate", "ratio"},
		[3]string{"heap_peak_mb", "heap_peak_mb", "MiB"},
		[3]string{"setup_s", "setup_s", "s"})
	for _, row := range rows {
		fmt.Fprintf(w, "%-18s %14.6g %-8s (%s)\n", row[0], r.metrics[row[1]], row[2], row[1])
	}
}

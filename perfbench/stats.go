package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"evr/internal/telemetry"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mergeHist adds b's buckets into a (same bounds: both come from
// telemetry's default stage buckets).
func mergeHist(a, b telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	if a.Count == 0 {
		return b
	}
	if b.Count == 0 {
		return a
	}
	out := a
	out.Counts = append([]int64(nil), a.Counts...)
	for i := range out.Counts {
		out.Counts[i] += b.Counts[i]
	}
	out.Count += b.Count
	out.Sum += b.Sum
	out.Max = max(a.Max, b.Max)
	return out
}

// runtimeSample reads the Go runtime's cumulative allocation and CPU
// counters.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: f(0), gcCPU: f(1), totalCPU: f(2)}
}

// heapPeak samples the live heap (as of the latest GC mark) every few
// milliseconds until stopped, keeping the maximum: the peak heap the
// program holds, without the garbage whose amount depends on when the GC
// happened to run.
type heapPeak struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(s)
		h.peak = max(h.peak, s[0].Value.Uint64())
	}
	read()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// end stops sampling and returns the peak in MiB.
func (h *heapPeak) end() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

// cpuSeconds returns the CPU time the process has used, user plus system.
// Unlike wall time it leaves out time the machine gave to others.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

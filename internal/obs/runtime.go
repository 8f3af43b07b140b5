package obs

import (
	"math"
	"runtime/metrics"
	"sync"
)

// The Go runtime's own accounting, so that "where did the memory go" is
// answerable from /metrics without attaching pprof: goroutines, live heap,
// bytes ever allocated, and time the garbage collector stopped the world.
// The runtime is read once per Gather (one metrics.Read for all four), and
// the series are function-backed views of that reading.

var runtimeSeries = []struct {
	sample, name, help string
	gauge              bool
}{
	{"/sched/goroutines:goroutines", "annoda_go_goroutines", "Live goroutines.", true},
	{"/gc/heap/live:bytes", "annoda_go_heap_live_bytes", "Heap bytes the last garbage collection marked live.", true},
	{"/gc/heap/allocs:bytes", "annoda_go_alloc_bytes_total", "Bytes allocated on the heap since process start.", false},
	{"/sched/pauses/total/gc:seconds", "annoda_go_gc_pause_micros_total", "Stop-the-world time spent in garbage collection since process start, in microseconds (summed from the runtime's pause histogram).", false},
}

// registerRuntime adds the annoda_go_* series to reg.
func registerRuntime(reg *Registry) {
	var mu sync.Mutex
	samples := make([]metrics.Sample, len(runtimeSeries))
	values := make([]int64, len(runtimeSeries))
	for i, rs := range runtimeSeries {
		samples[i].Name = rs.sample
	}
	reg.OnGather(func() {
		mu.Lock()
		defer mu.Unlock()
		metrics.Read(samples)
		for i, s := range samples {
			switch s.Value.Kind() {
			case metrics.KindUint64:
				values[i] = int64(s.Value.Uint64())
			case metrics.KindFloat64Histogram:
				values[i] = int64(histogramTotal(s.Value.Float64Histogram()) * 1e6)
			}
		}
	})
	for i, rs := range runtimeSeries {
		read := func() int64 {
			mu.Lock()
			defer mu.Unlock()
			return values[i]
		}
		if rs.gauge {
			reg.GaugeFunc(rs.name, rs.help, read)
		} else {
			reg.CounterFunc(rs.name, rs.help, read)
		}
	}
}

// histogramTotal estimates the sum of a runtime histogram's observations,
// taking each bucket at its midpoint (its finite bound when the other is
// infinite).
func histogramTotal(h *metrics.Float64Histogram) float64 {
	total := 0.0
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			lo = hi
		case math.IsInf(hi, 1):
			hi = lo
		}
		total += float64(n) * (lo + hi) / 2
	}
	return total
}

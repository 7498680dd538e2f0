package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

const (
	heapLiveMetric  = "/memory/classes/heap/objects:bytes" // MemStats.HeapAlloc
	heapAllocMetric = "/gc/heap/allocs:bytes"              // MemStats.TotalAlloc
	heapObjsMetric  = "/gc/heap/allocs:objects"            // MemStats.Mallocs
)

// readUint reads one runtime metric. runtime/metrics does not stop the
// world, unlike runtime.ReadMemStats, so sampling every 2 ms does not
// perturb the iteration it watches.
func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler tracks the highest live-heap reading between start and
// peak.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64)}
	go func() {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		peak := readUint(heapLiveMetric)
		for {
			select {
			case <-tick.C:
				peak = max(peak, readUint(heapLiveMetric))
			case <-h.stop:
				h.done <- max(peak, readUint(heapLiveMetric))
				return
			}
		}
	}()
	return h
}

// peak stops the sampler, waits for it and returns the highest reading.
func (h *heapSampler) peak() uint64 {
	close(h.stop)
	return <-h.done
}

// sample is one measured iteration.
type sample struct {
	allocated uint64  // bytes allocated during the iteration
	peakHeap  uint64  // highest live heap sampled during the iteration
	slow      float64 // the host's slowdown around the iteration (reference.go)
	out       outcome
}

// wall is the iteration's timed region in reference seconds.
func (s sample) wall() float64 { return s.out.wall.Seconds() / s.slow }

// measure runs one iteration with the collector settled beforehand. The
// iteration times itself (outcome.wall), so the bookkeeping here stays
// outside the timed region.
func measure(iterate func() (outcome, error)) (sample, error) {
	runtime.GC()
	hs := startHeapSampler()
	a0 := readUint(heapAllocMetric)
	out, err := iterate()
	a1 := readUint(heapAllocMetric)
	return sample{allocated: a1 - a0, peakHeap: hs.peak(), out: out}, err
}

// stat is one reported metric: Value is the median of the iteration
// samples (the minimum for kernels, see kernels.go), printed with the
// range and the sample count behind it.
type stat struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"` // in the order measured
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianStat(unit string, v []float64) stat {
	if len(v) == 0 {
		return stat{Unit: unit}
	}
	st := stat{Unit: unit, Value: median(v), Min: v[0], Max: v[0], N: len(v), Samples: v}
	for _, x := range v {
		st.Min, st.Max = min(st.Min, x), max(st.Max, x)
	}
	return st
}

package history

import "repro/internal/metrics"

// Now returns the recorder's current virtual-clock reading. The
// witness-latency instrumentation subtracts operation response times
// from it to measure how long a violation stayed undetected.
func (r *Recorder) Now() int64 { return r.clock() }

// RegisterMetrics registers the recorder's gauges: operations recorded,
// communication events recorded, and currently pending (invoked but
// unresponded) operations. Probes run at serial sample points, where no
// recording is in flight; the mutex is taken anyway so the race
// detector can see the discipline.
func (r *Recorder) RegisterMetrics(reg *metrics.Registry) {
	reg.Probe("hist.ops", func() int64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return int64(r.nextID)
	})
	reg.Probe("hist.comm", func() int64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return int64(r.ncomm)
	})
	reg.Probe("hist.pendingOps", func() int64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return int64(len(r.pending))
	})
}

// Package metrics is the deterministic observability layer: counters,
// gauges and histograms sampled against *virtual time*, so that for a
// fixed configuration and seed the full metric stream — every sampled
// series row, every final counter value — is byte-identical across
// runs. It is the instrument panel of the whole pipeline (simnet,
// replica, history, consistency, btsim), and its hard correctness
// requirement is digest-neutrality: attaching a Registry must not
// change a single scheduled event, RNG draw or recorded history byte.
//
// The determinism argument, instrument by instrument:
//
//   - Counters (and per-process CounterVec slots) are plain sums, mutated
//     from the goroutine that runs the simulation; a live deployment
//     adds its totals once, after its nodes have stopped.
//   - Gauges are probe *functions*, evaluated only at sample points.
//     Sample points sit at virtual-time boundaries — "just before the
//     first event with time ≥ boundary executes" — where every event
//     strictly earlier has executed and none later has.
//   - Histograms accumulate bucket counts (commutative sums again); a
//     small mutex lets a live run's client goroutines observe
//     concurrently without affecting the counts.
//
// Wall-clock measurements (live elapsed and settle times, async queue
// high-water marks) are inherently non-deterministic; they live in the
// Snapshot's Timing section, which is excluded from Snapshot.Digest.
package metrics

import "sync"

// Counter is a monotone (or at least sum-semantics) int64 counter.
// Inc/Add perform one integer addition: no allocation, no lock — safe
// on the hottest paths. Mutate it from one goroutine at a time (see the
// package comment).
type Counter struct {
	name string
	v    int64
}

// Add adds d.
func (c *Counter) Add(d int64) { c.v += d }

// CounterVec is a counter with one slot per process, each incremented
// on behalf of its own process.
type CounterVec struct {
	name  string
	slots []int64
}

// Inc adds 1 to process p's slot.
func (cv *CounterVec) Inc(p int) { cv.slots[p]++ }

// Total sums every slot.
func (cv *CounterVec) Total() int64 {
	var t int64
	for _, v := range cv.slots {
		t += v
	}
	return t
}

// Max returns the largest slot value.
func (cv *CounterVec) Max() int64 {
	var m int64
	for _, v := range cv.slots {
		if v > m {
			m = v
		}
	}
	return m
}

// Histogram counts observations into fixed buckets (upper bounds,
// ascending; one implicit +Inf bucket). Observations are rare events
// (witness latencies, batch sizes), so a mutex is affordable; bucket
// sums commute, keeping the final counts deterministic regardless of
// observation interleaving.
type Histogram struct {
	mu     sync.Mutex
	name   string
	bounds []int64
	counts []int64 // len(bounds)+1; last is +Inf
	n, sum int64
}

// Observe files v into its bucket.
func (h *Histogram) Observe(v int64) {
	h.mu.Lock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.n++
	h.sum += v
	h.mu.Unlock()
}

// probe is one registered gauge: a named function evaluated at sample
// points.
type probe struct {
	name string
	fn   func() int64
}

// Row is one sampled series row: the probe values at virtual time VT.
type Row struct {
	VT   int64   `json:"vt"`
	Vals []int64 `json:"vals"`
}

// Registry is one run's instrument registry plus its virtual-time
// sampler. Create it with New, hand it to the layers to register their
// instruments (registration order is fixed by the wiring code, so the
// series schema is deterministic), let the scheduler drive Tick, and
// call Snapshot once after the run.
type Registry struct {
	every      int64
	nextSample int64
	counters   []*Counter
	vecs       []*CounterVec
	hists      []*Histogram
	probes     []probe
	rows       []Row
	clock      func() int64
	timing     []NamedValue
}

// DefaultSampleEvery is the sampling interval used when none is given.
const DefaultSampleEvery = 16

// New creates a registry sampling every `every` virtual-time units
// (≤ 0 means DefaultSampleEvery). The first sample boundary is at
// virtual time `every` — time 0 would sample all-zero state.
func New(every int64) *Registry {
	if every <= 0 {
		every = DefaultSampleEvery
	}
	return &Registry{every: every, nextSample: every}
}

// Counter registers a named counter.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{name: name}
	r.counters = append(r.counters, c)
	return c
}

// CounterVec registers a named per-process counter with n slots.
func (r *Registry) CounterVec(name string, n int) *CounterVec {
	cv := &CounterVec{name: name, slots: make([]int64, n)}
	r.vecs = append(r.vecs, cv)
	return cv
}

// Histogram registers a named histogram with the given ascending
// bucket upper bounds (an implicit +Inf bucket is appended).
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	h := &Histogram{name: name, bounds: bounds, counts: make([]int64, len(bounds)+1)}
	r.hists = append(r.hists, h)
	return h
}

// Probe registers a named gauge: fn is evaluated at every sample point
// (between two events, so it may read any simulation state) and its
// final value is folded into the snapshot's Counters section.
// Registration order defines the series column order, so wire probes
// in a fixed order.
func (r *Registry) Probe(name string, fn func() int64) {
	r.probes = append(r.probes, probe{name: name, fn: fn})
}

// SetClock attaches the virtual clock used to stamp the final sample
// at Snapshot time (simnet.Sim.SetMetrics wires Sim.Now).
func (r *Registry) SetClock(clock func() int64) { r.clock = clock }

// Tick advances the sampler: next is the virtual time of the next
// event about to execute. Every boundary ≤ next that has not been
// sampled yet is sampled now — i.e. with the state "after all events
// strictly before the boundary's crossing event". The common case (no
// boundary crossed) is a single comparison, keeping the hot loop
// unharmed.
func (r *Registry) Tick(next int64) {
	for r.nextSample <= next {
		r.sampleRow(r.nextSample)
		r.nextSample += r.every
	}
}

func (r *Registry) sampleRow(vt int64) {
	if len(r.probes) == 0 {
		return
	}
	vals := make([]int64, len(r.probes))
	for i := range r.probes {
		vals[i] = r.probes[i].fn()
	}
	r.rows = append(r.rows, Row{VT: vt, Vals: vals})
}

// AddTiming accumulates a named wall-clock measurement (nanoseconds,
// queue depths — anything non-deterministic). Timing entries land in
// the snapshot's Timing section, excluded from the digest.
func (r *Registry) AddTiming(name string, v int64) {
	for i := range r.timing {
		if r.timing[i].Name == name {
			r.timing[i].Value += v
			return
		}
	}
	r.timing = append(r.timing, NamedValue{Name: name, Value: v})
}

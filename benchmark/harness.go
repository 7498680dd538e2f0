package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"
)

// metricDef names one reported metric. Bound is the share of the
// baseline median by which an end-to-end metric may get worse before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool // higher is better
	Bound  float64
}

// endToEnd lists what a user of the system pays for a judged execution.
// BENCHMARK.json repeats this table; TestManifestMatchesCode keeps them
// equal. The times are reference seconds (reference.go). They carry the
// widest bound the benchmark contract allows: what the reference kernel
// cannot cancel of the host's noise still spreads run medians of one
// commit by 5-12 % (README.md, "Noise").
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Bound: 0.25},
	{Name: "ops_per_s", Unit: "op/s", Higher: true, Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Bound: 0.10},
	{Name: "peak_heap_mb", Unit: "MB", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Bound: 0.25},
}

// perLayer lists the single-layer metrics of the traced pass: spans and
// counts taken around public calls, then the isolated kernels.
var perLayer = []metricDef{
	{Name: "simnet.run_s", Unit: "s"},
	{Name: "simnet.run_self_s", Unit: "s"},
	{Name: "simnet.steps", Unit: "count"},
	{Name: "simnet.delivered", Unit: "count"},
	{Name: "simnet.queue_peak", Unit: "count"},
	{Name: "simnet.merge_stall_s", Unit: "s"},
	{Name: "simnet.flood_ns_per_event", Unit: "ns"},
	{Name: "simnet.flood_allocs_per_event", Unit: "count"},
	{Name: "simnet.flood_s2_ns_per_event", Unit: "ns"},
	{Name: "replica.build_s", Unit: "s"},
	{Name: "replica.blocks_attached", Unit: "count", Higher: true},
	{Name: "replica.orphans_buffered", Unit: "count"},
	{Name: "core.select_s", Unit: "s"},
	{Name: "core.select_calls", Unit: "count"},
	{Name: "core.predicate_s", Unit: "s"},
	{Name: "core.predicate_calls", Unit: "count"},
	{Name: "core.attach_ns_per_block", Unit: "ns"},
	{Name: "core.select_longest_ns_per_call", Unit: "ns"},
	{Name: "core.select_single_ns_per_call", Unit: "ns"},
	{Name: "core.select_ghost_ns_per_call", Unit: "ns"},
	{Name: "history.snapshot_s", Unit: "s"},
	{Name: "history.sink_s", Unit: "s"},
	{Name: "history.ops", Unit: "count", Higher: true},
	{Name: "history.comm_events", Unit: "count"},
	{Name: "history.segments", Unit: "count"},
	{Name: "history.record_comm_ns_per_event", Unit: "ns"},
	{Name: "history.record_comm_bytes_per_event", Unit: "B"},
	{Name: "history.record_read_ns_per_op", Unit: "ns"},
	{Name: "history.snapshot_ns_per_event", Unit: "ns"},
	{Name: "consistency.classify_s", Unit: "s"},
	{Name: "consistency.monitor_ops", Unit: "count", Higher: true},
	{Name: "consistency.monitor_retained_peak", Unit: "count"},
	{Name: "consistency.witnesses", Unit: "count"},
	{Name: "consistency.classify_ns_per_op", Unit: "ns"},
	{Name: "consistency.monitor_ns_per_op", Unit: "ns"},
	{Name: "protocols.run_s", Unit: "s"},
	{Name: "oracle.mint_s", Unit: "s"},
	{Name: "oracle.mint_calls", Unit: "count"},
	{Name: "oracle.token_ns_per_call", Unit: "ns"},
	{Name: "transport.load_s", Unit: "s"},
	{Name: "transport.settle_s", Unit: "s"},
	{Name: "transport.overhead_s", Unit: "s"},
	{Name: "transport.frames_sent", Unit: "count"},
	{Name: "transport.frames_per_append", Unit: "count"},
	{Name: "transport.append_lat_p50_us", Unit: "us"},
	{Name: "transport.append_lat_p99_us", Unit: "us"},
	{Name: "transport.read_lat_p50_us", Unit: "us"},
	{Name: "transport.read_lat_p99_us", Unit: "us"},
	{Name: "transport.codec_encode_ns_per_frame", Unit: "ns"},
	{Name: "transport.codec_decode_ns_per_frame", Unit: "ns"},
	{Name: "transport.codec_bytes_per_frame", Unit: "B"},
	{Name: "transport.tcp_ns_per_msg", Unit: "ns"},
	{Name: "transport.chan_ns_per_msg", Unit: "ns"},
	{Name: "trace.overhead_pct", Unit: "%"},
	{Name: "ref.slowdown", Unit: "x"},
}

// plan says how much of each phase a run makes.
type plan struct {
	setups int           // set-ups per workload; setup_s is their median
	plain  time.Duration // measuring time per workload for untraced iterations alone
	// traced is the measuring time per workload for the traced pass, in
	// which every traced iteration is paired with an untraced one so
	// that the overhead is taken between neighbours in time; zero skips
	// the traced pass and the kernels.
	traced  time.Duration
	kernels kernelSizes
	ref     reference
}

// minIters is the least number of iterations a phase measures, however
// short its budget.
const minIters = 3

// state is one workload's progress through a run.
type state struct {
	w        *workload
	seed     uint64
	ref      *reference
	setups   []float64 // reference seconds
	plain    []sample
	traced   []sample
	layers   []map[string]float64 // one per traced iteration
	first    *pin
	failures []string
}

func (st *state) fail(format string, args ...any) {
	st.failures = append(st.failures, st.w.name+": "+fmt.Sprintf(format, args...))
}

// setup times input construction plus the warm-up iteration, with the
// heap settled first so every set-up starts from the same place.
func (st *state) setup() {
	warm := st.w.warm
	if warm == nil {
		warm = func(seed uint64) error { _, err := st.w.run(seed, nil); return err }
	}
	var took time.Duration
	slow := st.ref.around(func() {
		runtime.GC()
		t0 := now()
		if err := warm(st.seed); err != nil {
			st.fail("warm-up: %v", err)
		}
		took = now() - t0
	})
	st.setups = append(st.setups, took.Seconds()/slow)
}

// iterate measures one iteration, traced when tr is non-nil, and checks
// its output.
func (st *state) iterate(tr *tracer) {
	if tr != nil {
		tr.workload, tr.iter = st.w.name, len(st.traced)
	}
	var (
		s   sample
		err error
	)
	slow := st.ref.around(func() {
		s, err = measure(func() (outcome, error) { return st.w.run(st.seed, tr) })
	})
	s.slow = slow
	if err == nil {
		if st.first == nil {
			st.first = &s.out.pin
		}
		err = checkPin(st.w, st.seed, *st.first, s.out.pin)
	}
	if err != nil {
		st.fail("%v", err)
	}
	if tr == nil {
		st.plain = append(st.plain, s)
		return
	}
	layer := layerSeconds(tr.spans, tr.workload, tr.iter)
	for k, v := range s.out.layer {
		layer[k] = v
	}
	layer["ref.slowdown"] = slow
	st.traced = append(st.traced, s)
	st.layers = append(st.layers, layer)
}

// pair measures one untraced and one traced iteration next to each other
// in time and records the traced one's overhead against its neighbour.
func (st *state) pair(tr *tracer, tracedFirst bool) {
	if tracedFirst {
		st.iterate(tr)
	}
	st.iterate(nil)
	if !tracedFirst {
		st.iterate(tr)
	}
	plain, traced := st.plain[len(st.plain)-1], st.traced[len(st.traced)-1]
	// Clock seconds, like every per-layer time: the two are neighbours in
	// time, and two more reference readings would add their own noise.
	st.layers[len(st.layers)-1]["trace.overhead_pct"] = (traced.out.wall.Seconds()/plain.out.wall.Seconds() - 1) * 100
}

// roundRobin gives every workload budget of measuring time, one turn at
// a time, so that a disturbance of the machine is not charged to one
// workload alone. A turn is one untraced iteration, paired with a traced
// one when tr is non-nil; the order within the pair alternates, so that
// running second is not charged to the tracing. A workload stops when
// another turn would leave it further from its budget than stopping
// does.
func roundRobin(sts []*state, budget time.Duration, tr *tracer) {
	spent := make([]time.Duration, len(sts))
	turns := make([]int, len(sts))
	for active := true; active; {
		active = false
		for i, st := range sts {
			if turns[i] >= minIters && spent[i]+spent[i]/time.Duration(2*turns[i]) > budget {
				continue
			}
			active = true
			t0 := now()
			if tr == nil {
				st.iterate(nil)
			} else {
				st.pair(tr, turns[i]%2 == 1)
			}
			spent[i] += now() - t0
			turns[i]++
		}
	}
}

// environment is recorded with every result: numbers from different
// machines or toolchains are not comparable.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	env := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// workloadResult is one workload's row of the result file.
type workloadResult struct {
	Name      string          `json:"name"`
	Seed      uint64          `json:"seed"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Pin       *pin            `json:"pin,omitempty"`
	Slowdown  stat            `json:"slowdown"` // of the host, over the untraced iterations
	EndToEnd  map[string]stat `json:"end_to_end,omitempty"`
	PerLayer  map[string]stat `json:"per_layer,omitempty"`
}

// result is the file -compare reads.
type result struct {
	Env       environment      `json:"env"`
	Workloads []workloadResult `json:"workloads"`
	Failures  []string         `json:"failures,omitempty"`
}

// run executes the plan over the workloads: set-ups, the untraced
// iterations, then the traced pass and the kernels.
func run(ws []workload, seed *uint64, pl plan, tr *tracer) result {
	sts := make([]*state, len(ws))
	for i := range ws {
		sts[i] = &state{w: &ws[i], seed: ws[i].seed, ref: &pl.ref}
		if seed != nil {
			sts[i].seed = *seed
		}
	}
	for _, st := range sts {
		for i := 0; i < pl.setups; i++ {
			st.setup()
		}
	}
	if pl.plain > 0 {
		roundRobin(sts, pl.plain, nil)
	}

	res := result{Env: currentEnvironment()}
	var kernels map[string]float64
	if pl.traced > 0 {
		roundRobin(sts, pl.traced, tr)
		var err error
		if kernels, err = runKernels(pl.kernels); err != nil {
			res.Failures = append(res.Failures, err.Error())
		}
	}
	for _, st := range sts {
		res.Workloads = append(res.Workloads, st.result(pl, kernels))
		res.Failures = append(res.Failures, st.failures...)
	}
	return res
}

func (st *state) result(pl plan, kernels map[string]float64) workloadResult {
	// A failed self-check counts as one failed operation.
	wr := workloadResult{Name: st.w.name, Seed: st.seed, Failed: len(st.failures)}
	if st.first != nil && *st.first != (pin{}) {
		wr.Pin = st.first
	}
	e2e := map[string][]float64{"setup_s": st.setups}
	var slow []float64
	for _, s := range st.plain {
		over := s.out.wall
		if s.out.loadTime > 0 {
			over = s.out.loadTime
		}
		slow = append(slow, s.slow)
		e2e["wall_s"] = append(e2e["wall_s"], s.wall())
		e2e["ops_per_s"] = append(e2e["ops_per_s"], float64(s.out.ops)/(over.Seconds()/s.slow))
		e2e["alloc_mb"] = append(e2e["alloc_mb"], float64(s.allocated)/1e6)
		e2e["peak_heap_mb"] = append(e2e["peak_heap_mb"], float64(s.peakHeap)/1e6)
	}
	for _, s := range append(st.plain, st.traced...) {
		wr.Attempted += s.out.attempted
		wr.Failed += s.out.failed
	}
	wr.Slowdown = medianStat("x", slow)
	wr.EndToEnd = map[string]stat{}
	for _, d := range endToEnd {
		wr.EndToEnd[d.Name] = medianStat(d.Unit, e2e[d.Name])
	}
	if pl.traced == 0 {
		return wr
	}

	wr.PerLayer = map[string]stat{}
	for _, d := range perLayer {
		if v, ok := kernels[d.Name]; ok {
			wr.PerLayer[d.Name] = stat{Unit: d.Unit, Value: v, Min: v, Max: v, N: pl.kernels.reps}
			continue
		}
		var vals []float64
		for _, layer := range st.layers {
			vals = append(vals, layer[d.Name])
		}
		wr.PerLayer[d.Name] = medianStat(d.Unit, vals)
	}
	return wr
}

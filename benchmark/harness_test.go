package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/core"
)

// tinyWorkloads are the five workload shapes at test size.
func tinyWorkloads() []workload {
	return []workload{
		simWorkload("flood", 42, nil, simCfg{n: 8, blocks: 200}),
		simWorkload("adv", 42, nil, simCfg{n: 8, blocks: 200, shards: 2, adversarial: true}),
		fabricWorkload("reads", 2026, nil, fabricCfg{n: 8, rounds: 200}),
		liveWorkload("tcp", 1, liveCfg{carrier: "tcp", n: 4, appends: 200, warmAppends: 20}),
		liveWorkload("chan", 1, liveCfg{carrier: "chan", n: 4, appends: 200, warmAppends: 20}),
	}
}

var tinyKernels = kernelSizes{
	reps: 1, flood: simCfg{n: 8, blocks: 200}, floodSeed: 42,
	procs: 8, broadcasts: 200, chain: 100, commEvents: 2000, reads: 2000,
	fabric: fabricCfg{n: 8, rounds: 100}, fabricSeed: 2026,
	tokens: 200, frames: 1000, carrierSends: 1000,
}

// tinyReference reads the host's speed off a kernel run of a millisecond.
var tinyReference = reference{nodes: 8, blocks: 100, runs: 1, nominal: time.Millisecond}

// TestRunEveryWorkloadAndKernel drives the whole harness at test size:
// set-up, untraced and traced iterations of all five shapes, and every
// kernel. The harness itself checks that the traced iterations pin the
// same outcome as the untraced ones (decorator transparency).
func TestRunEveryWorkloadAndKernel(t *testing.T) {
	tr := &tracer{}
	res := run(tinyWorkloads(), nil, plan{setups: 1, traced: 1, kernels: tinyKernels, ref: tinyReference}, tr)
	for _, f := range res.Failures {
		t.Error(f)
	}
	for _, wr := range res.Workloads {
		if wr.Attempted == 0 || wr.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", wr.Name, wr.Attempted, wr.Failed)
		}
		for _, d := range endToEnd {
			if s := wr.EndToEnd[d.Name]; s.Value <= 0 || s.Unit != d.Unit {
				t.Errorf("%s: %s = %+v", wr.Name, d.Name, s)
			}
		}
		if wr.Slowdown.Value <= 0 || wr.PerLayer["ref.slowdown"].Value <= 0 {
			t.Errorf("%s: slowdown %+v untraced, %+v traced", wr.Name, wr.Slowdown, wr.PerLayer["ref.slowdown"])
		}
		for _, d := range perLayer {
			if _, ok := wr.PerLayer[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", wr.Name, d.Name)
			}
		}
		if len(wr.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", wr.Name, len(wr.PerLayer), len(perLayer))
		}
	}
	positive := map[string][]string{
		"flood": {"simnet.run_s", "simnet.run_self_s", "simnet.steps", "replica.build_s", "core.select_calls", "core.predicate_calls", "history.snapshot_s", "history.comm_events", "consistency.classify_s"},
		"adv":   {"simnet.run_s", "consistency.witnesses", "core.predicate_calls"},
		"reads": {"protocols.run_s", "history.sink_s", "history.segments", "consistency.monitor_ops"},
		"tcp":   {"transport.load_s", "transport.frames_sent", "oracle.mint_calls", "core.select_calls"},
		"chan":  {"transport.load_s", "transport.frames_per_append", "oracle.mint_s"},
	}
	kernels := kernelNames(t)
	for _, wr := range res.Workloads {
		for _, name := range positive[wr.Name] {
			if wr.PerLayer[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", wr.Name, name, wr.PerLayer[name].Value)
			}
		}
		for _, name := range kernels {
			if wr.PerLayer[name].Value <= 0 {
				t.Errorf("%s: kernel %s = %v, want > 0", wr.Name, name, wr.PerLayer[name].Value)
			}
		}
	}
	if len(tr.spans) == 0 {
		t.Error("the traced pass kept no spans")
	}
}

// kernelNames returns the names of the kernel metrics that are never
// zero, after checking that every kernel metric is declared in perLayer.
func kernelNames(t *testing.T) []string {
	t.Helper()
	ks, err := runKernels(tinyKernels)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.Name] = true
	}
	var names []string
	for name := range ks {
		if !declared[name] {
			t.Errorf("kernel %s is not declared in perLayer", name)
		}
		if name != "simnet.flood_allocs_per_event" { // the flat event heap may allocate nothing
			names = append(names, name)
		}
	}
	return names
}

func TestPinMismatchFails(t *testing.T) {
	want := pin{Blocks: 1}
	ws := []workload{simWorkload("flood", 42, &want, simCfg{n: 4, blocks: 20})}
	res := run(ws, nil, plan{setups: 1, plain: 1, ref: tinyReference}, &tracer{})
	if len(res.Failures) == 0 || res.Workloads[0].Failed == 0 {
		t.Fatalf("a moved pin went unreported: %+v", res)
	}
	// Under another seed the pin does not apply; only the invariants do.
	seed := uint64(7)
	res = run(ws, &seed, plan{setups: 1, plain: 1, ref: tinyReference}, &tracer{})
	if len(res.Failures) != 0 {
		t.Fatalf("pin applied at a foreign seed: %v", res.Failures)
	}
}

func TestDecoratorsForwardAndCount(t *testing.T) {
	p := &probes{}
	tree := core.NewTree()
	for _, b := range linearChain(5)[1:] {
		if err := tree.Attach(b); err != nil {
			t.Fatal(err)
		}
	}
	sel := p.selector(core.LongestChain{})
	if _, ok := sel.(core.HeadSelector); !ok {
		t.Fatal("decorated selector lost the head-only fast path")
	}
	for i := 0; i < 3*sampleEvery; i++ {
		if got, want := core.HeadOf(sel, tree), core.HeadOf(core.LongestChain{}, tree); got != want {
			t.Fatalf("head = %v, want %v", got, want)
		}
	}
	if got := sel.Select(tree); len(got) != 6 {
		t.Fatalf("chain length %d, want 6", len(got))
	}
	if !p.predicate(core.WellFormed{}).Valid(tree.Root()) {
		t.Fatal("decorated predicate rejected genesis")
	}
	got := map[string]int64{}
	for _, c := range p.take() {
		got[c.Name] = c.N
	}
	if got["core.select"] != 3*sampleEvery+1 || got["core.predicate"] != 1 {
		t.Errorf("call counts = %v", got)
	}
	if left := p.take(); len(left) != 0 {
		t.Errorf("take did not reset: %+v", left)
	}

	var none *probes
	if none.selector(core.GHOST{}) != core.Selector(core.GHOST{}) || none.take() != nil {
		t.Error("nil probes must install nothing")
	}
}

// TestManifestMatchesCode keeps BENCHMARK.json equal to the tables the
// benchmark prints from.
func TestManifestMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var man struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(man.Workloads) != len(ws) {
		t.Fatalf("%d workloads in the manifest, %d in code", len(man.Workloads), len(ws))
	}
	for i, w := range ws {
		if man.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %s in the manifest, %s in code", i, man.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in code", kind, len(got), len(want))
		}
		for i, d := range want {
			better := "lower"
			if d.Higher {
				better = "higher"
			}
			e := got[i]
			if e.Name != d.Name || e.Unit != d.Unit || e.Better != better || (bounded && e.Bound != d.Bound) {
				t.Errorf("%s %d: manifest %+v, code %+v", kind, i, e, d)
			}
		}
	}
	check("end_to_end", man.EndToEnd, endToEnd, true)
	check("per_layer", man.PerLayer, perLayer, false)
}

// TestReferenceSharesReadings checks that the kernel is deterministic and
// that the reading after one bracket serves as the one before the next.
func TestReferenceSharesReadings(t *testing.T) {
	once := refKernel(tinyReference.nodes, tinyReference.blocks)
	if again := refKernel(tinyReference.nodes, tinyReference.blocks); once <= 0 || again != once {
		t.Fatalf("kernel returned %d, then %d", once, again)
	}
	r := tinyReference
	ran := 0
	start := refSink
	if slow := r.around(func() { ran++ }); slow <= 0 {
		t.Fatalf("slowdown %v", slow)
	}
	if got := (refSink - start) / once; got != 2 {
		t.Errorf("first bracket took %d readings, want 2", got)
	}
	r.around(func() { ran++ })
	if got := (refSink - start) / once; got != 3 || ran != 2 {
		t.Errorf("two brackets took %d readings and ran f %d times, want 3 and 2", got, ran)
	}
}

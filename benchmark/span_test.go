package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

const ms = time.Millisecond

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 40 * ms},
		{Name: "b", Parent: 0, Start: 30 * ms, End: 50 * ms},                                    // overlaps a: union is 10..50
		{Name: "c", Parent: 0, Start: 90 * ms, End: 120 * ms},                                   // clipped to the parent: 90..100
		{Name: "grandchild", Parent: 1, Start: 15 * ms, End: 20 * ms},                           // not a direct child of parent
		{Name: "other", Parent: -1, Start: 0, End: 100 * ms, Calls: []calls{{"x", 3, 30 * ms}}}, // decorated calls only
	}
	if got, want := selfTime(spans, 0), 50*ms; got != want {
		t.Errorf("parent self time = %v, want %v", got, want)
	}
	if got, want := selfTime(spans, 1), 25*ms; got != want {
		t.Errorf("a self time = %v, want %v", got, want)
	}
	if got, want := selfTime(spans, 5), 70*ms; got != want {
		t.Errorf("self time with decorated calls = %v, want %v", got, want)
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	// Busy time summed over concurrent callers can exceed the span.
	spans := []span{{Name: "run", Parent: -1, Start: 0, End: 10 * ms, Calls: []calls{{"core.predicate", 9, 15 * ms}}}}
	if got := selfTime(spans, 0); got != 0 {
		t.Errorf("self time = %v, want 0", got)
	}
}

func TestLayerSecondsSelectsOneIteration(t *testing.T) {
	spans := []span{
		{Name: "iteration", Workload: "w", Iter: 0, Parent: -1, Start: 0, End: 100 * ms},
		{Name: "simnet.run", Workload: "w", Iter: 0, Parent: 0, Start: 0, End: 80 * ms, Calls: []calls{{"core.select", 4, 20 * ms}}},
		{Name: "iteration", Workload: "w", Iter: 1, Parent: -1, Start: 200 * ms, End: 300 * ms},
		{Name: "simnet.run", Workload: "w", Iter: 1, Parent: 2, Start: 200 * ms, End: 290 * ms},
	}
	got := layerSeconds(spans, "w", 0)
	for name, want := range map[string]float64{
		"simnet.run_s": 0.080, "simnet.run_self_s": 0.060, "core.select_s": 0.020, "core.select_calls": 4,
	} {
		if d := got[name] - want; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	if _, ok := got["iteration_s"]; ok {
		t.Error("the iteration root is not a layer")
	}
}

func TestTracerNestsAndNilTracerIsInert(t *testing.T) {
	var none *tracer
	none.end(none.begin("x"), nil) // must not panic

	tr := &tracer{workload: "w", iter: 2}
	p := &probes{}
	root := tr.begin("iteration")
	run := tr.begin("simnet.run")
	for i := 0; i < 2*sampleEvery; i++ {
		p.pred.exit(p.pred.enter())
	}
	tr.end(run, p)
	tr.end(root, p)
	if tr.spans[run].Parent != root || tr.spans[root].Parent != -1 {
		t.Errorf("parents = %d, %d", tr.spans[run].Parent, tr.spans[root].Parent)
	}
	if c := tr.spans[run].Calls; len(c) != 1 || c[0].Name != "core.predicate" || c[0].N != 2*sampleEvery {
		t.Errorf("calls charged to the run span = %+v", c)
	}
	if c := tr.spans[root].Calls; len(c) != 0 {
		t.Errorf("calls charged twice: %+v", c)
	}
	if tr.spans[root].Workload != "w" || tr.spans[root].Iter != 2 {
		t.Errorf("span not labelled with its iteration: %+v", tr.spans[root])
	}
}

func TestChromeTraceIsLoadableJSON(t *testing.T) {
	spans := []span{
		{Name: "iteration", Workload: "w", Parent: -1, Start: 0, End: 2 * ms},
		{Name: "simnet.run", Workload: "w", Parent: 0, Start: 0, End: ms, Calls: []calls{{"core.select", 1, ms / 2}}},
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
			Args map[string]any
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	// One lane-naming metadata event, then the two spans.
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[0].Ph != "M" || doc.TraceEvents[2].Ph != "X" || doc.TraceEvents[2].Dur != 1000 {
		t.Fatalf("events = %+v", doc.TraceEvents)
	}
	if doc.TraceEvents[2].Args["parent"] != "iteration" {
		t.Errorf("args = %v", doc.TraceEvents[2].Args)
	}
}

package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/metrics"
)

func TestSamplingDeterministic(t *testing.T) {
	tr := New(Options{SampleEvery: 4})
	for seq := int64(0); seq < 20; seq++ {
		want := seq%4 == 0
		if got := tr.Sampled(KDeliver, seq); got != want {
			t.Fatalf("Sampled(deliver, %d) = %v", seq, got)
		}
		if !tr.Sampled(KFault, seq) || !tr.Sampled(KWitness, seq) {
			t.Fatalf("rare kind sampled out at seq %d", seq)
		}
	}
}

func TestLimitDrops(t *testing.T) {
	tr := New(Options{Limit: 2})
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Seq: int64(i), Kind: KTimer})
	}
	if len(tr.Events()) != 2 || tr.Dropped() != 3 {
		t.Fatalf("events=%d dropped=%d", len(tr.Events()), tr.Dropped())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	evs := []Event{
		{VT: 1, Seq: 3, Kind: KSend, P: 2, Detail: "0->2"},
		{VT: 4, Seq: 8, Kind: KCrash, P: 1, Detail: "window"},
		{VT: 9, Seq: 1, Kind: KWitness, P: -1, Detail: "SP"},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 || back[0] != evs[0] || back[1] != evs[1] || back[2] != evs[2] {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestChromeTraceParses(t *testing.T) {
	reg := metrics.New(5)
	d := int64(3)
	reg.Probe("depth", func() int64 { return d })
	reg.Tick(5)
	tr := New(Options{})
	tr.Emit(Event{VT: 1, Seq: 0, Kind: KDeliver, P: 2})
	tr.Emit(Event{VT: 2, Seq: 1, Kind: KFault, P: 0, Detail: "drop"})
	tr.Emit(Event{VT: 3, Seq: 2, Kind: KSend, P: 1, Detail: "->3"})
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Events(), reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var phases = map[string]int{}
	for _, e := range f.TraceEvents {
		phases[e["ph"].(string)]++
	}
	if phases["X"] < 2 || phases["i"] < 1 || phases["M"] < 1 || phases["C"] < 1 {
		t.Fatalf("phase mix = %v", phases)
	}
}

func TestCanonicalOrder(t *testing.T) {
	tr := New(Options{})
	tr.Emit(Event{VT: 5, Seq: 1, Kind: KFault})
	tr.Emit(Event{VT: 5, Seq: 1, Kind: KDeliver})
	tr.Emit(Event{VT: 2, Seq: 9, Kind: KTimer})
	evs := tr.Events()
	if evs[0].VT != 2 || evs[1].Kind != KDeliver || evs[2].Kind != KFault {
		t.Fatalf("order = %+v", evs)
	}
}

package scenario

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"repro/btsim"
)

// TestMetricsDigestNeutralityCatalogue runs every catalogue scenario
// twice — bare, and with the full metrics + trace layer attached — and
// requires byte-identical replay digests. This is the catalogue-wide
// observability contract: instrumentation observes the run, it never
// participates in it. CI runs this under -race as the
// metrics-conformance job.
func TestMetricsDigestNeutralityCatalogue(t *testing.T) {
	for _, spec := range Catalogue() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			sys, err := btsim.Get(spec.System)
			if err != nil {
				t.Fatal(err)
			}
			cfg := spec.config(spec.Seed)
			bare, err := sys.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			btsim.WithTrace(io.Discard, btsim.TraceOptions{SampleEvery: 8})(&cfg)
			inst, err := sys.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if bare.Digest() != inst.Digest() {
				t.Fatalf("metrics+trace changed the replay digest: bare %s, instrumented %s",
					bare.Digest(), inst.Digest())
			}
			if inst.Metrics == nil {
				t.Fatal("instrumented run carries no metric snapshot")
			}
		})
	}
}

// TestTraceSmoke validates the Chrome trace-event export end to end on
// one adversarial scenario: the emitted JSON must parse and carry the
// event phases a trace viewer renders (complete events, instants,
// metadata, counter samples).
func TestTraceSmoke(t *testing.T) {
	spec := Catalogue()[0]
	for _, s := range Catalogue() {
		if s.Name == "bitcoin/partition-heal" {
			spec = s
		}
	}
	sys, err := btsim.Get(spec.System)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := spec.config(spec.Seed)
	btsim.WithTrace(&buf, btsim.TraceOptions{SampleEvery: 2})(&cfg)
	if _, err := sys.Run(cfg); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("Chrome trace does not parse: %v", err)
	}
	phases := map[string]int{}
	faults := 0
	for _, ev := range parsed.TraceEvents {
		phases[ev.Ph]++
		if strings.HasPrefix(ev.Name, "fault") {
			faults++
		}
	}
	for _, ph := range []string{"X", "i", "M", "C"} {
		if phases[ph] == 0 {
			t.Fatalf("trace has no %q events (phases: %v)", ph, phases)
		}
	}
	if faults == 0 {
		t.Fatalf("partition scenario traced no fault events (phases: %v)", phases)
	}
}

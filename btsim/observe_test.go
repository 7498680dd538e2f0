package btsim_test

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"repro/btsim"
	_ "repro/btsim/systems"
	"repro/internal/trace"
)

// TestMetricsDigestNeutral pins the WithMetrics/WithTrace contract on
// the observability side of the conformance suite: attaching the full
// metrics + trace layer leaves the run's replay digest byte-identical,
// and the snapshot supersets the legacy Stats map.
func TestMetricsDigestNeutral(t *testing.T) {
	for _, system := range []string{"bitcoin", "ethereum", "byzcoin", "fabric"} {
		t.Run(system, func(t *testing.T) {
			sys, _ := btsim.Lookup(system)
			base := benignOpts(sys, 42)
			ref := mustRun(t, sys, base...)
			if ref.Metrics != nil {
				t.Fatal("bare run unexpectedly carries a metric snapshot")
			}

			res := mustRun(t, sys, append(base,
				btsim.WithMetrics(),
				btsim.WithTrace(io.Discard, btsim.TraceOptions{}))...)
			if res.Digest() != ref.Digest() {
				t.Fatal("attaching metrics+trace changed the run digest")
			}
			snap := res.Metrics
			if snap == nil {
				t.Fatal("instrumented run has no metric snapshot")
			}
			// Superset of the legacy Stats map: every protocol counter
			// appears under its own name.
			for k, v := range res.Stats {
				got, ok := snap.Value(k)
				if !ok || got != int64(v) {
					t.Fatalf("snapshot missing legacy stat %s=%d (got %d, ok=%v)", k, v, got, ok)
				}
			}
			// The sampled series carries the scheduler and network gauges.
			cols := strings.Join(snap.Series.Cols, ",")
			for _, want := range []string{"sim.queue", "sim.steps", "net.sent", "net.delivered", "hist.ops"} {
				if !strings.Contains(cols, want) {
					t.Fatalf("series cols %v missing %s", snap.Series.Cols, want)
				}
			}
			if len(snap.Series.Rows) == 0 {
				t.Fatal("no sampled rows in the series")
			}
		})
	}
}

// TestMetricsSnapshotShardIndependent pins that the digest-relevant
// sections of a metric snapshot are identical across shard counts —
// and pins the digest value itself, so any drift in what the metrics
// observe is a conscious re-pin.
func TestMetricsSnapshotShardIndependent(t *testing.T) {
	const want = "5c5745837f5e1959"
	run := func(k int) *btsim.Result {
		sys, _ := btsim.Lookup("bitcoin")
		return mustRun(t, sys,
			btsim.WithN(8), btsim.WithRounds(150), btsim.WithSeed(11),
			btsim.WithReadEvery(15), btsim.WithDifficulty(5),
			btsim.WithShards(k), btsim.WithMetrics())
	}
	r1, r4 := run(1), run(4)
	d1, d4 := r1.Metrics.Digest(), r4.Metrics.Digest()
	if d1 != d4 {
		t.Fatalf("metric snapshot digest differs across shard counts: k=1 %s, k=4 %s", d1, d4)
	}
	if d1 != want {
		t.Fatalf("metric snapshot digest drifted: got %s, want %s (re-pin only if the change is intended)", d1, want)
	}
	// The k-specific section is populated only on the sharded run and
	// stays out of the digest.
	if r1.Metrics.Sharding != nil {
		t.Fatal("serial run has a Sharding section")
	}
	if sh := r4.Metrics.Sharding; sh == nil || sh.Shards != 4 {
		t.Fatalf("sharded run's Sharding section wrong: %+v", sh)
	}
}

// TestTraceExport pins the WithTrace output formats: the default is
// Chrome trace-event JSON that json.Unmarshal accepts with a non-empty
// traceEvents array, and TraceOptions.JSONL is a line stream that
// trace.ParseJSONL round-trips.
func TestTraceExport(t *testing.T) {
	sys, _ := btsim.Lookup("bitcoin")
	base := benignOpts(sys, 42)

	var chrome bytes.Buffer
	mustRun(t, sys, append(base, btsim.WithTrace(&chrome, btsim.TraceOptions{SampleEvery: 4}))...)
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &parsed); err != nil {
		t.Fatalf("Chrome trace does not parse: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("Chrome trace is empty")
	}

	var jsonl bytes.Buffer
	mustRun(t, sys, append(base, btsim.WithTrace(&jsonl, btsim.TraceOptions{SampleEvery: 4, JSONL: true}))...)
	events, err := trace.ParseJSONL(&jsonl)
	if err != nil {
		t.Fatalf("JSONL trace does not parse: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("JSONL trace is empty")
	}
	deliver := 0
	for _, ev := range events {
		if ev.Kind == trace.KDeliver {
			deliver++
		}
	}
	if deliver == 0 {
		t.Fatal("no deliver events in the trace")
	}
}

// TestMonitorMetrics pins the monitor-side instrumentation: a
// WithMetrics run samples its monitor's retained-state gauge, and every
// live witness lands in the detection-latency histogram.
func TestMonitorMetrics(t *testing.T) {
	sys, _ := btsim.Lookup("bitcoin")
	res := mustRun(t, sys,
		btsim.WithN(4), btsim.WithRounds(120), btsim.WithSeed(9),
		btsim.WithReadEvery(15), btsim.WithDifficulty(5),
		btsim.WithDropNth(3, 2), // a lost update breaks EC → witnesses
		btsim.WithMetrics())
	snap := res.Metrics
	if snap == nil || res.Stream == nil {
		t.Fatal("run missing snapshot or stream outcome")
	}
	cols := strings.Join(snap.Series.Cols, ",")
	if !strings.Contains(cols, "mon.retained") {
		t.Fatalf("series cols %v missing mon.retained", snap.Series.Cols)
	}
	var lat int64 = -1
	for _, h := range snap.Hists {
		if h.Name == "mon.witnessLatency" {
			lat = h.N
		}
	}
	if lat < 0 {
		t.Fatal("snapshot missing the mon.witnessLatency histogram")
	}
	if int(lat) != res.Stream.LiveCount {
		t.Fatalf("witness latency histogram has %d observations, %d live witnesses", lat, res.Stream.LiveCount)
	}
}

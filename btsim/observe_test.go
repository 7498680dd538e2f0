package btsim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

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

// TestMetricsSnapshotPinned pins the digest of a metric snapshot's
// deterministic sections, so any drift in what the metrics observe is a
// conscious re-pin.
func TestMetricsSnapshotPinned(t *testing.T) {
	const want = "fb41c735a9b1527c"
	sys, _ := btsim.Lookup("bitcoin")
	res := mustRun(t, sys,
		btsim.WithN(8), btsim.WithRounds(150), btsim.WithSeed(11),
		btsim.WithReadEvery(15), btsim.WithDifficulty(5),
		btsim.WithMetrics())
	if got := res.Metrics.Digest(); got != want {
		t.Fatalf("metric snapshot digest drifted: got %s, want %s (re-pin only if the change is intended)", got, want)
	}
}

// TestTraceExport pins the WithTrace output formats: the default is
// Chrome trace-event JSON that json.Unmarshal accepts with a non-empty
// traceEvents array, and TraceOptions.JSONL is a line stream that
// trace.ParseJSONL round-trips. Both are byte-reproducible: the same
// options traced twice write the same bytes.
func TestTraceExport(t *testing.T) {
	sys, _ := btsim.Lookup("bitcoin")
	base := benignOpts(sys, 42)
	traced := func(opts btsim.TraceOptions) []byte {
		var buf bytes.Buffer
		mustRun(t, sys, append(base, btsim.WithTrace(&buf, opts))...)
		return buf.Bytes()
	}
	for _, opts := range []btsim.TraceOptions{{SampleEvery: 4}, {SampleEvery: 4, JSONL: true}} {
		if a, b := traced(opts), traced(opts); !bytes.Equal(a, b) {
			t.Fatalf("two runs with %+v wrote different traces (%d and %d bytes)", opts, len(a), len(b))
		}
	}

	chrome := traced(btsim.TraceOptions{SampleEvery: 4})
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &parsed); err != nil {
		t.Fatalf("Chrome trace does not parse: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("Chrome trace is empty")
	}

	events, err := trace.ParseJSONL(bytes.NewReader(traced(btsim.TraceOptions{SampleEvery: 4, JSONL: true})))
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
	if int(lat) != res.Stream.LiveWitnesses {
		t.Fatalf("witness latency histogram has %d observations, %d live witnesses", lat, res.Stream.LiveWitnesses)
	}
}

// TestStreamedObservedRunPinned pins a streamed run that carries every
// observer at once — metrics, a sampled trace, a per-round observer and
// an equivocating adversary whose forks the monitor witnesses — by the
// result digest, the metric snapshot digest, the trace bytes and the
// live witness list. Once the run returns, no goroutine it started is
// left running.
func TestStreamedObservedRunPinned(t *testing.T) {
	const (
		wantResult  = "298c8faf42e33bc7"
		wantMetrics = "c193703f4bcb10f1"
		wantTrace   = "b5040bb14e84f38a"
		wantLive    = "cb7c5093ea664c2a"
	)
	before := runtime.NumGoroutine()
	var buf bytes.Buffer
	rounds := 0
	sys, _ := btsim.Lookup("bitcoin")
	res := mustRun(t, sys,
		btsim.WithN(6), btsim.WithRounds(300), btsim.WithSeed(7),
		btsim.WithMerits(1, 1, 1, 1, 1, 3), btsim.WithReadEvery(2),
		btsim.WithAdversary(btsim.Adversary{Strategy: btsim.Equivocate, Forks: 2}),
		btsim.WithStreaming(64), btsim.WithMetrics(),
		btsim.WithTrace(&buf, btsim.TraceOptions{SampleEvery: 4}),
		btsim.WithObserver(func(btsim.Progress) bool { rounds++; return true }))
	if rounds == 0 || res.Stream.Segments < 2 || len(res.Stream.Live) == 0 {
		t.Fatalf("run too small to pin: %d rounds, %d segments, %d live witnesses",
			rounds, res.Stream.Segments, len(res.Stream.Live))
	}
	live := fnv.New64a()
	for _, w := range res.Stream.Live {
		fmt.Fprintf(live, "%s|%s|%v|%v\n", w.Property, w.Detail, w.Ops, w.Blocks)
	}
	got := [4]string{res.Digest(), res.Metrics.Digest(),
		fmt.Sprintf("%016x", fnv64(buf.Bytes())), fmt.Sprintf("%016x", live.Sum64())}
	if want := [4]string{wantResult, wantMetrics, wantTrace, wantLive}; got != want {
		t.Errorf("streamed observed run drifted: result, metrics, trace, live = %q, want %q", got, want)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines before the run, %d after it returned", before, n)
	}
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

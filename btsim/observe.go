package btsim

import (
	"fmt"
	"io"

	"repro/internal/consistency"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// TraceOptions tunes WithTrace's structured scheduler trace.
type TraceOptions struct {
	// SampleEvery keeps every SampleEvery-th send/deliver/timer event
	// (by scheduler sequence number — deterministic); rare events
	// (faults, crashes, witnesses) are always kept. 0 means 1: keep
	// everything.
	SampleEvery int64
	// Limit caps retained events (0 means trace.DefaultLimit); events
	// beyond it are counted as dropped, never silently lost: the count
	// is Result.Metrics' "trace.dropped" timing entry (absent when
	// nothing was dropped), which cmd/trace reports.
	Limit int
	// JSONL writes the trace as JSON-lines instead of the default
	// Chrome trace-event JSON (load the default in Perfetto /
	// chrome://tracing; pipe JSONL through cmd/trace to convert).
	JSONL bool
}

// witnessLatencyBounds buckets the virtual-time gap between a
// violation's formation (its latest operation response) and the online
// monitor emitting the witness.
var witnessLatencyBounds = []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}

// obsRun is one simulated run's observability state: sysFunc.Run builds
// it, sets reg and tr on the lowered protocols.Config (the harness's
// Start installs them on the simulator and group), and finishes it after
// the run.
type obsRun struct {
	reg       *metrics.Registry
	tr        *trace.Tracer
	traceW    io.Writer
	traceOpts TraceOptions

	witLat *metrics.Histogram
}

// newObsRun builds the run's registry (always — WithTrace implies
// metrics, since the Chrome export renders the sampled series as
// counter tracks) and, when a trace writer is set, the tracer.
func newObsRun(cfg *Config) *obsRun {
	or := &obsRun{
		reg:       metrics.New(0),
		traceW:    cfg.TraceW,
		traceOpts: cfg.TraceOpts,
	}
	if cfg.TraceW != nil {
		or.tr = trace.New(trace.Options{
			SampleEvery: cfg.TraceOpts.SampleEvery,
			Limit:       cfg.TraceOpts.Limit,
		})
	}
	return or
}

// bind runs inside the protocols.Config.Stream hook, right after the
// runner built the run's monitor: it registers the monitor's gauges.
// Stats() walks the retained state — fine at sample points, which sit
// outside any handler, once the segment check in flight has returned.
func (or *obsRun) bind(mr *monitorRun) {
	or.reg.Probe("mon.retained", func() int64 { mr.sync(); return int64(mr.mon.Stats().Retained) })
	or.reg.Probe("mon.witnesses", func() int64 { mr.sync(); return int64(mr.seen) })
	or.witLat = or.reg.Histogram("mon.witnessLatency", witnessLatencyBounds...)
}

// witness observes one live violation witness detected at virtual time
// now: detection latency is the time elapsed since the violation formed
// — the latest response among the witnessing operations (invocation
// time for still-pending ones). Also emits the always-kept trace event.
func (or *obsRun) witness(w consistency.Witness, now int64) {
	formed := int64(0)
	for _, op := range w.Ops {
		t := op.RspTime
		if op.Pending {
			t = op.InvTime
		}
		if t > formed {
			formed = t
		}
	}
	or.witLat.Observe(now - formed)
	if or.tr != nil {
		or.tr.Emit(trace.Event{
			VT: now, Seq: or.tr.NextWitnessSeq(), Kind: trace.KWitness,
			P: -1, Detail: w.Property,
		})
	}
}

// finish snapshots the registry onto the Result and writes the trace.
// Called by sysFunc.Run after the monitor finisher, so the legacy Stats
// map is complete when it is folded into the snapshot.
func (or *obsRun) finish(res *Result) error {
	if or.tr != nil && or.tr.Dropped() > 0 {
		or.reg.AddTiming("trace.dropped", or.tr.Dropped()) // Timing: a traced run's digest is an untraced one's
	}
	snap := or.reg.Snapshot()
	if res.Result != nil {
		snap.FoldStats(res.Stats)
	}
	res.Metrics = snap
	if or.tr == nil || or.traceW == nil {
		return nil
	}
	events := or.tr.Events()
	var err error
	if or.traceOpts.JSONL {
		err = trace.WriteJSONL(or.traceW, events)
	} else {
		err = trace.WriteChrome(or.traceW, events, snap)
	}
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

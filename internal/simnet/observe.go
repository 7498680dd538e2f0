package simnet

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// This file wires the scheduler and network into the observability
// layer (internal/metrics, internal/trace). The wiring is strictly
// read-only with respect to simulation state: attaching a registry or
// tracer changes no event order, no RNG draw, no counter the digest
// covers — pinned by the metrics-conformance tests.
//
// Determinism of what is observed:
//
//   - Metric sampling happens at virtual-time boundaries, driven by
//     Tick calls placed before event execution, so every boundary is
//     crossed at the identical event-set state on every run.
//   - Trace sampling is keyed on the scheduler sequence number, and
//     every trace payload is derived from simulation state: a trace is
//     byte-reproducible from its seed.

// SetMetrics attaches a metrics registry: the scheduler drives its
// virtual-time sampler and registers its own probes (event-queue depth,
// executed steps). Call before the run starts.
func (s *Sim) SetMetrics(reg *metrics.Registry) {
	s.metrics = reg
	reg.SetClock(s.Now)
	reg.Probe("sim.queue", func() int64 { return int64(s.Pending()) })
	reg.Probe("sim.steps", func() int64 { return int64(s.stepped) })
}

// SetTrace attaches a tracer. Call before the run starts.
func (s *Sim) SetTrace(tr *trace.Tracer) { s.tracer = tr }

// traceExec records the execution, now, of the event stamped seq: a
// delivery to process to, or a timer when to is −1.
func (s *Sim) traceExec(seq int64, to int32) {
	tr := s.tracer
	if to >= 0 {
		if tr.Sampled(trace.KDeliver, seq) {
			tr.Emit(trace.Event{VT: s.now, Seq: seq, Kind: trace.KDeliver, P: int(to)})
		}
	} else if tr.Sampled(trace.KTimer, seq) {
		tr.Emit(trace.Event{VT: s.now, Seq: seq, Kind: trace.KTimer, P: -1})
	}
}

// RegisterMetrics registers the network's probes — cumulative send /
// delivery / drop counts (deliveries per virtual second fall out of the
// sampled series).
func (nw *Network) RegisterMetrics(reg *metrics.Registry) {
	reg.Probe("net.sent", func() int64 { return int64(nw.sent) })
	reg.Probe("net.delivered", func() int64 { return int64(nw.delivered) })
	reg.Probe("net.dropped", func() int64 { return int64(nw.dropped) })
}

// traceFault records a fault taking effect. Seq is the scheduler
// sequence number of the event whose execution produced the fault.
func (nw *Network) traceFault(t int64, kind string, from, to int) {
	nw.sim.tracer.Emit(trace.Event{
		VT: t, Seq: nw.sim.curSeq, Kind: trace.KFault, P: to,
		Detail: fmt.Sprintf("%s %d->%d", kind, from, to),
	})
}

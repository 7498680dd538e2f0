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
//     Tick calls placed before event execution in the serial loop and
//     before each timestamp in the sharded loop. Both place every
//     boundary crossing at the identical event-set state, so sampled
//     series are byte-identical across shard counts.
//   - Trace sampling is keyed on the scheduler sequence number, which
//     the sharded engine reproduces exactly (commit replays staged
//     sends through the serial path). Events from parallel workers are
//     staged per shard and merged by seq at the barrier. The only
//     non-deterministic trace payload is the wall-clock nanosecond
//     field of merge-stall events.

// SetMetrics attaches a metrics registry: the scheduler drives its
// virtual-time sampler and registers its own probes (event-queue depth,
// executed steps). Call before the run starts.
func (s *Sim) SetMetrics(reg *metrics.Registry) {
	s.metrics = reg
	reg.SetClock(s.Now)
	reg.Probe("sim.queue", func() int64 { return int64(s.Pending()) })
	reg.Probe("sim.steps", func() int64 { return int64(s.stepped) })
}

// SetTrace attaches a tracer. Call after EnableSharding (or before —
// EnableSharding re-sizes the staging areas) and before the run starts.
func (s *Sim) SetTrace(tr *trace.Tracer) {
	s.tracer = tr
	if s.eng != nil {
		tr.SetShards(s.eng.k)
	}
}

// traceExec records the execution of an event on the serial path
// (shard −1 renders in the scheduler lane).
func (s *Sim) traceExec(e *event) {
	tr := s.tracer
	if e.kind == evDeliver {
		if tr.Sampled(trace.KDeliver, e.seq) {
			tr.Emit(trace.Event{VT: e.time, Seq: e.seq, Kind: trace.KDeliver, Shard: -1, P: e.msg.To})
		}
	} else if tr.Sampled(trace.KTimer, e.seq) {
		tr.Emit(trace.Event{VT: e.time, Seq: e.seq, Kind: trace.KTimer, Shard: -1, P: -1})
	}
}

// RegisterMetrics registers the network's probes — cumulative send /
// delivery / drop counts (deliveries per virtual second fall out of the
// sampled series) — and, when the sharded engine is installed, its
// per-shard utilization tallies and the snapshot's Sharding section.
func (nw *Network) RegisterMetrics(reg *metrics.Registry) {
	reg.Probe("net.sent", func() int64 { return int64(nw.sent) })
	reg.Probe("net.delivered", func() int64 { return int64(nw.delivered) })
	reg.Probe("net.dropped", func() int64 { return int64(nw.dropped) })
	if eng := nw.eng; eng != nil {
		eng.shardDelivered = make([]int64, eng.k)
		reg.OnSnapshot(func(s *metrics.Snapshot) {
			s.Sharding = &metrics.ShardInfo{
				Shards:    eng.k,
				Batches:   eng.batches,
				Delivered: append([]int64(nil), eng.shardDelivered...),
			}
		})
	}
}

// traceFault records a fault taking effect. Seq is the scheduler
// sequence number of the event whose execution produced the fault
// (identical across shard counts: staged effects replay under their
// spawning tag).
func (nw *Network) traceFault(t int64, kind string, from, to int) {
	nw.sim.tracer.Emit(trace.Event{
		VT: t, Seq: nw.sim.curSeq, Kind: trace.KFault, Shard: -1, P: to,
		Detail: fmt.Sprintf("%s %d->%d", kind, from, to),
	})
}

package replica

import "repro/internal/metrics"

// RegisterMetrics instruments the replica layer. Per-process counters
// (flood broadcasts, orphan bufferings, duplicate flood deliveries,
// anti-entropy repair requests) use CounterVec slots, one per process;
// gauges (orphan-buffer size, rejected blocks, attached blocks) are
// probes evaluated at sample points. Counts are identical across runs
// because every increment is driven by the same deterministic event
// sequence.
func (g *Group) RegisterMetrics(reg *metrics.Registry) {
	n := len(g.Procs)
	flood := reg.CounterVec("replica.floods", n)
	orph := reg.CounterVec("replica.orphanBuffered", n)
	dup := reg.CounterVec("replica.dupDeliveries", n)
	aereq := reg.CounterVec("replica.aeRequests", n)
	for _, p := range g.Procs {
		p.mFlood, p.mOrphan, p.mDup, p.mAEReq = flood, orph, dup, aereq
	}
	reg.Probe("replica.orphans", func() int64 {
		var s int64
		for _, p := range g.Procs {
			s += int64(p.pendingN)
		}
		return s
	})
	reg.Probe("replica.rejected", func() int64 {
		var s int64
		for _, p := range g.Procs {
			s += int64(p.rejected)
		}
		return s
	})
	reg.Probe("replica.blocks", func() int64 {
		var s int64
		for _, p := range g.Procs {
			s += int64(p.tree.Len())
		}
		return s
	})
	if rs := g.Recovery; rs != nil {
		reg.Probe("recovery.solicits", func() int64 { return int64(rs.Solicits) })
		reg.Probe("recovery.resyncBlocks", func() int64 { return int64(rs.ResyncBlocks) })
	}
}

package btsim

import (
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/history"
)

// StreamOutcome is a run's verdict: what the consistency.Monitor that
// watched the run's history as it was recorded reached, under either
// driver. A simulated run's monitor is the recorder's sink (behind the
// segment sink with WithStreaming, which retains no history); a WithLive
// run's is the deployment's own (the segment field stays zero). Check()
// returns its SC and EC.
type StreamOutcome struct {
	// Verdicts are the finalized criterion verdicts SC and EC, and KFork,
	// the k-Fork Coherence report for WithMonitorK's k (nil when no k
	// was configured).
	consistency.Verdicts
	// Live holds the witnesses emitted while the run was in flight
	// (capped at liveKeep); LiveCount is the uncapped total.
	Live      []consistency.Witness
	LiveCount int
	// Segments and Ops describe the streamed history: sealed segment
	// count (WithStreaming only) and operations consumed.
	Segments, Ops int
	// Stats is the monitor's retained-state summary — the observable
	// side of the bounded-memory claim.
	Stats consistency.MonitorStats
}

// liveKeep caps how many live witnesses a StreamOutcome retains.
const liveKeep = 64

// monitorRun carries one simulated run's monitor from option processing
// (sysFunc.Run) through the protocol adapter (Config.Base wires bind as
// the protocols.Config.Stream hook) to finalization after the run.
// Config is passed by value everywhere, so the shared pointer is what
// lets the post-run finisher see what the in-run hook built.
type monitorRun struct {
	k         int
	streaming bool
	segSize   int
	onWitness func(consistency.Witness)

	rec *history.Recorder
	mon *consistency.Monitor
	seg *history.SegmentSink

	// obs, when the run also carries the metrics/trace layer, receives
	// each witness for latency measurement and trace emission.
	obs *obsRun
}

// bind is the protocols.Config.Stream hook: the runner hands over its
// recorder (and score function) right after building the replica group,
// before the first operation is recorded.
func (mr *monitorRun) bind(rec *history.Recorder, score core.Score) {
	mr.rec = rec
	mr.mon = consistency.NewMonitor(consistency.MonitorConfig{
		Procs: rec.Procs(),
		Score: score,
		P:     core.WellFormed{},
		K:     mr.k,
		Table: rec.Table(),
		OnWitness: func(w consistency.Witness) {
			if mr.obs != nil {
				mr.obs.witness(w)
			}
			mr.onWitness(w) // sysFunc.Run's, which keeps the first liveKeep
		},
	})
	if !mr.streaming {
		rec.SetSink(mr.mon)
		return
	}
	mr.seg = history.NewSegmentSink(mr.segSize, mr.mon.ConsumeSegment)
	mr.seg.OnFaulty = mr.mon.Faulty
	rec.SetSink(mr.seg)
	rec.SetRetain(false)
}

// finish seals the stream, feeds the still-pending operations, and
// stamps the finalized StreamOutcome onto the Result.
func (mr *monitorRun) finish(res *Result) {
	if mr.mon == nil {
		return // the adapter never bound a recorder
	}
	if mr.seg != nil {
		mr.seg.Seal()
	}
	for _, op := range mr.rec.PendingOps() {
		mr.mon.OpPending(op)
	}
	sc, ec := mr.mon.Finalize()
	so := &StreamOutcome{
		Verdicts:  consistency.Verdicts{SC: sc, EC: ec},
		LiveCount: mr.mon.LiveWitnesses(),
		Stats:     mr.mon.Stats(),
	}
	so.Ops = so.Stats.Ops
	if mr.seg != nil {
		so.Segments = mr.seg.Sealed()
	}
	if mr.k > 0 {
		so.KFork = mr.mon.KForkReport(mr.k)
	}
	res.Stream = so
	res.mon = mr.mon
}

// liveWitnesses is read by the Progress observer wrapper: 0 until the
// monitor is bound, and for a Config lowered by Base outside System.Run.
func (mr *monitorRun) liveWitnesses() int {
	if mr == nil || mr.mon == nil {
		return 0
	}
	return mr.mon.LiveWitnesses()
}

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
	// Outcome is the monitor's (KFork answers WithMonitorK's k); a run
	// whose MonitorErr is set returns an error, not a Result.
	consistency.Outcome
	// Live holds the first liveKeep live witnesses.
	Live []consistency.Witness
	// Segments and Ops describe the streamed history: sealed segment
	// count (WithStreaming only) and operations consumed.
	Segments, Ops int
}

// liveKeep caps how many live witnesses a StreamOutcome retains.
const liveKeep = 64

// monitorRun is one simulated run's monitor: sysFunc.Run builds it,
// attaches bind as the lowered config's protocols.Config.Stream hook,
// and finishes it after the run.
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
	// held are the witnesses a streamed run's monitor emitted while it
	// checked a segment off the recording goroutine; join observes them
	// there. seen counts the witnesses observed so far on the recording
	// goroutine (a streamed run's count lags its monitor by the segment
	// in check); Progress.LiveWitnesses reads it.
	held []consistency.Witness
	seen int
}

// bind is the protocols.Config.Stream hook: the runner hands over its
// recorder (and score function) right after building the replica group,
// before the first operation is recorded. A streamed run checks each
// sealed segment on a goroutine of its own while the recorder fills the
// next one.
func (mr *monitorRun) bind(rec *history.Recorder, score core.Score) {
	mr.rec = rec
	mr.mon = consistency.NewMonitor(consistency.MonitorConfig{
		Procs:     rec.Procs(),
		Score:     score,
		P:         core.WellFormed{},
		K:         mr.k,
		Table:     rec.Table(),
		OnWitness: mr.witness,
	})
	if !mr.streaming {
		rec.SetSink(mr.mon)
		return
	}
	mr.seg = history.NewSegmentSink(mr.segSize, mr.mon.ConsumeSegment)
	mr.seg.OnFaulty = mr.mon.Faulty
	mr.seg.Overlap = true
	mr.seg.OnJoin = func(s *history.Segment) { mr.join(s.At) }
	rec.SetSink(mr.seg)
	rec.SetRetain(false)
}

// witness is the monitor's OnWitness. The callback (sysFunc.Run's, which
// keeps the first liveKeep) runs where the monitor does; the witness is
// observed on the recording goroutine — at once when the monitor is the
// recorder's own sink, at the segment's join when it is streamed.
func (mr *monitorRun) witness(w consistency.Witness) {
	mr.onWitness(w)
	if mr.seg == nil {
		mr.observe(w, mr.rec.Now())
		return
	}
	mr.held = append(mr.held, w)
}

// join observes the witnesses held since the last join, at the virtual
// time the segment they came from was sealed.
func (mr *monitorRun) join(at int64) {
	for _, w := range mr.held {
		mr.observe(w, at)
	}
	mr.held = nil
}

func (mr *monitorRun) observe(w consistency.Witness, now int64) {
	mr.seen++
	if mr.obs != nil {
		mr.obs.witness(w, now)
	}
}

// sync makes the monitor safe to read on the recording goroutine: it
// waits for the segment check in flight, if any.
func (mr *monitorRun) sync() {
	if mr.seg != nil {
		mr.seg.Wait()
	}
}

// finish seals the stream, finishes the monitor, and stamps the
// StreamOutcome onto the Result.
func (mr *monitorRun) finish(res *Result) {
	if mr.mon == nil {
		return // the adapter never bound a recorder
	}
	var err error
	so := &StreamOutcome{}
	if mr.seg != nil {
		mr.seg.Seal()
		err = mr.seg.Err()
		so.Segments = mr.seg.Sealed()
	}
	so.Outcome = mr.mon.Finish(mr.rec.PendingOps(), mr.k, err)
	so.Ops = so.MonitorStats.Ops
	mr.join(mr.rec.Now())
	res.Stream = so
}

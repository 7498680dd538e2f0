package btsim

import (
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/history"
)

// StreamOutcome is the online-monitor side of a Result: the verdicts an
// attached consistency.Monitor reached by watching the run's history as
// it was recorded. Check() reaches its verdicts from the same engine, by
// replaying the retained history into a fresh monitor afterwards; for a
// simulated run the two are identical (diff-tested over segments,
// checkpoint cycles and tee mode; see consistency/monitor.go for the
// live deployment's response-order feed). The streaming side
// additionally carries the witnesses that were emitted live, and with
// WithStreaming it is the only verdict there is, since the run retained
// no history to replay. A WithLive run's outcome is filled from the
// deployment's own monitor (verdicts, witness count, ops and stats; the
// segment and checkpoint fields stay zero).
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
	// Checkpoints counts the checkpoint→restore cycles the monitor went
	// through mid-run (WithMonitorCheckpoint); CheckpointErr carries
	// the first cycle failure — nil in any correct run, surfaced rather
	// than swallowed so tests can pin it.
	Checkpoints   int
	CheckpointErr error
	// Stats is the monitor's retained-state summary — the observable
	// side of the bounded-memory claim.
	Stats consistency.MonitorStats
}

// liveKeep caps how many live witnesses a StreamOutcome retains.
const liveKeep = 64

// monitorRun carries one run's streaming state from option processing
// (sysFunc.Run) through the protocol adapter (Config.Base wires bind as
// the protocols.Config.Stream hook) to finalization after the run.
// Config is passed by value everywhere, so the shared pointer is what
// lets the post-run finisher see what the in-run hook built.
type monitorRun struct {
	k         int
	streaming bool
	segSize   int
	ckptEvery int
	onWitness func(consistency.Witness)

	rec    *history.Recorder
	mon    *consistency.Monitor
	monCfg consistency.MonitorConfig
	seg    *history.SegmentSink
	live   []consistency.Witness
	n      int

	ckptOps int
	ckpts   int
	ckptErr error

	// obs, when the run also carries the metrics/trace layer, receives
	// each witness for latency measurement and trace emission.
	obs *obsRun
}

// monSink delegates the stream to the run's *current* monitor, so a
// checkpoint cycle can swap in the restored monitor mid-stream.
type monSink struct{ mr *monitorRun }

func (s monSink) OpDone(op *history.Op) {
	s.mr.mon.OpDone(op)
	s.mr.opConsumed(1)
}
func (s monSink) CommDone(e history.CommEvent) { s.mr.mon.CommDone(e) }
func (s monSink) Faulty(p int)                 { s.mr.mon.Faulty(p) }

// opConsumed advances the checkpoint-cycle countdown.
func (mr *monitorRun) opConsumed(n int) {
	if mr.ckptEvery <= 0 || mr.ckptErr != nil {
		return
	}
	mr.ckptOps += n
	for mr.ckptOps >= mr.ckptEvery {
		mr.ckptOps -= mr.ckptEvery
		mr.cycle()
	}
}

// cycle is one crash–recovery cut on the observer: serialize the
// monitor's retained state, restore a fresh monitor from the bytes, and
// continue on the restored one. Specified to be invisible.
func (mr *monitorRun) cycle() {
	data, err := mr.mon.Checkpoint()
	if err != nil {
		mr.ckptErr = err
		return
	}
	m2, err := consistency.RestoreMonitor(data, mr.monCfg)
	if err != nil {
		mr.ckptErr = err
		return
	}
	mr.mon = m2
	mr.ckpts++
}

// bind is the protocols.Config.Stream hook: the runner hands over its
// recorder (and score function) right after building the replica group,
// before the first operation is recorded.
func (mr *monitorRun) bind(rec *history.Recorder, score core.Score) {
	mr.rec = rec
	mr.monCfg = consistency.MonitorConfig{
		Procs: rec.Procs(),
		Score: score,
		P:     core.WellFormed{}, // what Result.Check classifies with
		K:     mr.k,
		Table: rec.Table(),
		OnWitness: func(w consistency.Witness) {
			mr.n++
			if len(mr.live) < liveKeep {
				mr.live = append(mr.live, w)
			}
			if mr.obs != nil {
				mr.obs.witness(w)
			}
			if mr.onWitness != nil {
				mr.onWitness(w)
			}
		},
	}
	mr.mon = consistency.NewMonitor(mr.monCfg)
	if mr.streaming {
		// The segment handler reads mr.mon at delivery time (not a bound
		// method), so checkpoint cycles swap the consumer too; cycles
		// land on segment boundaries in this mode.
		mr.seg = history.NewSegmentSink(mr.segSize, func(seg *history.Segment) {
			mr.mon.ConsumeSegment(seg)
			if seg != nil {
				mr.opConsumed(len(seg.Ops))
			}
		})
		mr.seg.OnFaulty = func(p int) { mr.mon.Faulty(p) }
		rec.SetSink(mr.seg)
		rec.SetRetain(false)
	} else {
		rec.SetSink(monSink{mr})
	}
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
		Verdicts: consistency.Verdicts{SC: sc, EC: ec},
		Live:     mr.live, LiveCount: mr.n,
		Stats:       mr.mon.Stats(),
		Checkpoints: mr.ckpts, CheckpointErr: mr.ckptErr,
	}
	so.Ops = so.Stats.Ops
	if mr.seg != nil {
		so.Segments = mr.seg.Sealed()
	}
	if mr.k > 0 {
		so.KFork = mr.mon.KForkReport(mr.k)
	}
	res.Stream = so
}

// liveWitnesses is read by the Progress observer wrapper.
func (mr *monitorRun) liveWitnesses() int {
	if mr == nil {
		return 0
	}
	return mr.n
}

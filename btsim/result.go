package btsim

import (
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/protocols"
	"repro/internal/transport"
)

// Result is one fully recorded run of a registered system. It embeds
// the internal run record, so every consumer in this module reaches the
// recorded history, the per-process replica trees, the protocol stats
// and the fault/adversary event log directly; external users work
// through the methods below, which cover the common read paths without
// naming any internal type.
type Result struct {
	*protocols.Result
	// Info is the descriptor of the system that produced the run.
	Info Info
	// Stream carries the verdicts of the online monitor that watched the
	// run, under either driver: a simulated run's own monitor, a WithLive
	// run's deployment monitor. It is the run's only verdict; Check()
	// returns it. With WithStreaming no history is retained beside it.
	Stream *StreamOutcome
	// Metrics is the typed metric snapshot of a WithMetrics/WithTrace
	// run (nil otherwise): counters, histograms, the virtual-time
	// gauge series, and the legacy protocol stats folded in — a
	// superset of the Stats map. Its digest-relevant sections are
	// deterministic; the Timing section carries the wall-clock readings.
	Metrics *metrics.Snapshot
	// Live carries the deployment measurements of a WithLive run (nil
	// otherwise): sustained appends/sec, client-observed latency
	// histograms, carrier counters and crash-recovery stats (its
	// verdicts are the ones Stream carries). The embedded Result fields
	// (History, Trees, ...) hold the live run's evidence, so the
	// renderers work on it unchanged.
	Live *transport.LiveResult
}

// Check returns the run's verdicts on both consistency criteria — BT
// Strong Consistency and BT Eventual Consistency — as the online
// monitor that watched the run reached them (Stream.SC, Stream.EC). The
// verdicts carry the per-property reports and counterexample witnesses;
// their String renderings are print-ready.
func (r *Result) Check() (sc, ec *consistency.Verdict) {
	return r.Stream.SC, r.Stream.EC
}

// KFork checks k-Fork Coherence — no oracle token reused more than k
// times — the measured side of the frugal-oracle claim, for any k: the
// run's monitor keeps every append under either driver and groups them
// by token here.
func (r *Result) KFork(k int) *consistency.Report { return r.Stream.Monitor.KForkReport(k) }

// UpdateAgreement checks the R1–R3 communication properties of
// Definition 4.3, as the run's monitor judged them from the run's send,
// receive and update events — under either driver, WithStreaming
// included.
func (r *Result) UpdateAgreement() *consistency.Report { return r.Stream.Monitor.UpdateAgreement() }

// LRC checks Light Reliable Communication (Definition 4.4), as the run's
// monitor judged it, like UpdateAgreement.
func (r *Result) LRC() *consistency.Report { return r.Stream.Monitor.LRC() }

// MonotonicPrefix checks the Monotonic Prefix Consistency criterion of
// the paper's reference [20] — each process's successive reads only
// ever extend — positioned between EC and SC in the hierarchy, as the
// run's monitor judged it, like UpdateAgreement.
func (r *Result) MonotonicPrefix() *consistency.Report { return r.Stream.Monitor.MonotonicPrefix() }

// Chain returns the chain the system's own selection function f picks
// from the given replica's final BlockTree.
func (r *Result) Chain(replica int) core.Chain {
	if replica < 0 || replica >= len(r.Trees) {
		return nil
	}
	return r.Selector.Select(r.Trees[replica])
}

// DigestInto folds the run's replayable content — the history header,
// every recorded operation (with its returned chain) and communication
// event, every replica tree, and the fault/adversary event log — into
// w, in a fixed order shared with the scenario layer's pinned digests.
func (r *Result) DigestInto(w io.Writer) {
	sw, ok := w.(io.StringWriter)
	if !ok {
		sw = &stringWriter{w: w}
	}
	sw.WriteString(r.History.String())
	for _, op := range r.History.Ops {
		sw.WriteString(op.String())
	}
	for e := range r.History.Events() {
		sw.WriteString(e.String())
	}
	for _, t := range r.Trees {
		for _, b := range t.Blocks() {
			sw.WriteString(string(b.ID))
			sw.WriteString(string(b.Parent))
		}
	}
	for _, e := range r.FaultEvents {
		sw.WriteString(e.String())
	}
}

// stringWriter writes strings to a writer that has no WriteString, such
// as an fnv hash, through one reused buffer, where io.WriteString would
// copy every string into a fresh []byte. The bytes written are the same.
type stringWriter struct {
	w   io.Writer
	buf []byte
}

func (s *stringWriter) WriteString(str string) (int, error) {
	s.buf = append(s.buf[:0], str...)
	return s.w.Write(s.buf)
}

// Digest is the replay digest: identical (system, options, seed)
// runs produce identical digests, and any divergence in the recorded
// history, trees or fault log changes it.
func (r *Result) Digest() string {
	h := fnv.New64a()
	r.DigestInto(h)
	return fmt.Sprintf("%016x", h.Sum64())
}

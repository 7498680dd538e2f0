// Streaming histories: instead of accumulating every operation in the
// Recorder and snapshotting one immutable History at the end, a run can
// attach a Sink and have each operation handed off the moment its
// response event is recorded. The SegmentSink batches the stream into
// sealed segments that are released after their handler returns, so a
// run's resident history is bounded by the segment size (plus the ops
// still pending), not by the run length — the shape the online
// consistency monitors (internal/consistency.Monitor) consume.
package history

import "sort"

// Sink consumes a recorded history as it grows. The Recorder invokes it
// under its own lock, in response order:
//
//   - OpDone delivers each operation exactly once, at the moment its
//     response event is recorded (so the op is complete and immutable).
//   - CommDone delivers each send/receive/update event as it is recorded.
//   - Faulty delivers MarkFaulty declarations; for a monitor to exclude
//     all of a process's reads, as the criteria do, the process must be
//     marked before its first read is recorded (adversary wiring marks
//     at construction time, so protocol runs satisfy this by design).
//
// Sink implementations must not call back into the Recorder.
type Sink interface {
	OpDone(op *Op)
	CommDone(e CommEvent)
	Faulty(p int)
}

// SetSink attaches a streaming consumer. Attach before the first
// operation is recorded: ops recorded earlier are never replayed.
func (r *Recorder) SetSink(s Sink) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sink = s
	if r.pending == nil {
		r.pending = make(map[int]*Op)
	}
}

// SetRetain controls whether the Recorder keeps completed operations and
// communication events for Snapshot. The default (true) keeps the
// history for Snapshot and replay; with retain=false every completed op
// is owned by the sink alone and Snapshot returns only the still-pending
// operations — the bounded-memory mode behind ≥1M-op streaming runs.
func (r *Recorder) SetRetain(keep bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.drop = !keep
	if r.drop && r.pending == nil {
		r.pending = make(map[int]*Op)
	}
}

// Procs returns the number of processes the recorder was created for.
func (r *Recorder) Procs() int { return r.procs }

// tracksPending reports whether the recorder must index pending ops
// (needed to deliver them at Finalize time and to snapshot in drop
// mode). Callers hold r.mu.
func (r *Recorder) tracksPending() bool { return r.pending != nil }

// opInvoked files a freshly invoked (pending) operation. Callers hold r.mu.
func (r *Recorder) opInvoked(op *Op) {
	if !r.drop {
		r.ops = append(r.ops, op)
	}
	if r.tracksPending() {
		r.pending[op.ID] = op
	}
}

// opCompleted forwards a completed operation to the sink. Callers hold
// r.mu; the sink contract forbids re-entry, so invoking it under the
// lock is safe and keeps delivery in response order.
func (r *Recorder) opCompleted(op *Op) {
	if r.tracksPending() {
		delete(r.pending, op.ID)
	}
	if r.sink != nil {
		r.sink.OpDone(op)
	}
}

// PendingOps returns the operations invoked but not yet responded, in
// invocation order. In drop mode this is the entire recorder-resident
// history; the streaming finalizer feeds them to the monitor (Block
// Validity counts pending append invocations).
func (r *Recorder) PendingOps() []*Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pendingLocked()
}

func (r *Recorder) pendingLocked() []*Op {
	if r.pending == nil {
		// Without pending tracking, scan the retained ops.
		var out []*Op
		for _, op := range r.ops {
			if op.Pending {
				out = append(out, op)
			}
		}
		return out
	}
	out := make([]*Op, 0, len(r.pending))
	for _, op := range r.pending {
		out = append(out, op)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].InvIndex < out[j].InvIndex })
	return out
}

// Segment is one sealed slice of a streamed history: operations in
// response order and communication events in recording order. Once the
// seal handler returns, the SegmentSink holds no reference to it (unless
// keep mode is on), so its backing arrays are reclaimable.
type Segment struct {
	// Index numbers segments from 0 in seal order.
	Index int
	Ops   []*Op
	Comm  []CommEvent
}

// SegmentSink batches a streamed history into fixed-size segments. It is
// the segmented builder between the Recorder and a downstream consumer:
// ops are appended through the Sink interface, and every time `size`
// operations accumulate the current segment is sealed and handed to
// OnSeal. With Keep(true) sealed segments are also retained so History()
// can still assemble the full batch view — the compatibility path.
type SegmentSink struct {
	// OnSeal receives each sealed segment (may be nil: pure builder).
	OnSeal func(*Segment)
	// OnFaulty forwards MarkFaulty declarations downstream (may be nil).
	OnFaulty func(int)

	size   int
	cur    *Segment
	next   int
	keep   bool
	kept   []*Segment
	faulty map[int]bool
	nops   int
}

// DefaultSegmentSize is the segment size used when none is given.
const DefaultSegmentSize = 4096

// NewSegmentSink returns a segmented builder sealing every size ops
// (size <= 0 means DefaultSegmentSize) into onSeal.
func NewSegmentSink(size int, onSeal func(*Segment)) *SegmentSink {
	if size <= 0 {
		size = DefaultSegmentSize
	}
	return &SegmentSink{OnSeal: onSeal, size: size, faulty: make(map[int]bool)}
}

// Keep retains sealed segments for History() — the compatibility path
// that trades the bounded-memory property for the full batch view.
func (s *SegmentSink) Keep(keep bool) { s.keep = keep }

// OpDone implements Sink.
func (s *SegmentSink) OpDone(op *Op) {
	if s.cur == nil {
		s.cur = &Segment{Index: s.next}
	}
	s.cur.Ops = append(s.cur.Ops, op)
	s.nops++
	if len(s.cur.Ops) >= s.size {
		s.Seal()
	}
}

// CommDone implements Sink.
func (s *SegmentSink) CommDone(e CommEvent) {
	if s.cur == nil {
		s.cur = &Segment{Index: s.next}
	}
	s.cur.Comm = append(s.cur.Comm, e)
}

// Faulty implements Sink.
func (s *SegmentSink) Faulty(p int) {
	s.faulty[p] = true
	if s.OnFaulty != nil {
		s.OnFaulty(p)
	}
}

// Seal closes the current partial segment (no-op when empty) and hands
// it to OnSeal. The run's finalizer calls it once after the last op.
func (s *SegmentSink) Seal() {
	if s.cur == nil || (len(s.cur.Ops) == 0 && len(s.cur.Comm) == 0) {
		return
	}
	seg := s.cur
	s.cur = nil
	s.next++
	if s.keep {
		s.kept = append(s.kept, seg)
	}
	if s.OnSeal != nil {
		s.OnSeal(seg)
	}
}

// Sealed reports how many segments have been sealed so far.
func (s *SegmentSink) Sealed() int { return s.next }

// Ops reports how many operations have streamed through the sink.
func (s *SegmentSink) Ops() int { return s.nops }

// History assembles the full batch history from the kept segments — the
// compatibility path for consumers that still want the immutable
// History. It requires Keep(true); without it only the unsealed tail is
// visible and History returns nil to make the misuse loud.
func (s *SegmentSink) History(procs int) *History {
	if !s.keep {
		return nil
	}
	s.Seal()
	h := &History{Procs: procs}
	var ids commIDs
	for _, seg := range s.kept {
		h.Ops = append(h.Ops, seg.Ops...)
		for _, e := range seg.Comm {
			h.Comm = append(h.Comm, ids.pack(e))
		}
	}
	h.CommIDs = ids.view()
	for _, op := range h.Ops {
		if op.src != nil {
			h.Table = op.src // one recorder, one table
			break
		}
	}
	// Segments hold ops in response order; the batch History contract
	// is invocation order.
	sort.Slice(h.Ops, func(i, j int) bool { return h.Ops[i].InvIndex < h.Ops[j].InvIndex })
	if len(s.faulty) > 0 {
		h.Correct = make([]bool, procs)
		for i := range h.Correct {
			h.Correct[i] = !s.faulty[i]
		}
	}
	return h
}

// Streaming histories: instead of accumulating every operation in the
// Recorder and snapshotting one immutable History at the end, a run can
// attach a Sink and have each operation handed off the moment its
// response event is recorded. The SegmentSink batches the stream into
// sealed segments that are released after their handler returns, so a
// run's resident history is bounded by the segment size (plus the ops
// still pending), not by the run length — the shape the online
// consistency monitors (internal/consistency.Monitor) consume.
//
// One ownership rule governs the path: a sealed segment is on loan to
// its handler. The Segment, its Ops and Comm slices and — on a drop-mode
// recorder whose direct sink is the SegmentSink — the Op objects
// themselves are valid until OnSeal returns; after that the sink refills
// the same Segment and the recorder reuses the ops for later operations
// (an overlapped sink hands them back at the next seal, after waiting
// for the handler). A handler that needs anything longer copies it (the
// Monitor keeps compact records).
package history

import (
	"cmp"
	"fmt"
	"runtime/debug"
	"slices"
)

// Sink consumes a recorded history as it grows. The Recorder invokes it
// under its own lock, in response order:
//
//   - OpDone delivers each operation exactly once, at the moment its
//     response event is recorded (so the op is complete and immutable).
//     In drop mode the op is only borrowed: a SegmentSink attached
//     directly hands it back to the recorder once the segment holding it
//     has been consumed, so a sink must not keep the pointer beyond
//     that — see SetRetain.
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
// operation is recorded: ops recorded earlier are never replayed. A
// *SegmentSink attached directly is bound to the recorder, so that in
// drop mode it hands consumed ops back — see SetRetain.
func (r *Recorder) SetSink(s Sink) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.sink.(*SegmentSink); ok {
		old.handBack, old.clock = nil, nil
	}
	r.sink = s
	if seg, ok := s.(*SegmentSink); ok {
		seg.handBack, seg.clock = r.takeBack, r.clock
	}
}

// takeBack receives the ops of a segment the recorder's direct
// SegmentSink has had consumed. It runs inside the sink's OpDone or
// CommDone, so r.mu is held. Only drop mode reuses them: a retaining
// recorder's ops are its history.
func (r *Recorder) takeBack(ops []*Op) {
	if r.drop {
		r.free = append(r.free, ops...)
	}
}

// SetRetain controls whether the Recorder keeps completed operations and
// communication events for Snapshot. The default (true) keeps the
// history for Snapshot and replay; with retain=false every completed op
// is owned by the sink alone and Snapshot returns only the still-pending
// operations — the bounded-memory mode behind ≥1M-op streaming runs.
//
// In drop mode a completed op is on loan to the sink. When the sink is
// a SegmentSink attached directly, the op is valid until the OnSeal call
// that delivers its segment returns — with Overlap, until the next seal,
// which waits for that call — and the recorder then reuses the object
// for a later operation. The *Op that InvokeRead, ReadHead,
// Append and the other recording calls return is the same object, so in
// that mode a caller may use it only until its segment has been
// consumed. Pending ops are never reused, and behind any other sink
// nothing is: released ops go to the collector.
func (r *Recorder) SetRetain(keep bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.drop = !keep
}

// Procs returns the number of processes the recorder was created for.
func (r *Recorder) Procs() int { return r.procs }

// opInvoked files a freshly invoked (pending) operation. Callers hold r.mu.
func (r *Recorder) opInvoked(op *Op) {
	if !r.drop {
		r.ops = append(r.ops, op)
	}
	op.slot = int32(len(r.pending))
	r.pending = append(r.pending, op)
}

// opCompleted forwards a completed operation to the sink. Callers hold
// r.mu; the sink contract forbids re-entry, so invoking it under the
// lock is safe and keeps delivery in response order. The op leaves the
// pending set by a swap with the last one; an op answered a second time
// is no longer in the set, which the identity check tells.
func (r *Recorder) opCompleted(op *Op) {
	if i := int(op.slot); i < len(r.pending) && r.pending[i] == op {
		last := len(r.pending) - 1
		r.pending[i] = r.pending[last]
		r.pending[i].slot = int32(i)
		r.pending[last] = nil
		r.pending = r.pending[:last]
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
	out := slices.Clone(r.pending)
	slices.SortFunc(out, func(a, b *Op) int { return cmp.Compare(a.InvIndex, b.InvIndex) })
	return out
}

// Segment is one sealed slice of a streamed history: operations in
// response order and communication events in recording order. It is on
// loan to the seal handler: the SegmentSink refills this very Segment —
// struct and backing arrays — once the handler has returned, so a
// handler that wants the segment, a slice or (in drop mode, see
// SetRetain) an op for longer copies it.
type Segment struct {
	// Index numbers segments from 0 in seal order.
	Index int
	// At is the recorder's virtual time when the segment was sealed (0
	// when the sink is not the recorder's direct sink).
	At   int64
	Ops  []*Op
	Comm []CommEvent
}

// SegmentSink batches a streamed history into bounded segments. It is
// the segmented builder between the Recorder and a downstream consumer:
// ops and communication events are appended through the Sink interface,
// and the current segment is sealed and handed to OnSeal as soon as it
// holds `size` operations or commSeal events, whichever comes first.
//
// By default OnSeal runs inside the seal, on the recording goroutine.
// An Overlap sink runs it on a goroutine of its own while the recorder
// fills the next segment; the next seal, Faulty, Seal and Wait each wait
// for it first, so at most one segment is ever in the handler's hands,
// the handler sees the same calls in the same order, and OnFaulty never
// runs beside it. A handler's panic is kept as Err; from then on seals
// release segments unhandled and Faulty skips OnFaulty.
//
// Faulty reaches OnFaulty before the open segment's ops, which OnSeal
// sees later; the Sink contract already asks that a process be marked
// before its first read is recorded.
type SegmentSink struct {
	// OnSeal receives each sealed segment (may be nil: pure builder). The
	// segment is valid until OnSeal returns.
	OnSeal func(*Segment)
	// OnFaulty forwards MarkFaulty declarations downstream (may be nil).
	OnFaulty func(int)
	// Overlap, set before the first seal, runs OnSeal off the recording
	// goroutine; OnJoin (may be nil) then runs on the recording goroutine
	// once per segment, when a wait finds its handler returned — the
	// place to act on what the handler left behind. A wait may hold the
	// recorder's lock, so neither OnSeal nor OnJoin may call back into
	// the recorder.
	Overlap bool
	OnJoin  func(*Segment)

	size int
	cur  *Segment
	// spare is the last consumed segment, emptied, waiting to be refilled.
	spare *Segment
	// busy is the segment an overlapped handler has or had in hand until
	// the next seal releases it; done closes when that handler returns,
	// and is nil once a wait has joined it; err is its panic.
	busy *Segment
	done chan struct{}
	err  error
	// handBack, bound by Recorder.SetSink while this sink is the
	// recorder's direct sink, returns a consumed segment's ops to the
	// recorder. It needs the recorder's lock, which only the calls the
	// recorder makes hold: a seal that OpDone or CommDone triggers hands
	// back, Seal() from outside does not. clock, bound with it, stamps
	// Segment.At.
	handBack func([]*Op)
	clock    func() int64
	next     int
}

// DefaultSegmentSize is the segment size used when none is given.
const DefaultSegmentSize = 4096

// commSeal bounds a segment's communication events, which a live run's
// settle phase (few ops, every block flooded) would otherwise pile into
// one segment. Comm is allocated at this capacity on a segment's first
// event and kept by the spare, so it never grows by append copies.
const commSeal = 1024

// NewSegmentSink returns a segmented builder sealing every size ops
// (size <= 0 means DefaultSegmentSize) into onSeal.
func NewSegmentSink(size int, onSeal func(*Segment)) *SegmentSink {
	if size <= 0 {
		size = DefaultSegmentSize
	}
	return &SegmentSink{OnSeal: onSeal, size: size}
}

// open returns the segment being filled, starting one — the spare when
// there is one — if none is open.
func (s *SegmentSink) open() *Segment {
	if s.cur == nil {
		s.cur, s.spare = s.spare, nil
		if s.cur == nil {
			s.cur = &Segment{Ops: make([]*Op, 0, s.size)}
		}
		s.cur.Index = s.next
	}
	return s.cur
}

// OpDone implements Sink.
func (s *SegmentSink) OpDone(op *Op) {
	seg := s.open()
	seg.Ops = append(seg.Ops, op)
	if len(seg.Ops) >= s.size {
		s.seal(s.handBack)
	}
}

// CommDone implements Sink.
func (s *SegmentSink) CommDone(e CommEvent) {
	seg := s.open()
	if seg.Comm == nil {
		seg.Comm = make([]CommEvent, 0, commSeal)
	}
	seg.Comm = append(seg.Comm, e)
	if len(seg.Comm) >= commSeal {
		s.seal(s.handBack)
	}
}

// Faulty implements Sink.
func (s *SegmentSink) Faulty(p int) {
	s.Wait()
	if s.err == nil && s.OnFaulty != nil {
		s.OnFaulty(p)
	}
}

// Seal closes the current partial segment (no-op when empty), hands it
// to OnSeal and waits for the handler. The run's finalizer calls it
// once after the last op.
func (s *SegmentSink) Seal() {
	s.seal(nil)
	s.Wait()
}

// Wait blocks until an overlapped handler has returned, then runs
// OnJoin for its segment unless the handler panicked. The segment stays
// on loan until the next seal.
func (s *SegmentSink) Wait() {
	if s.done != nil {
		<-s.done
		s.done = nil
		if s.err == nil && s.OnJoin != nil {
			s.OnJoin(s.busy)
		}
	}
}

// Err waits for an overlapped handler in flight and reports the first
// handler panic, naming its segment (nil: none panicked).
func (s *SegmentSink) Err() error {
	s.Wait()
	return s.err
}

// seal waits for and releases the segment an overlapped handler had,
// then seals the current one and hands it to OnSeal — on a goroutine of
// its own with Overlap, else here, releasing it at once (unhandled after
// a handler panic).
func (s *SegmentSink) seal(handBack func([]*Op)) {
	s.Wait()
	if s.busy != nil {
		s.release(s.busy, handBack)
		s.busy = nil
	}
	seg := s.cur
	if seg == nil || (len(seg.Ops) == 0 && len(seg.Comm) == 0) {
		return
	}
	s.cur = nil
	s.next++
	if s.clock != nil {
		seg.At = s.clock()
	}
	switch {
	case s.OnSeal == nil, s.err != nil:
	case s.Overlap:
		s.busy, s.done = seg, make(chan struct{})
		go s.handle(seg, s.done)
		return
	default:
		s.OnSeal(seg)
	}
	s.release(seg, handBack)
}

// handle runs OnSeal for an overlapped seal and keeps a panic as Err.
func (s *SegmentSink) handle(seg *Segment, done chan struct{}) {
	defer close(done)
	defer func() {
		if r := recover(); r != nil {
			s.err = fmt.Errorf("history: the handler of segment %d panicked: %v\n%s", seg.Index, r, debug.Stack())
		}
	}()
	s.OnSeal(seg)
}

// release ends a segment's loan: it gives the ops to handBack (nil:
// leave them to the collector) and keeps the emptied segment to refill.
func (s *SegmentSink) release(seg *Segment, handBack func([]*Op)) {
	if handBack != nil {
		handBack(seg.Ops)
	}
	clear(seg.Ops) // the spare must not pin ops the collector may take
	seg.Ops, seg.Comm = seg.Ops[:0], seg.Comm[:0]
	s.spare = seg
}

// Sealed reports how many segments have been sealed so far.
func (s *SegmentSink) Sealed() int { return s.next }

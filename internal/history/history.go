// Package history implements the concurrent-history model of Definition
// 2.4: a history H = ⟨Σ, E, Λ, ↦, ≺, ↗⟩ where E contains operation
// invocation and response events, ↦ is the process order, ≺ the
// (real-time) operation order, and ↗ the program order (their union).
// For the message-passing model of Section 4.2 the event set is extended
// with send, receive and update events (Definition 4.2).
//
// Events carry a global sequence index assigned at recording time; the
// index is a linearization of real time (virtual simulation time or a
// shared atomic counter for true shared-memory runs), so e ≺ e′ holds
// iff the response index of e precedes the invocation index of e′.
//
// Read results are interned: in a tree, the chain a read returns is
// determined by its head block, so a read records only a compact
// (head, length) handle against the run's block index (core.Index)
// instead of copying an O(height) slice per read. Op.Chain()
// materializes from the index when a checker or renderer actually needs
// the blocks.
package history

import (
	"fmt"
	"iter"
	"sync"

	"repro/internal/core"
)

// OpKind distinguishes the two BT-ADT operations.
type OpKind uint8

// The operation kinds recorded in histories.
const (
	OpAppend OpKind = iota
	OpRead
)

// String returns "append" or "read".
func (k OpKind) String() string {
	if k == OpAppend {
		return "append"
	}
	return "read"
}

// Op is one completed (or pending) BT-ADT operation: an invocation event
// and, once present, its response event. Indices are global sequence
// numbers; times are virtual clock readings (informational).
type Op struct {
	ID   int
	Proc int
	Kind OpKind

	// Block is the argument of append(b); nil for read().
	Block *core.Block
	// OK is the boolean response of append().
	OK bool

	// Head and ChainLen are the interned result of read(): the head
	// block's ID and the chain length including genesis. The full chain
	// is available via Chain().
	Head     core.BlockID
	ChainLen int

	// chain is the read result recorded explicitly (RespondRead); an
	// interned read leaves it nil and materializes from src.
	chain core.Chain
	src   *core.Index

	InvIndex, RspIndex int
	InvTime, RspTime   int64
	// Pending marks an operation whose response has not been recorded
	// (the process crashed or the run was truncated).
	Pending bool
	// slot is the op's index in Recorder.pending while it is tracked
	// there (it sits in Pending's padding: an Op stays 136 bytes).
	slot int32
}

// Chain returns the blockchain returned by read(). A read recorded as
// an interned handle is materialized from the run's block index afresh
// on every call, so the caller owns that slice. It must not be called
// concurrently with recording; after recording has stopped it is safe
// for concurrent use (the op itself is never written, and the index is
// locked).
func (o *Op) Chain() core.Chain {
	if o.chain != nil {
		return o.chain
	}
	if o.src != nil {
		return o.src.ChainTo(o.Head)
	}
	return nil
}

// EagerChain returns the explicitly recorded chain (RespondRead path),
// nil for interned reads. The monitors retain it on the few ops they
// keep, so witness reconstruction works for histories recorded without
// a block index.
func (o *Op) EagerChain() core.Chain { return o.chain }

// SetSource attaches the block index (and optional eagerly recorded
// chain) a rebuilt operation materializes its read result from. The
// streaming monitors use it to reconstruct witness operations from
// compact records after the original ops were released.
func (o *Op) SetSource(idx *core.Index, chain core.Chain) {
	o.src, o.chain = idx, chain
}

// Before reports the program order ր: op ր other iff op's response event
// precedes other's invocation event. Because processes are sequential,
// this single test covers both the process order ↦ and the real-time
// operation order ≺ of Definition 2.4.
func (o *Op) Before(other *Op) bool {
	if o.Pending || other == nil {
		return false
	}
	return o.RspIndex < other.InvIndex
}

// String renders the operation like "p1.read()/b0⌢ab12cd34 [5,9]".
func (o *Op) String() string {
	switch o.Kind {
	case OpRead:
		if o.Pending {
			return fmt.Sprintf("p%d.read()… [%d,-]", o.Proc, o.InvIndex)
		}
		return fmt.Sprintf("p%d.read()/%s [%d,%d]", o.Proc, o.Chain(), o.InvIndex, o.RspIndex)
	default:
		if o.Pending {
			return fmt.Sprintf("p%d.append(%s)… [%d,-]", o.Proc, o.Block.ID.Short(), o.InvIndex)
		}
		return fmt.Sprintf("p%d.append(%s)/%v [%d,%d]", o.Proc, o.Block.ID.Short(), o.OK, o.InvIndex, o.RspIndex)
	}
}

// CommKind distinguishes the message-passing events of Definition 4.2.
type CommKind uint8

// The communication event kinds of Section 4.2.
const (
	EvSend CommKind = iota
	EvReceive
	EvUpdate
)

// String returns "send", "receive" or "update".
func (k CommKind) String() string {
	switch k {
	case EvSend:
		return "send"
	case EvReceive:
		return "receive"
	default:
		return "update"
	}
}

// CommEvent is a send_i(bg, b), receive_i(bg, b) or update_i(bg, b) event:
// process Proc communicates/applies block Block under predecessor Parent.
// It is the wide, printable form of an event — what RecordComm returns,
// what a Sink and a Segment carry, and what History.Events yields; the
// log itself stores CommRecords. Events are ordered by Index alone.
type CommEvent struct {
	Kind   CommKind
	Proc   int
	Parent core.BlockID
	Block  core.BlockID
	Index  int
}

// String renders e.g. "update_2(b0, ab12cd34) @7".
func (e CommEvent) String() string {
	return fmt.Sprintf("%s_%d(%s, %s) @%d", e.Kind, e.Proc, e.Parent.Short(), e.Block.Short(), e.Index)
}

// CommRecord is a communication event as the log stores it: 16 bytes
// and no pointer, so a flooded run's log — one event per block per
// process — is memory the collector never scans and Snapshot copies
// without a write barrier. The two block IDs are numbers in the ID
// table that travels with the log (History.CommIDs); index, process and
// kind share one word,
//
//	word = index<<24 | proc<<2 | kind
//
// so an index is below 1<<40, a process in [0, 1<<22) (MaxProcs) and a
// kind one of the three; packing an event outside those bounds panics
// rather than let the fields overlap. History.Event and History.Events
// widen a record back into a CommEvent. Drop mode packs nothing.
type CommRecord struct {
	parent, block uint32
	word          uint64
}

// The bounds of the record's packed word.
const (
	kindBits = 2
	procBits = 22
	// MaxProcs is the number of processes a Recorder can name.
	MaxProcs = 1 << procBits
	// maxCommIndex bounds the global index a recorded event can carry.
	maxCommIndex = 1 << (64 - procBits - kindBits)
)

// commIDs numbers the block IDs communication events name, in first-
// seen order. It is not the run's core.Index: that one admits only
// blocks a tree accepted, while a receive event names whatever a
// Byzantine sender put on the wire, and an event's Parent argument need
// not be its block's Parent field.
type commIDs struct {
	num   map[core.BlockID]uint32
	names []core.BlockID
	// lastParent and lastBlock are one-entry memos in front of num, one
	// per argument: a flooded block's events arrive in runs, so most
	// lookups repeat the previous ID. A memo is only a number, checked
	// against names, so the zero value is valid over an empty table.
	lastParent, lastBlock uint32
}

// number returns id's number, assigning the next one on first sight.
func (t *commIDs) number(id core.BlockID, memo *uint32) uint32 {
	if m := *memo; int(m) < len(t.names) && t.names[m] == id {
		return m
	}
	n, ok := t.num[id]
	if !ok {
		if t.num == nil {
			t.num = make(map[core.BlockID]uint32)
		}
		n = uint32(len(t.names))
		t.num[id] = n
		t.names = append(t.names, id)
	}
	*memo = n
	return n
}

// pack narrows e into a record over t. It panics on a field its bits
// cannot hold.
func (t *commIDs) pack(e CommEvent) CommRecord {
	switch {
	case uint(e.Proc) >= MaxProcs:
		panic(fmt.Sprintf("history: process %d outside [0, %d)", e.Proc, MaxProcs))
	case uint64(e.Index) >= maxCommIndex:
		panic(fmt.Sprintf("history: comm index %d outside [0, %d)", e.Index, uint64(maxCommIndex)))
	case e.Kind > EvUpdate:
		panic(fmt.Sprintf("history: comm kind %d is none of send, receive, update", e.Kind))
	}
	return CommRecord{
		parent: t.number(e.Parent, &t.lastParent),
		block:  t.number(e.Block, &t.lastBlock),
		word:   uint64(e.Index)<<(procBits+kindBits) | uint64(e.Proc)<<kindBits | uint64(e.Kind),
	}
}

// kind, proc and index unpack the record's word.
func (c *CommRecord) kind() CommKind { return CommKind(c.word & (1<<kindBits - 1)) }
func (c *CommRecord) proc() int      { return int(c.word >> kindBits & (MaxProcs - 1)) }
func (c *CommRecord) index() int     { return int(c.word >> (procBits + kindBits)) }

// view returns the table's names as recorded so far, capped so that
// neither the holder's appends nor the table's own later ones show
// through: the table only ever writes past the cap.
func (t *commIDs) view() []core.BlockID {
	n := len(t.names)
	return t.names[:n:n]
}

// History is a finite recorded prefix of a concurrent history. It is
// immutable once built; use Recorder to construct one.
//
// The operation accessors (Reads, Appends, SuccessfulAppends,
// AppendedBlocks, ByProcess) are memoized on first use — checkers call
// them repeatedly — so the returned slices and maps are shared: callers
// must treat them as read-only, and must not call them before recording
// has stopped (the same contract the checkers already have).
type History struct {
	Ops []*Op
	// Comm is the communication log in recording order, packed; CommIDs
	// is the ID table its records index. len(Comm) is the event count;
	// read events through Events and Event.
	Comm    []CommRecord
	CommIDs []core.BlockID
	// Procs is the number of processes (ids 0..Procs-1).
	Procs int
	// Correct[i] reports whether process i is correct (non-faulty).
	// Consistency criteria quantify over correct processes only
	// (Definition 4.2). A nil slice means all processes are correct.
	Correct []bool
	// Table is the block index the interned reads of Ops materialize
	// from (the recorder's); nil for a history whose reads all carry
	// explicit chains.
	Table *core.Index

	memoOnce sync.Once
	memo     struct {
		reads      []*Op
		appends    []*Op
		successful []*Op
		byProc     [][]*Op
	}
}

// index builds every memoized view in one pass over Ops.
func (h *History) index() {
	h.memoOnce.Do(func() {
		h.memo.byProc = make([][]*Op, h.Procs)
		for _, op := range h.Ops {
			if op.Pending {
				continue
			}
			if op.Proc >= 0 && op.Proc < h.Procs {
				h.memo.byProc[op.Proc] = append(h.memo.byProc[op.Proc], op)
			}
			switch op.Kind {
			case OpRead:
				if h.IsCorrect(op.Proc) {
					h.memo.reads = append(h.memo.reads, op)
				}
			case OpAppend:
				h.memo.appends = append(h.memo.appends, op)
				if op.OK {
					h.memo.successful = append(h.memo.successful, op)
				}
			}
		}
	})
}

// IsCorrect reports whether process p is correct in this history.
func (h *History) IsCorrect(p int) bool {
	if h.Correct == nil || p < 0 || p >= len(h.Correct) {
		return true
	}
	return h.Correct[p]
}

// Reads returns the completed read operations of correct processes, in
// recording order. The slice is memoized and shared — read-only.
func (h *History) Reads() []*Op {
	h.index()
	return h.memo.reads
}

// Appends returns the completed append operations (of all processes —
// Block Validity must hold for any appended block a correct process
// reads), in recording order. The slice is memoized and shared.
func (h *History) Appends() []*Op {
	h.index()
	return h.memo.appends
}

// SuccessfulAppends returns appends whose response was true. The
// hierarchy theorems (3.3, 3.4) compare histories "purged of the
// unsuccessful append() response events". The slice is memoized and
// shared.
func (h *History) SuccessfulAppends() []*Op {
	h.index()
	return h.memo.successful
}

// ByProcess returns the completed operations of process p in program
// order. The slice is memoized and shared — read-only.
func (h *History) ByProcess(p int) []*Op {
	if p < 0 || p >= h.Procs {
		return nil
	}
	h.index()
	return h.memo.byProc[p]
}

// Event returns the i-th communication event, 0 ≤ i < len(h.Comm).
func (h *History) Event(i int) CommEvent {
	c := &h.Comm[i]
	return CommEvent{
		Kind: c.kind(), Proc: c.proc(), Index: c.index(),
		Parent: h.CommIDs[c.parent], Block: h.CommIDs[c.block],
	}
}

// Events iterates over the communication events in recording order.
func (h *History) Events() iter.Seq[CommEvent] {
	return func(yield func(CommEvent) bool) {
		for i := range h.Comm {
			if !yield(h.Event(i)) {
				return
			}
		}
	}
}

// CommOf returns the communication events of the given kind, in index
// order.
func (h *History) CommOf(kind CommKind) []CommEvent {
	var out []CommEvent
	for i := range h.Comm {
		if h.Comm[i].kind() == kind {
			out = append(out, h.Event(i))
		}
	}
	return out
}

// Purged returns a copy of the history without unsuccessful append
// operations (the Ĥ of Section 3.4).
func (h *History) Purged() *History {
	nh := &History{Procs: h.Procs, Correct: h.Correct, Comm: h.Comm, CommIDs: h.CommIDs, Table: h.Table}
	for _, op := range h.Ops {
		if op.Kind == OpAppend && !op.Pending && !op.OK {
			continue
		}
		nh.Ops = append(nh.Ops, op)
	}
	return nh
}

// String summarizes the history.
func (h *History) String() string {
	return fmt.Sprintf("history(%d procs, %d ops, %d comm events)", h.Procs, len(h.Ops), len(h.Comm))
}

// Recorder builds a History from concurrent processes. All methods are
// safe for concurrent use; the global index is one counter advanced
// under the recorder's mutex, which makes the recorded ≺ a legal
// linearization of real time.
type Recorder struct {
	mu     sync.Mutex
	seq    int
	nextID int
	ops    []*Op
	// comm is the communication log: fixed-capacity chunks, doubling
	// from commChunkMin to commChunkMax, that are filled and never
	// regrown — a flooded run records an event per block per process,
	// and regrowing one flat slice to that size copies the log several
	// times over under the mutex. Snapshot flattens the chunks. ids
	// numbers the block IDs the records name; drop mode touches neither.
	comm   [][]CommRecord
	ids    commIDs
	ncomm  int // comm events recorded (valid in drop mode, unlike comm)
	procs  int
	faulty map[int]bool
	clock  func() int64
	table  *core.Index

	// sink, when set, receives every completed op and comm event as it
	// is recorded (see stream.go); drop releases completed ops instead
	// of retaining them for Snapshot; pending holds the invoked-but-
	// unresponded ops, in no order, each at its Op.slot, when a sink or
	// drop mode needs them (non-nil exactly then).
	sink    Sink
	drop    bool
	pending []*Op

	// slab is the pooled Op allocator: ops are appended into fixed-
	// capacity chunks (pointers into a chunk stay valid because a full
	// chunk is replaced, never regrown), replacing one heap allocation
	// per operation on the hot path. Drop-mode runs bypass it so
	// released ops remain individually collectable.
	slab []Op
	// free is the drop-mode free list: the ops of the segments a direct
	// SegmentSink has had consumed and handed back (takeBack). newOp
	// draws from it, so such a run owns about a segment's worth of Op
	// objects plus the pending ones for its whole length.
	free []*Op
	// lastHead is a one-entry memo in front of RespondReadHead's intern:
	// consecutive reads mostly return one head, and the index never
	// forgets a block, so skipping the repeat is exact.
	lastHead *core.Block
}

// opSlabChunk is the pooled Op allocator's chunk capacity;
// commChunkMin/commChunkMax bound the communication log's chunks.
const (
	opSlabChunk  = 256
	commChunkMin = 64
	commChunkMax = 4096
)

// newOp returns a pooled zero Op (callers hold r.mu). In drop mode the
// slab is bypassed: it would pin released ops in memory, and the whole
// point of drop mode is that completed ops are collectable. An op the
// sink has handed back is reused first; the heap serves the rest.
func (r *Recorder) newOp() *Op {
	if r.drop {
		if n := len(r.free); n > 0 {
			op := r.free[n-1]
			r.free = r.free[:n-1]
			*op = Op{}
			return op
		}
		return &Op{}
	}
	if len(r.slab) == cap(r.slab) {
		r.slab = make([]Op, 0, opSlabChunk)
	}
	r.slab = append(r.slab, Op{})
	return &r.slab[len(r.slab)-1]
}

// NewRecorder creates a recorder for procs processes, at most MaxProcs.
// clock supplies the operations' virtual timestamps; nil means "always 0"
// (pure shared-memory runs where only the order matters).
func NewRecorder(procs int, clock func() int64) *Recorder {
	if procs > MaxProcs {
		panic(fmt.Sprintf("history: %d processes, a recorder names at most %d", procs, MaxProcs))
	}
	if clock == nil {
		clock = func() int64 { return 0 }
	}
	return &Recorder{procs: procs, faulty: make(map[int]bool), clock: clock, table: core.NewIndex()}
}

// Table returns the run's block index. The run's replica trees are
// built on it and intern every block they attach, so interned reads can
// always materialize.
func (r *Recorder) Table() *core.Index { return r.table }

// InternBlock registers a block in the run's block index, for a caller
// that records interned reads without a replica tree on the index (the
// benchmark's record_read kernel, tests).
func (r *Recorder) InternBlock(b *core.Block) { r.table.Intern(b) }

// MarkFaulty declares process p Byzantine/crashed; its reads are excluded
// from criteria checks per Definition 4.2.
func (r *Recorder) MarkFaulty(p int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.faulty[p] = true
	if r.sink != nil {
		r.sink.Faulty(p)
	}
}

// InvokeRead records the invocation event of a read() by process p and
// returns the pending operation handle.
func (r *Recorder) InvokeRead(p int) *Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	op := r.newOp()
	op.ID, op.Proc, op.Kind = r.nextID, p, OpRead
	op.InvIndex, op.InvTime, op.Pending = r.seq, r.clock(), true
	r.nextID++
	r.seq++
	r.opInvoked(op)
	return op
}

// RespondRead records the response event of a pending read with an
// explicitly materialized blockchain (sequential generators and tests;
// the simulator hot path uses RespondReadHead).
func (r *Recorder) RespondRead(op *Op, c core.Chain) {
	r.mu.Lock()
	defer r.mu.Unlock()
	op.chain = c
	if head := c.Head(); head != nil {
		op.Head = head.ID
		op.ChainLen = len(c)
	}
	op.RspIndex = r.seq
	op.RspTime = r.clock()
	op.Pending = false
	r.seq++
	r.opCompleted(op)
}

// RespondReadHead records the response event of a pending read as an
// interned (head, length) handle — O(1), no chain copy. The head block
// and its ancestors must be interned in the recorder's index (replicas
// intern on attach), so Op.Chain() can materialize on demand.
func (r *Recorder) RespondReadHead(op *Op, head *core.Block) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if head != r.lastHead {
		r.table.Intern(head)
		r.lastHead = head
	}
	op.Head = head.ID
	op.ChainLen = head.Height + 1
	op.src = r.table
	op.RspIndex = r.seq
	op.RspTime = r.clock()
	op.Pending = false
	r.seq++
	r.opCompleted(op)
}

// InvokeAppend records the invocation event of append(b) by process p.
func (r *Recorder) InvokeAppend(p int, b *core.Block) *Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	op := r.newOp()
	op.ID, op.Proc, op.Kind, op.Block = r.nextID, p, OpAppend, b
	op.InvIndex, op.InvTime, op.Pending = r.seq, r.clock(), true
	r.nextID++
	r.seq++
	r.opInvoked(op)
	return op
}

// RespondAppend records the boolean response of a pending append. If the
// refined append re-chained the block (the oracle granted a token for a
// different parent), the caller passes the final block.
func (r *Recorder) RespondAppend(op *Op, ok bool, final *core.Block) {
	r.mu.Lock()
	defer r.mu.Unlock()
	op.OK = ok
	if final != nil {
		op.Block = final
	}
	op.RspIndex = r.seq
	op.RspTime = r.clock()
	op.Pending = false
	r.seq++
	r.opCompleted(op)
}

// Read records a complete read (invocation immediately followed by
// response) — convenient for sequential generators.
func (r *Recorder) Read(p int, c core.Chain) *Op {
	op := r.InvokeRead(p)
	r.RespondRead(op, c)
	return op
}

// ReadHead records a complete read as an interned handle.
func (r *Recorder) ReadHead(p int, head *core.Block) *Op {
	op := r.InvokeRead(p)
	r.RespondReadHead(op, head)
	return op
}

// Append records a complete append.
func (r *Recorder) Append(p int, b *core.Block, ok bool) *Op {
	op := r.InvokeAppend(p, b)
	r.RespondAppend(op, ok, nil)
	return op
}

// RecordComm records a send/receive/update event: it sequences the
// event, packs it into the chunked log (unless in drop mode, which keeps
// neither the record nor its IDs) and feeds the sink the wide event.
func (r *Recorder) RecordComm(kind CommKind, p int, parent, block core.BlockID) CommEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.commLocked(kind, p, parent, block)
}

// RecordDelivery records the generic update of Section 4.2 as one step:
// receive_p(parent, b) and update_p(b.Parent, b) at consecutive indices,
// under one critical section. parent is the predecessor the delivery
// named, which need not be b.Parent.
func (r *Recorder) RecordDelivery(p int, parent core.BlockID, b *core.Block) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.commLocked(EvReceive, p, parent, b.ID)
	r.commLocked(EvUpdate, p, b.Parent, b.ID)
}

// commLocked is RecordComm's body (callers hold r.mu).
func (r *Recorder) commLocked(kind CommKind, p int, parent, block core.BlockID) CommEvent {
	e := CommEvent{Kind: kind, Proc: p, Parent: parent, Block: block, Index: r.seq}
	r.seq++
	r.ncomm++
	if !r.drop {
		last := len(r.comm) - 1
		if last < 0 || len(r.comm[last]) == cap(r.comm[last]) {
			n := commChunkMin
			if last >= 0 {
				n = min(2*cap(r.comm[last]), commChunkMax)
			}
			r.comm = append(r.comm, make([]CommRecord, 0, n))
			last++
		}
		r.comm[last] = append(r.comm[last], r.ids.pack(e))
	}
	if r.sink != nil {
		r.sink.CommDone(e)
	}
	return e
}

// Snapshot returns the history recorded so far. The returned History
// shares Op pointers with the recorder; callers must stop recording
// before checking criteria (the checkers are read-only). Comm is an
// independent flat copy of the chunked log — one exact-size,
// pointer-free allocation — and CommIDs the ID table as it stands,
// capped at its length (the recorder only ever writes past that cap), so
// later recording shows through neither, and a snapshot may be read
// while other goroutines keep recording. In drop mode
// (SetRetain(false)) completed ops belong to the sink alone, so the
// snapshot contains only the still-pending operations.
func (r *Recorder) Snapshot() *History {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := &History{Procs: r.procs, Table: r.table}
	if r.drop {
		h.Ops = r.pendingLocked()
	} else {
		h.Ops = make([]*Op, len(r.ops))
		copy(h.Ops, r.ops)
	}
	n := 0
	for _, chunk := range r.comm {
		n += len(chunk)
	}
	h.Comm = make([]CommRecord, 0, n)
	for _, chunk := range r.comm {
		h.Comm = append(h.Comm, chunk...)
	}
	h.CommIDs = r.ids.view()
	if len(r.faulty) > 0 {
		h.Correct = make([]bool, r.procs)
		for i := range h.Correct {
			h.Correct[i] = !r.faulty[i]
		}
	}
	return h
}

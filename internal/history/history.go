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
// determined by its head block, so every read records only a compact
// (head, length) handle against the run's block index (core.Index)
// instead of copying an O(height) slice per read — a read answered with
// an explicit chain interns its blocks first. Op.Chain() materializes
// from the index when a checker or renderer actually needs the blocks.
package history

import (
	"fmt"
	"iter"
	"math/bits"
	"slices"
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

	// Block is the argument of append(b); nil for read().
	Block *core.Block

	// Head and ChainLen are the interned result of read(): the head
	// block's ID and the chain length including genesis (an empty chain
	// is Head "", ChainLen 0). The full chain is available via Chain(),
	// which materializes it from src, the run's block index.
	Head     core.BlockID
	ChainLen int
	src      *core.Index

	InvIndex, RspIndex int
	InvTime, RspTime   int64

	// The one-byte fields and slot share the last word: an Op is 96
	// bytes.
	Kind OpKind
	// OK is the boolean response of append().
	OK bool
	// Pending marks an operation whose response has not been recorded
	// (the process crashed or the run was truncated).
	Pending bool
	// slot is the op's index in Recorder.pending while it is pending.
	slot int32
}

// Chain returns the blockchain returned by read(), materialized from
// the run's block index afresh on every call, so the caller owns the
// slice. It must not be called concurrently with recording; after
// recording has stopped it is safe for concurrent use (the op itself is
// never written, and the index is locked).
func (o *Op) Chain() core.Chain {
	if o.src == nil {
		return nil
	}
	return o.src.ChainTo(o.Head)
}

// SetSource attaches the block index a rebuilt operation materializes
// its read result from. The streaming monitors use it to reconstruct
// witness operations from compact records after the original ops were
// released.
func (o *Op) SetSource(idx *core.Index) { o.src = idx }

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
	// evDelivery is a recorder record's kind only: one record for a
	// receive at index i and its update at i+1 (Recorder.RecordDelivery).
	// Snapshot widens it back into two records, so no History holds it.
	evDelivery
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

// CommRecord is a communication event as the log stores it: 4 bytes
// and no pointer, so a flooded run's log — one event per block per
// process — is memory the collector never scans and Snapshot copies
// without a write barrier. The record is one word,
//
//	word = payload<<3 | odd<<2 | kind,  payload = block<<pbits | proc
//
// where block is the event's block as a number in the ID table that
// travels with the log and pbits = bits.Len(procs-1) is fixed by the
// recorder's process count, leaving 29-pbits bits for the block (20 at
// 512 processes). An event whose process or block number does not fit,
// or whose payload would be the all-ones escape mark, stores the mark
// and keeps both in the tables' wide list. A process must be in
// [0, MaxProcs) and a kind one of the three; packing an event outside
// those bounds panics. (The recorder's own chunks also hold a fourth
// kind, a delivery, which Snapshot widens back into two records.) The
// event's parent and index are not in the record: the parent is the one
// its block was first recorded under, unless the odd bit says the event
// named another (honest senders all name the block's own Parent, so only
// a forged argument does), and the index is one past the previous
// event's unless operation events came in between. The tables' odd and
// jump lists record those exceptions. History.Events widens the records
// back into CommEvents, in order. Drop mode packs nothing.
type CommRecord struct {
	word uint32
}

// The layout of the record's word.
const (
	kindBits     = 2
	oddBit       = 1 << kindBits
	payloadShift = kindBits + 1
	escape       = 1<<(32-payloadShift) - 1
	// MaxProcs is the number of processes a Recorder can name.
	MaxProcs = 1 << 22
)

// kind unpacks the record's word; odd reports that the event's parent is
// in the odd list, not its block's first parent.
func (c CommRecord) kind() CommKind { return CommKind(c.word & (1<<kindBits - 1)) }
func (c CommRecord) odd() bool      { return c.word&oddBit != 0 }

// commTables is what widening a log's records takes. names lists the
// block IDs the events name, in first-seen order (parent before block),
// and parent[n] is the number of the parent names[n] was first recorded
// under as a block (noParent while it has only been named as a parent).
// pbits is the payload's process width. The three lists hold the
// exceptions, each in log order: odd the parent of every record with the
// odd bit, jumps the index of every record whose index is not its
// predecessor's + 1 (the first record's predecessor sits at -1), wide
// the process and block of every record whose payload is the escape.
//
// It is not the run's core.Index: that one admits only blocks a tree
// accepted, while a receive event names whatever a Byzantine sender put
// on the wire, and an event's Parent argument need not be its block's
// Parent field.
type commTables struct {
	names  []core.BlockID
	parent []uint32
	odd    []uint32
	jumps  []commJump
	wide   []commWide
	pbits  uint
}

// commJump is the index of the record at pos, the records after it
// following one by one; commWide the process and block number of an
// escaped record.
type (
	commJump struct{ pos, index int }
	commWide struct{ proc, block uint32 }
)

const noParent = ^uint32(0)

// commIDs packs events into records, numbering the block IDs they name
// and growing the tables that widen them. The tables are append-only
// except parent, whose entry for an ID first named as a parent is
// written once more when the ID is first named as a block. A number
// depends only on the order IDs are first named in, never on a handle.
type commIDs struct {
	commTables
	num map[core.BlockID]uint32
	// byHandle caches, by a handle on idx, the recorder's index, an ID's
	// number+1 (0: not yet cached): a delivery names its block and its
	// parent by the handles the replica resolved, so an interned block
	// is numbered without hashing its ID. Its pages of handlePage slots
	// are added up to the one holding a handle below the index's Len
	// and never regrown.
	byHandle []*[handlePage]uint32
	idx      *core.Index
	// n is the number of events packed (a delivery record is two), next
	// the index one more event would carry without a jump.
	n, next int
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
		t.parent = append(t.parent, noParent)
	}
	*memo = n
	return n
}

// handlePage is the number of slots in a page of commIDs.byHandle.
const handlePage = 1 << 10

// numberAt is number for an ID whose handle on the recorder's index is
// h (at or past its Len when it has none): the cached number, or
// number's, cached for the next delivery that names h.
func (t *commIDs) numberAt(h uint32, id core.BlockID, memo *uint32) uint32 {
	page := int(h / handlePage)
	if page < len(t.byHandle) {
		if n := t.byHandle[page][h%handlePage]; n != 0 {
			return n - 1
		}
	}
	n := t.number(id, memo)
	if int(h) < t.idx.Len() {
		for len(t.byHandle) <= page {
			t.byHandle = append(t.byHandle, new([handlePage]uint32))
		}
		t.byHandle[page][h%handlePage] = n + 1
	}
	return n
}

// pack narrows e, the next event of the log, into a record over t. It
// panics on a process outside [0, MaxProcs) or a kind none of the three.
func (t *commIDs) pack(e CommEvent) CommRecord {
	switch {
	case uint(e.Proc) >= MaxProcs:
		panic(fmt.Sprintf("history: process %d outside [0, %d)", e.Proc, MaxProcs))
	case e.Kind > EvUpdate:
		panic(fmt.Sprintf("history: comm kind %d is none of send, receive, update", e.Kind))
	}
	parent, block := t.number(e.Parent, &t.lastParent), t.number(e.Block, &t.lastBlock)
	payload := uint64(block)<<t.pbits | uint64(e.Proc)
	if uint(e.Proc) >= 1<<t.pbits || payload >= escape {
		payload = escape
		t.wide = append(t.wide, commWide{uint32(e.Proc), block})
	}
	c := CommRecord{uint32(payload)<<payloadShift | uint32(e.Kind)}
	if t.parent[block] == noParent {
		t.parent[block] = parent
	} else if t.parent[block] != parent {
		c.word |= oddBit
		t.odd = append(t.odd, parent)
	}
	if e.Index != t.next {
		t.jumps = append(t.jumps, commJump{t.n, e.Index})
	}
	t.n, t.next = t.n+1, e.Index+1
	return c
}

// packDelivery narrows a delivery — the receive e of r's block and, at
// e.Index+1, its update under the block's Parent — into one record over
// t, leaving the tables as packing the two events would: the receive's
// odd parent, if any, and for an escaped payload one wide entry per
// event. The block, and a receive parent that is its Parent, are
// numbered by r's handles (numberAt), still parent first. It
// reports false and packs nothing when the Parent is not the block's
// first parent once e is packed (only after a forged first record); the
// caller packs the two events instead. It repeats pack's steps rather
// than calling pack and patching the record: that measured ≈ 10 %
// slower a delivery (BenchmarkRecordDelivery).
func (t *commIDs) packDelivery(e CommEvent, r core.Ref) (CommRecord, bool) {
	if uint(e.Proc) >= MaxProcs {
		panic(fmt.Sprintf("history: process %d outside [0, %d)", e.Proc, MaxProcs))
	}
	bh, ph := r.Handles()
	update := r.Block().Parent
	honest := e.Parent == update
	var parent uint32
	if honest {
		parent = t.numberAt(ph, e.Parent, &t.lastParent)
	} else {
		parent = t.number(e.Parent, &t.lastParent)
	}
	block := t.numberAt(bh, e.Block, &t.lastBlock)
	first := t.parent[block]
	if first == noParent {
		first = parent
	}
	// An honest receive names the update's parent: the numbers decide.
	if honest && first != parent || !honest && t.names[first] != update {
		return CommRecord{}, false
	}
	t.parent[block] = first
	payload := uint64(block)<<t.pbits | uint64(e.Proc)
	if uint(e.Proc) >= 1<<t.pbits || payload >= escape {
		payload = escape
		w := commWide{uint32(e.Proc), block}
		t.wide = append(t.wide, w, w)
	}
	c := CommRecord{uint32(payload)<<payloadShift | uint32(evDelivery)}
	if parent != first {
		c.word |= oddBit
		t.odd = append(t.odd, parent)
	}
	if e.Index != t.next {
		t.jumps = append(t.jumps, commJump{t.n, e.Index})
	}
	t.n, t.next = t.n+2, e.Index+2
	return c, true
}

// view returns the tables as recorded so far, for a snapshot: the
// append-only lists capped so that neither the holder's appends nor the
// packer's own later ones show through (it only ever writes past the
// cap), and parent copied, since the packer may still fill an entry.
func (t *commIDs) view() commTables {
	return commTables{
		names:  t.names[:len(t.names):len(t.names)],
		parent: slices.Clone(t.parent),
		odd:    t.odd[:len(t.odd):len(t.odd)],
		jumps:  t.jumps[:len(t.jumps):len(t.jumps)],
		wide:   t.wide[:len(t.wide):len(t.wide)],
		pbits:  t.pbits,
	}
}

// commCursor widens a log's records in order from the first, stepping
// through the three lists: O(1) an event.
type commCursor struct {
	t               *commTables
	odd, jump, wide int // the next entry of each list
	skip            int // index − position, as of the last jump
}

// next widens c, the record at pos, and moves past it.
func (cur *commCursor) next(c CommRecord, pos int) CommEvent {
	t := cur.t
	if cur.jump < len(t.jumps) && t.jumps[cur.jump].pos == pos {
		cur.skip = t.jumps[cur.jump].index - pos
		cur.jump++
	}
	proc, block := cur.split(c)
	parent := t.parent[block]
	if c.odd() {
		parent = t.odd[cur.odd]
		cur.odd++
	}
	return CommEvent{Kind: c.kind(), Proc: int(proc), Parent: t.names[parent], Block: t.names[block], Index: pos + cur.skip}
}

// split returns the process and block number of c, the cursor's next
// record, moving past its wide entry if c is escaped.
func (cur *commCursor) split(c CommRecord) (proc, block uint32) {
	payload := c.word >> payloadShift
	if payload != escape {
		return payload & (1<<cur.t.pbits - 1), payload >> cur.t.pbits
	}
	w := cur.t.wide[cur.wide]
	cur.wide++
	return w.proc, w.block
}

// History is a finite recorded prefix of a concurrent history. It is
// immutable once built; use Recorder to construct one.
//
// Reads is memoized on first use — checkers call it repeatedly — so the
// returned slice is shared: callers must treat it as read-only, and must
// not call it before recording has stopped (the same contract the
// checkers already have).
type History struct {
	Ops []*Op
	// Comm is the communication log in recording order, packed.
	// len(Comm) is the event count; read events through Events, which
	// widens the records over the side tables.
	Comm   []CommRecord
	tables commTables
	// Procs is the number of processes (ids 0..Procs-1).
	Procs int
	// Correct[i] reports whether process i is correct (non-faulty).
	// Consistency criteria quantify over correct processes only
	// (Definition 4.2). A nil slice means all processes are correct.
	Correct []bool
	// Table is the block index the reads of Ops materialize from (the
	// recorder's).
	Table *core.Index

	readsOnce sync.Once
	reads     []*Op
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
	h.readsOnce.Do(func() {
		for _, op := range h.Ops {
			if op.Kind == OpRead && !op.Pending && h.IsCorrect(op.Proc) {
				h.reads = append(h.reads, op)
			}
		}
	})
	return h.reads
}

// Events iterates over the communication events in recording order.
func (h *History) Events() iter.Seq[CommEvent] {
	return func(yield func(CommEvent) bool) {
		cur := commCursor{t: &h.tables}
		for i, c := range h.Comm {
			if !yield(cur.next(c, i)) {
				return
			}
		}
	}
}

// CommOf returns the communication events of the given kind, in index
// order.
func (h *History) CommOf(kind CommKind) []CommEvent {
	var out []CommEvent
	for e := range h.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
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
	// times over under the mutex. A delivery is one record here
	// (evDelivery); Snapshot flattens the chunks and widens each
	// delivery into its two records. ids packs the records and keeps the
	// tables that widen them; drop mode touches neither.
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
	// unresponded ops, in no order, each at its Op.slot.
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
	r := &Recorder{procs: procs, faulty: make(map[int]bool), clock: clock, table: core.NewIndex()}
	r.ids.pbits = uint(bits.Len(uint(max(procs-1, 0))))
	r.ids.idx = r.table
	return r
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

// RespondRead records the response event of a pending read answered
// with an explicitly materialized blockchain (sequential generators and
// tests): it interns c's blocks into the recorder's index and records
// the read as RespondReadHead does. An empty chain records Head "" and
// ChainLen 0; any other c must run from genesis to a head at height
// len(c)-1, or RespondRead panics (an O(1) check of the ends only).
func (r *Recorder) RespondRead(op *Op, c core.Chain) {
	if len(c) > 0 && (!c[0].IsGenesis() || c.Head().Height != len(c)-1) {
		panic(fmt.Sprintf("history: read of %d blocks from %s to height %d is not a chain from genesis",
			len(c), c[0].ID.Short(), c.Head().Height))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range c {
		r.table.Intern(b)
	}
	r.respondReadLocked(op, c.Head())
}

// RespondReadHead records the response event of a pending read as an
// interned (head, length) handle — O(1), no chain copy. The head block's
// ancestors must be interned in the recorder's index (replicas intern on
// attach), so Op.Chain() can materialize on demand.
func (r *Recorder) RespondReadHead(op *Op, head *core.Block) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if head != r.lastHead {
		r.table.Intern(head)
		r.lastHead = head
	}
	r.respondReadLocked(op, head)
}

// respondReadLocked is the response of a read whose head is interned; a
// nil head is the empty chain. Callers hold r.mu.
func (r *Recorder) respondReadLocked(op *Op, head *core.Block) {
	if head != nil {
		op.Head = head.ID
		op.ChainLen = head.Height + 1
	}
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
	e := r.commEvent(kind, p, parent, block)
	if !r.drop {
		r.appendComm(r.ids.pack(e))
	}
	if r.sink != nil {
		r.sink.CommDone(e)
	}
	return e
}

// RecordDelivery records the generic update of Section 4.2 for the block
// ref was resolved for, b, as one step: receive_p(parent, b) and
// update_p(b.Parent, b) at consecutive indices, under one critical
// section, packed as one record unless b.Parent is not b's first
// recorded parent. parent is the predecessor the delivery named, which
// need not be b.Parent. ref is b resolved on the recorder's index
// (Table), as by a replica tree on it: its handles number b and its
// parent with no lookup of their IDs once each was recorded by handle
// before (a Ref from another index would name other IDs' numbers). The
// sink gets the two events.
func (r *Recorder) RecordDelivery(p int, parent core.BlockID, ref core.Ref) {
	b := ref.Block()
	r.mu.Lock()
	defer r.mu.Unlock()
	rcv, upd := r.commEvent(EvReceive, p, parent, b.ID), r.commEvent(EvUpdate, p, b.Parent, b.ID)
	if !r.drop {
		if c, ok := r.ids.packDelivery(rcv, ref); ok {
			r.appendComm(c)
		} else {
			r.appendComm(r.ids.pack(rcv))
			r.appendComm(r.ids.pack(upd))
		}
	}
	if r.sink != nil {
		r.sink.CommDone(rcv)
		r.sink.CommDone(upd)
	}
}

// commEvent sequences the next comm event (callers hold r.mu).
func (r *Recorder) commEvent(kind CommKind, p int, parent, block core.BlockID) CommEvent {
	e := CommEvent{Kind: kind, Proc: p, Parent: parent, Block: block, Index: r.seq}
	r.seq++
	r.ncomm++
	return e
}

// appendComm appends c to the chunked log (callers hold r.mu).
func (r *Recorder) appendComm(c CommRecord) {
	last := len(r.comm) - 1
	if last < 0 || len(r.comm[last]) == cap(r.comm[last]) {
		n := commChunkMin
		if last >= 0 {
			n = min(2*cap(r.comm[last]), commChunkMax)
		}
		r.comm = append(r.comm, make([]CommRecord, 0, n))
		last++
	}
	r.comm[last] = append(r.comm[last], c)
}

// Snapshot returns the history recorded so far. The returned History
// shares Op pointers with the recorder; callers must stop recording
// before checking criteria (the checkers are read-only). Comm is an
// independent flat copy of the chunked log — one exact-size,
// pointer-free allocation, each delivery record written as its receive
// and its update record — widened over the recorder's tables as they
// stand (commIDs.view: the small first-parent table copied, the rest
// capped at their length), so later recording shows through neither,
// and a snapshot may be read while other goroutines keep recording. In
// drop mode
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
	h.Comm = make([]CommRecord, r.ids.n)
	i := 0
	for _, chunk := range r.comm {
		for _, c := range chunk {
			if c.kind() == evDelivery {
				w := c.word &^ (1<<kindBits - 1)
				h.Comm[i], c = CommRecord{w | uint32(EvReceive)}, CommRecord{w&^oddBit | uint32(EvUpdate)}
				i++
			}
			h.Comm[i] = c
			i++
		}
	}
	h.tables = r.ids.view()
	if len(r.faulty) > 0 {
		h.Correct = make([]bool, r.procs)
		for i := range h.Correct {
			h.Correct[i] = !r.faulty[i]
		}
	}
	return h
}

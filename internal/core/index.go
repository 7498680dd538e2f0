package core

import (
	"hash/maphash"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Index is the run-wide block index: it hands every distinct BlockID a
// dense uint32 handle in intern order (genesis is 0) and remembers, per
// handle, the first copy of the block interned, the handle of the parent
// that copy names and the block's place in the tree's shape: its first
// child and its next sibling. Every Tree of a run and the run's
// history.Recorder share one Index, so a delivered block is looked up
// once (Tree.Resolve: by its pointer, or by its 64-byte hex ID's hash),
// the block tree's shape is kept once per run, and everything after —
// tree membership, the attach, a replica's walk of a block's children, a
// read's chain walk — goes by slice index. Handles leave this package
// only through Ref.Handles, for the recorder to number a delivered block
// by (invariant (iii)).
//
// Invariants:
//
//   - (i) A block enters the index only when a tree attaches it — after
//     the replica's predicate accepted it and the tree's own parent and
//     height checks passed — or through Intern's direct callers: the
//     recorder interning a read head or every block of a chain handed to
//     Recorder.RespondRead (checked only at its ends), and a restored
//     monitor's pool. Never on receipt: a forged copy that no tree
//     accepts cannot win first-writer-wins. The tcp carrier's decoder
//     reads the index (BlockBytes) to hand back the interned block for a
//     frame equal to it on every field, and never interns into it.
//   - (ii) A tree attaches a block under the parent that block's own
//     Parent field names. The parent handle cached here belongs to the
//     first copy interned; resolve uses it only when the copy at hand
//     names the same parent and looks the named parent up otherwise.
//   - (iii) Handles are run-local names in intern order, which differs
//     between live runs (the nodes' event loops race to intern a block
//     first) and with what a caller interned beforehand. Nothing
//     digest-covered, rendered or serialized depends on handle order
//     (the recorder caches its ID numbers by handle, but numbers IDs in
//     the order it first records them), and a tree keeps no order of its
//     own (Tree: Blocks sorts, Clone copies the held set, the GHOST pass
//     sums subtrees — the same result in any visiting order).
//   - (iv) The index is safe for concurrent use, and no lookup takes a
//     lock. An ID's handle is found in byID, a block pointer's in
//     byBlock: open-addressed tables of handle+1 (0 is an empty slot),
//     probed linearly and kept at most half full. Only intern writes
//     them, under mu. It writes the new entry — and patches the
//     children waiting for it (v) — before one atomic store puts the
//     handle in a slot, so whoever finds a handle finds its entry
//     whole; it grows a table by filling a copy and publishing it (an
//     atomic store of the table pointer) before any reader can probe
//     it. A reader still probing the table a growth replaced misses only
//     handles interned after it loaded that table: its lookup ran
//     before their insert. Entries sit in append-only pages that never
//     move, and a page is published (an atomic store of the page
//     directory) before any handle on it is. Whoever holds a handle got
//     it, directly or through a tree, from a table or from a link, so
//     the entry's writes happen before its reads. An entry's block never
//     changes; its links are read and written atomically (next two
//     items).
//   - (v) A parent handle is noHandle exactly while the parent's ID is
//     not interned: a child interned before its parent (a restored
//     monitor's pool comes in no particular order) is patched when the
//     parent arrives, under mu and before the parent's handle enters a
//     table, by one atomic store that a walk racing it reads either way.
//   - (vi) An entry is on its parent's child list exactly when its
//     parent handle is set: intern links it in under mu, at
//     once or when a late parent arrives. A list ascends strictly by ID
//     and ends at 0 (genesis is nobody's child). The parent's kids
//     counts the list: link adds one before the splice, so whoever
//     reaches an entry through a table or the list reads a count that
//     includes it. A splice sets the new entry's next sibling before one
//     atomic store makes it reachable, so a walk racing it sees the list
//     with or without it, whole either way; nothing is ever unlinked.
type Index struct {
	genesis *Block // entry 0's block

	// pages is the page directory: page k holds the 1<<k entries of the
	// handles from 1<<k - 1 on, so a genesis-only index holds one entry
	// and a run of n blocks log2(n) pages. Only intern stores it, under
	// mu; anyone holding a handle loads it.
	pages atomic.Pointer[[][]indexEntry]

	// byID and byBlock find a handle by its block's ID and by the
	// pointer its entry holds (invariant (iv)); n counts the handles.
	byID, byBlock atomic.Pointer[handleTable]
	n             atomic.Uint32

	mu sync.Mutex // serializes intern
	// waiting lists, per missing parent ID, the handles interned before
	// that parent; empty in a run whose blocks arrive through trees.
	waiting map[BlockID][]uint32
}

type indexEntry struct {
	b      *Block
	parent atomic.Uint32
	// firstKid heads the entry's child list, nextSib continues the list
	// the entry is on, and kids counts the list (invariant (vi)).
	firstKid, nextSib, kids atomic.Uint32
}

// noHandle marks "not interned"; no tree holds anything under it.
const noHandle = ^uint32(0)

// handleTable is an open-addressed table of handles: a slot holds
// handle+1, 0 when empty. A key's probe starts at the top bits of its
// hash and steps linearly; intern keeps the table at most half full, so
// every probe ends at an empty slot.
type handleTable struct {
	slots []atomic.Uint32
	shift uint // 64 - log2(len(slots))
}

// minSlots is a new index's table size: room for 8 handles.
const minSlots = 16

func newHandleTable(slots int) *handleTable {
	return &handleTable{slots: make([]atomic.Uint32, slots), shift: uint(64 - bits.Len(uint(slots)-1))}
}

// put stores h in the first empty slot of hash's probe, under mu.
func (t *handleTable) put(hash uint64, h uint32) {
	mask := uint64(len(t.slots) - 1)
	i := hash >> t.shift
	for t.slots[i].Load() != 0 {
		i = (i + 1) & mask
	}
	t.slots[i].Store(h + 1)
}

// idSeed keys every index's byID hash; a per-process seed keeps probe
// lengths independent of the IDs a peer chooses.
var idSeed = maphash.MakeSeed()

func idHash(id BlockID) uint64 { return maphash.String(idSeed, string(id)) }

// blockHash spreads a block's address over the hash's top bits
// (Fibonacci hashing). Go's heap does not move objects, and the index
// keeps every block it holds alive, so an entry's address never changes.
func blockHash(b *Block) uint64 {
	return uint64(uintptr(unsafe.Pointer(b))) * 0x9e3779b97f4a7c15
}

// NewIndex returns an index holding only the genesis block.
func NewIndex() *Index {
	g := Genesis()
	x := &Index{genesis: g}
	dir := [][]indexEntry{{{b: g}}}
	dir[0][0].parent.Store(noHandle)
	x.pages.Store(&dir)
	x.n.Store(1)
	x.publishTables(minSlots)
	return x
}

// publishTables fills both tables afresh at the given size with every
// handle below n, then publishes them: the growth step, under mu.
func (x *Index) publishTables(slots int) {
	byID, byBlock := newHandleTable(slots), newHandleTable(slots)
	for h := range x.n.Load() {
		b := x.entry(h).b
		byID.put(idHash(b.ID), h)
		byBlock.put(blockHash(b), h)
	}
	x.byID.Store(byID)
	x.byBlock.Store(byBlock)
}

// entry returns the entry of a handle the caller holds, without a lock
// (invariant (iv)).
func (x *Index) entry(h uint32) *indexEntry {
	k := bits.Len32(h+1) - 1
	return &(*x.pages.Load())[k][h+1-1<<k]
}

// Ref is a block resolved against an Index: its handle and the handle of
// the parent it names, noHandle where not interned. A Ref is valid for
// every tree on the index that produced it, and stays valid: handles are
// never reassigned.
type Ref struct {
	b         *Block
	h, parent uint32
}

// Block returns the block the Ref was resolved for.
func (r Ref) Block() *Block { return r.b }

// Handles returns the handles of the Ref's block and of the parent it
// names, each at or past its index's Len where not interned. They are
// run-local names (invariant (iii)): fit to key a cache, never an order.
func (r Ref) Handles() (block, parent uint32) { return r.h, r.parent }

// resolve looks b up without a lock: by its pointer first — a block
// delivered as the copy that was interned costs no hash of its ID — and
// by its ID on a miss, so no answer depends on an address.
func (x *Index) resolve(b *Block) Ref {
	r := Ref{b: b, h: noHandle, parent: noHandle}
	h := x.blockHandle(b)
	if h == noHandle {
		h = x.handle(b.ID)
	}
	if h != noHandle {
		r.h = h
		if e := x.entry(h); e.b == b || e.b.Parent == b.Parent {
			r.parent = e.parent.Load()
			return r
		}
	}
	// Not interned yet, or a same-ID twin naming another parent.
	r.parent = x.handle(b.Parent)
	return r
}

// Intern registers b: first writer wins, later copies of an ID are
// ignored (block IDs are content hashes, so honest copies are
// identical). A nil block is ignored.
func (x *Index) Intern(b *Block) {
	if b != nil {
		x.intern(b)
	}
}

// intern returns b.ID's handle, assigning the next one on first sight.
// The lock-free probe keeps re-interning (every read interns its head)
// off mu. A new page is published before the entry is written, and the
// entry, its links and its waiting children's before the handle enters
// the tables (invariant (iv)); nothing is allocated but a page when one
// fills and a pair of tables when they reach half full.
func (x *Index) intern(b *Block) uint32 {
	if h := x.handle(b.ID); h != noHandle {
		return h
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if h := x.handle(b.ID); h != noHandle {
		return h
	}
	h := x.n.Load()
	if dir := *x.pages.Load(); h == 1<<len(dir)-1 {
		grown := append(dir, make([]indexEntry, h+1))
		x.pages.Store(&grown)
	}
	e := x.entry(h)
	e.b = b
	parent := x.handle(b.Parent)
	if parent == noHandle {
		if x.waiting == nil {
			x.waiting = make(map[BlockID][]uint32)
		}
		x.waiting[b.Parent] = append(x.waiting[b.Parent], h)
	}
	e.parent.Store(parent)
	if parent != noHandle {
		x.link(parent, h)
	}
	if len(x.waiting) > 0 {
		for _, c := range x.waiting[b.ID] {
			x.entry(c).parent.Store(h)
			x.link(h, c)
		}
		delete(x.waiting, b.ID)
	}
	x.n.Store(h + 1)
	if t := x.byID.Load(); 2*(h+1) > uint32(len(t.slots)) {
		x.publishTables(2 * len(t.slots))
	} else {
		t.put(idHash(b.ID), h)
		x.byBlock.Load().put(blockHash(b), h)
	}
	return h
}

// link splices child c into p's child list ahead of the first sibling
// with a larger ID and counts it, under mu (invariant (vi)).
func (x *Index) link(p, c uint32) {
	id := x.entry(c).b.ID
	x.entry(p).kids.Add(1)
	at := &x.entry(p).firstKid
	for s := at.Load(); s != 0 && x.entry(s).b.ID < id; s = at.Load() {
		at = &x.entry(s).nextSib
	}
	x.entry(c).nextSib.Store(at.Load())
	at.Store(c)
}

// Len reports how many blocks are interned, genesis included.
func (x *Index) Len() int { return int(x.n.Load()) }

// Block returns the interned block with the given ID (nil if unknown).
func (x *Index) Block(id BlockID) *Block {
	if h := x.handle(id); h != noHandle {
		return x.entry(h).b
	}
	return nil
}

// BlockBytes is Block for an ID held as bytes — a frame being decoded —
// and allocates nothing: the probe reads the bytes in place as a string
// it does not keep.
func (x *Index) BlockBytes(id []byte) *Block {
	if len(id) == 0 {
		return nil
	}
	return x.Block(BlockID(unsafe.String(&id[0], len(id))))
}

// handle returns id's handle, noHandle if it was never interned.
func (x *Index) handle(id BlockID) uint32 {
	t := x.byID.Load()
	mask := uint64(len(t.slots) - 1)
	for i := idHash(id) >> t.shift; ; i = (i + 1) & mask {
		s := t.slots[i].Load()
		if s == 0 {
			return noHandle
		}
		if x.entry(s-1).b.ID == id {
			return s - 1
		}
	}
}

// blockHandle returns the handle whose entry holds b itself, noHandle
// if b is not the copy an ID was first interned with.
func (x *Index) blockHandle(b *Block) uint32 {
	t := x.byBlock.Load()
	mask := uint64(len(t.slots) - 1)
	for i := blockHash(b) >> t.shift; ; i = (i + 1) & mask {
		s := t.slots[i].Load()
		if s == 0 {
			return noHandle
		}
		if x.entry(s-1).b == b {
			return s - 1
		}
	}
}

// ChainTo materializes the chain from genesis to head along parent
// handles. It returns nil if head or one of its ancestors was never
// interned, or if heights do not descend by one to genesis.
func (x *Index) ChainTo(head BlockID) Chain {
	h := x.handle(head)
	if h == noHandle {
		return nil
	}
	// A chain to height n is n+1 interned blocks: a height the index
	// cannot back (a block from a damaged file) is refused before it
	// sizes the allocation.
	hb := x.entry(h).b
	if hb.Height < 0 || hb.Height >= x.Len() {
		return nil
	}
	out := make(Chain, hb.Height+1)
	for i := len(out) - 1; i >= 0; i-- {
		if h == noHandle {
			return nil
		}
		e := x.entry(h)
		if e.b.Height != i {
			return nil
		}
		out[i] = e.b
		h = e.parent.Load()
	}
	if out[0] != x.genesis {
		return nil
	}
	return out
}

// AncestorAt returns head's ancestor at the given height (nil when head
// is unknown, the height is out of range, an ancestor was never interned
// or heights do not descend by one). It follows parent handles without
// materializing a chain — the monitors' O(Δh) comparability probe.
func (x *Index) AncestorAt(head BlockID, height int) *Block {
	h := x.handle(head)
	if h == noHandle {
		return nil
	}
	e := x.entry(h)
	if height < 0 || height > e.b.Height {
		return nil
	}
	for e.b.Height > height {
		want := e.b.Height - 1
		if h = e.parent.Load(); h == noHandle {
			return nil
		}
		if e = x.entry(h); e.b.Height != want {
			return nil
		}
	}
	return e.b
}

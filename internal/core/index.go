package core

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Index is the run-wide block index: it hands every distinct BlockID a
// dense uint32 handle in intern order (genesis is 0) and remembers, per
// handle, the first copy of the block interned, the handle of the parent
// that copy names and the block's place in the tree's shape: its first
// child and its next sibling. Every Tree of a run and the run's
// history.Recorder share one Index, so the 64-byte hex ID is hashed once
// per delivered block (Tree.Resolve), the block tree's shape is kept once
// per run, and everything after — tree membership, the attach, a
// replica's walk of a block's children, a read's chain walk — goes by
// slice index. Handles never leave this package.
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
//     digest-covered, rendered or serialized depends on handle order,
//     and a tree keeps no order of its own (Tree: Blocks sorts, Clone
//     copies the held set, the GHOST pass sums subtrees — the same
//     result in any visiting order).
//   - (iv) The index is safe for concurrent use. ID lookups take the
//     read lock: a block already interned is resolved under it once per
//     delivered block, and only the first attach of a block anywhere
//     takes the write lock. The entry of a handle the caller holds —
//     a tree's block, a parent or child link, the head a walk started
//     from — is read without the lock: entries sit in append-only pages
//     that never move, a page is published (an atomic store of the page
//     directory) before any handle on it is, and an entry is written
//     before its handle enters the map or a list. Whoever holds a handle
//     got it, directly or through a tree, from the map under the lock or
//     from a link, so the entry's writes happen before the read. An
//     entry's block never changes; its links are read and written
//     atomically (next two items).
//   - (v) A parent handle is noHandle exactly while the parent's ID is
//     not interned: a child interned before its parent (a restored
//     monitor's pool comes in no particular order) is patched when the
//     parent arrives, under the write lock, by one atomic store that a
//     walk racing it reads either way.
//   - (vi) An entry is on its parent's child list exactly when its
//     parent handle is set: intern links it in under the write lock, at
//     once or when a late parent arrives. A list ascends strictly by ID
//     and ends at 0 (genesis is nobody's child). A splice sets the new
//     entry's next sibling before one atomic store makes it reachable,
//     so a walk racing it sees the list with or without it, whole
//     either way; nothing is ever unlinked.
type Index struct {
	genesis *Block // entry 0's block

	// pages is the page directory: page k holds the 1<<k entries of the
	// handles from 1<<k - 1 on, so a genesis-only index holds one entry
	// and a run of n blocks log2(n) pages. Only intern stores it, under
	// mu; anyone holding a handle loads it.
	pages atomic.Pointer[[][]indexEntry]

	mu  sync.RWMutex
	ids map[BlockID]uint32
	// waiting lists, per missing parent ID, the handles interned before
	// that parent; empty in a run whose blocks arrive through trees.
	waiting map[BlockID][]uint32
}

type indexEntry struct {
	b      *Block
	parent atomic.Uint32
	// firstKid heads the entry's child list, nextSib continues the list
	// the entry is on (invariant (vi)).
	firstKid, nextSib atomic.Uint32
}

// noHandle marks "not interned"; no tree holds anything under it.
const noHandle = ^uint32(0)

// NewIndex returns an index holding only the genesis block.
func NewIndex() *Index {
	g := Genesis()
	x := &Index{genesis: g, ids: map[BlockID]uint32{g.ID: 0}}
	dir := [][]indexEntry{{{b: g}}}
	dir[0][0].parent.Store(noHandle)
	x.pages.Store(&dir)
	return x
}

// entry returns the entry of a handle the caller holds, without the lock
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

// resolve looks b up under one read-lock acquisition.
func (x *Index) resolve(b *Block) Ref {
	r := Ref{b: b, h: noHandle, parent: noHandle}
	x.mu.RLock()
	defer x.mu.RUnlock()
	if h, ok := x.ids[b.ID]; ok {
		r.h = h
		if e := x.entry(h); e.b == b || e.b.Parent == b.Parent {
			r.parent = e.parent.Load()
			return r
		}
	}
	// Not interned yet, or a same-ID twin naming another parent.
	if ph, ok := x.ids[b.Parent]; ok {
		r.parent = ph
	}
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
// The read-locked probe keeps re-interning (every read interns its head)
// off the write lock. The entry is written before the handle enters the
// map, and a new page is published before the entry is written
// (invariant (iv)); nothing is allocated but a page when one fills.
func (x *Index) intern(b *Block) uint32 {
	if h := x.handle(b.ID); h != noHandle {
		return h
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if h, ok := x.ids[b.ID]; ok {
		return h
	}
	h := uint32(len(x.ids))
	if dir := *x.pages.Load(); h == 1<<len(dir)-1 {
		grown := append(dir, make([]indexEntry, h+1))
		x.pages.Store(&grown)
	}
	e := x.entry(h)
	e.b = b
	parent, ok := x.ids[b.Parent]
	if !ok {
		parent = noHandle
		if x.waiting == nil {
			x.waiting = make(map[BlockID][]uint32)
		}
		x.waiting[b.Parent] = append(x.waiting[b.Parent], h)
	}
	e.parent.Store(parent)
	if ok {
		x.link(parent, h)
	}
	x.ids[b.ID] = h
	if len(x.waiting) > 0 {
		for _, c := range x.waiting[b.ID] {
			x.entry(c).parent.Store(h)
			x.link(h, c)
		}
		delete(x.waiting, b.ID)
	}
	return h
}

// link splices child c into p's child list ahead of the first sibling
// with a larger ID, under the write lock (invariant (vi)).
func (x *Index) link(p, c uint32) {
	id := x.entry(c).b.ID
	at := &x.entry(p).firstKid
	for s := at.Load(); s != 0 && x.entry(s).b.ID < id; s = at.Load() {
		at = &x.entry(s).nextSib
	}
	x.entry(c).nextSib.Store(at.Load())
	at.Store(c)
}

// Len reports how many blocks are interned, genesis included.
func (x *Index) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.ids)
}

// Block returns the interned block with the given ID (nil if unknown).
func (x *Index) Block(id BlockID) *Block {
	if h := x.handle(id); h != noHandle {
		return x.entry(h).b
	}
	return nil
}

// BlockBytes is Block for an ID held as bytes — a frame being decoded —
// and allocates nothing: the map is indexed by the bytes in place.
func (x *Index) BlockBytes(id []byte) *Block {
	x.mu.RLock()
	h, ok := x.ids[BlockID(id)]
	x.mu.RUnlock()
	if ok {
		return x.entry(h).b
	}
	return nil
}

// handle returns id's handle, noHandle if it was never interned.
func (x *Index) handle(id BlockID) uint32 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if h, ok := x.ids[id]; ok {
		return h
	}
	return noHandle
}

// ChainTo materializes the chain from genesis to head along parent
// handles. It returns nil if head or one of its ancestors was never
// interned, or if heights do not descend by one to genesis. Only the
// head's lookup takes the lock.
func (x *Index) ChainTo(head BlockID) Chain {
	x.mu.RLock()
	h, ok := x.ids[head]
	n := len(x.ids)
	x.mu.RUnlock()
	if !ok {
		return nil
	}
	// A chain to height n is n+1 interned blocks: a height the index
	// cannot back (a block from a damaged file) is refused before it
	// sizes the allocation.
	hb := x.entry(h).b
	if hb.Height < 0 || hb.Height >= n {
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
// materializing a chain — the monitors' O(Δh) comparability probe — and
// takes the lock only for the head's lookup.
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

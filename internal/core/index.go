package core

import "sync"

// Index is the run-wide block index: it hands every distinct BlockID a
// dense uint32 handle in intern order (genesis is 0) and remembers, per
// handle, the first copy of the block interned and the handle of the
// parent that copy names. Every Tree of a run and the run's
// history.Recorder share one Index, so the 64-byte hex ID is hashed once
// per delivered block (Tree.Resolve) and everything after — tree
// membership, the attach, a read's chain walk — goes by slice index.
// Handles never leave this package.
//
// Invariants:
//
//   - (i) A block enters the index only when a tree attaches it — after
//     the replica's predicate accepted it and the tree's own parent and
//     height checks passed — or through Intern's direct callers (the
//     recorder interning a read head, a restored monitor's pool). Never
//     on receipt: a forged copy that no tree accepts cannot win
//     first-writer-wins. The tcp carrier's decoder reads the index
//     (BlockBytes) to hand back the interned block for a frame equal to
//     it on every field, and never interns into it.
//   - (ii) A tree attaches a block under the parent that block's own
//     Parent field names. The parent handle cached here belongs to the
//     first copy interned; resolve uses it only when the copy at hand
//     names the same parent and looks the named parent up otherwise.
//   - (iii) Handles are run-local names in intern order, which differs
//     between live runs (the nodes' event loops race to intern a block
//     first) and with what a caller interned beforehand. Nothing
//     digest-covered, rendered or serialized depends on handle order,
//     and a tree keeps no order of its own (Tree: Blocks sorts, Clone
//     copies pages, the GHOST pass sums subtrees — the same result in
//     any visiting order).
//   - (iv) The index is safe for concurrent use. A block already interned
//     is resolved under the read lock, taken once per delivered block;
//     only the first attach of a block anywhere takes the write lock.
//   - A parent handle is noHandle exactly while the parent's ID is not
//     interned: a child interned before its parent (a restored monitor's
//     pool comes in no particular order) is patched when the parent
//     arrives.
type Index struct {
	genesis *Block // ents[0].b, readable without the lock

	mu   sync.RWMutex
	ids  map[BlockID]uint32
	ents []indexEntry
	// waiting lists, per missing parent ID, the handles interned before
	// that parent; empty in a run whose blocks arrive through trees.
	waiting map[BlockID][]uint32
}

type indexEntry struct {
	b      *Block
	parent uint32
}

// noHandle marks "not interned"; no tree holds anything under it.
const noHandle = ^uint32(0)

// NewIndex returns an index holding only the genesis block.
func NewIndex() *Index {
	g := Genesis()
	return &Index{
		genesis: g,
		ids:     map[BlockID]uint32{g.ID: 0},
		ents:    []indexEntry{{b: g, parent: noHandle}},
	}
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
	if h, ok := x.ids[b.ID]; ok {
		r.h = h
		if e := &x.ents[h]; e.b == b || e.b.Parent == b.Parent {
			r.parent = e.parent
			x.mu.RUnlock()
			return r
		}
	}
	// Not interned yet, or a same-ID twin naming another parent.
	if ph, ok := x.ids[b.Parent]; ok {
		r.parent = ph
	}
	x.mu.RUnlock()
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
// off the write lock.
func (x *Index) intern(b *Block) uint32 {
	x.mu.RLock()
	h, ok := x.ids[b.ID]
	x.mu.RUnlock()
	if ok {
		return h
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if h, ok := x.ids[b.ID]; ok {
		return h
	}
	h = uint32(len(x.ents))
	parent, ok := x.ids[b.Parent]
	if !ok {
		parent = noHandle
		if x.waiting == nil {
			x.waiting = make(map[BlockID][]uint32)
		}
		x.waiting[b.Parent] = append(x.waiting[b.Parent], h)
	}
	x.ids[b.ID] = h
	x.ents = append(x.ents, indexEntry{b: b, parent: parent})
	if len(x.waiting) > 0 {
		for _, c := range x.waiting[b.ID] {
			x.ents[c].parent = h
		}
		delete(x.waiting, b.ID)
	}
	return h
}

// Len reports how many blocks are interned, genesis included.
func (x *Index) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.ents)
}

// Block returns the interned block with the given ID (nil if unknown).
func (x *Index) Block(id BlockID) *Block {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if h, ok := x.ids[id]; ok {
		return x.ents[h].b
	}
	return nil
}

// BlockBytes is Block for an ID held as bytes — a frame being decoded —
// and allocates nothing: the map is indexed by the bytes in place.
func (x *Index) BlockBytes(id []byte) *Block {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if h, ok := x.ids[BlockID(id)]; ok {
		return x.ents[h].b
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
// interned, or if heights do not descend by one to genesis.
func (x *Index) ChainTo(head BlockID) Chain {
	x.mu.RLock()
	defer x.mu.RUnlock()
	h, ok := x.ids[head]
	// A chain to height n is n+1 interned blocks: a height the index
	// cannot back (a block from a damaged file) is refused before it
	// sizes the allocation.
	if !ok || x.ents[h].b.Height < 0 || x.ents[h].b.Height >= len(x.ents) {
		return nil
	}
	out := make(Chain, x.ents[h].b.Height+1)
	for i := len(out) - 1; i >= 0; i-- {
		if h == noHandle || x.ents[h].b.Height != i {
			return nil
		}
		out[i] = x.ents[h].b
		h = x.ents[h].parent
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
	x.mu.RLock()
	defer x.mu.RUnlock()
	h, ok := x.ids[head]
	if !ok {
		return nil
	}
	b := x.ents[h].b
	if height < 0 || height > b.Height {
		return nil
	}
	for b.Height > height {
		h = x.ents[h].parent
		if h == noHandle || x.ents[h].b.Height != b.Height-1 {
			return nil
		}
		b = x.ents[h].b
	}
	return b
}

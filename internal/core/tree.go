package core

import (
	"bytes"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sort"
)

// Tree is the BlockTree bt = (V_bt, E_bt): a rooted tree of blocks with
// every edge pointing back toward the genesis block. The zero value is
// not usable; construct with NewTree.
//
// Tree offers two mutation layers:
//
//   - Attach(b): the replica-level update operation of Section 4.2 —
//     insert a block under an arbitrary existing parent (this is how
//     forks arise);
//   - the BT-ADT append()/read() of Definition 3.1 lives in the adt and
//     refine packages, built on top of Attach and a Selector.
//
// The tree's shape is the Index's: a run's replicas share one index
// (NewTreeOn; NewTree gives a lone tree a private one), which keeps each
// block's parent and child list once, and a Tree is the set of blocks one
// process has received — a bit per handle. A block's children in a tree
// are its shared child list filtered by the bitset, read without a lock
// (Index invariants (iv)–(vi)). Where the copy a tree
// attached is not the entry's block under the entry's parent — a same-ID
// twin naming another parent (invariant (ii)), a WithToken copy, a tcp
// frame decoded before the block was first interned — the tree keeps it
// in a side table, and a twin, which its parent's shared list does not
// hold, in a second; both are nil on every simulated run. Pointer
// identity decides, not equal fields: Token is outside the ID and k-Fork
// Coherence groups by it. Attach resolves the block once (Resolve: a
// lock-free lookup by pointer, then by ID, warm across the replicas of a
// run), sets a bit
// — allocating only a bitset word where the handle needs one — and
// maintains what lets the selection function f (select.go) never rescan
// the tree:
//
//   - tallest: the block maximal by (height, ID) — the head LongestChain
//     and SingleChain select, read in O(1);
//   - maxFork: the largest sibling count, so MaxForkDegree is O(1); an
//     attach walks its parent's children only when the tree holds twins
//     or the index counts more kids under the parent than maxFork;
//   - weights: per block by handle, the number of blocks in its subtree
//     (every block weighs one). It is nil until the first weight query
//     (GHOST, or subtreeWeight), which fills it in one pass; Attach then
//     maintains it (O(depth)). LongestChain and SingleChain trees never
//     allocate it.
//
// No leaf set is kept (Leaves scans the held blocks; only anti-entropy
// asks), and no iteration order: handle order differs between live runs
// (Index invariant (iii)), so Blocks sorts by (height, ID) and the
// weight pass sums subtrees — the same result in any visiting order.
//
// Tree is not safe for concurrent use; each simulated process owns its
// replica (internal/replica), and shared-memory experiments wrap it.
// Trees sharing an Index may be used from different goroutines.
type Tree struct {
	idx *Index
	// held is the tree's block set, bit h&63 of word h>>6 for handle h;
	// n counts it.
	held []uint64
	n    int
	// copies holds, by handle, the block and parent this tree attached
	// where they are not the index entry's; nil until one is.
	copies map[uint32]copyRef
	// twins lists, by parent handle, the held blocks whose copy names
	// another parent than their index entry — off the shared child list
	// of the parent they hang under; nil until one is attached.
	twins map[uint32][]uint32
	// weights holds the subtree counts by handle: nil until the first
	// weight query, maintained by Attach from then on.
	weights []int
	// tallest is the block maximal by (height, ID). A child is higher
	// than its parent, so tallest is always a leaf: the head LongestChain
	// selects.
	tallest *Block
	// maxFork caches the largest number of children of any block.
	maxFork int
}

// copyRef is a block and its parent handle as a tree attached them.
type copyRef struct {
	b      *Block
	parent uint32
}

// has reports whether the tree holds handle h (never noHandle, which
// lies beyond any bitset).
func (t *Tree) has(h uint32) bool {
	w := int(h >> 6)
	return w < len(t.held) && t.held[w]&(1<<(h&63)) != 0
}

// handles yields the held handles in ascending order.
func (t *Tree) handles(yield func(uint32) bool) {
	for i, w := range t.held {
		for ; w != 0; w &= w - 1 {
			if !yield(uint32(i<<6 | bits.TrailingZeros64(w))) {
				return
			}
		}
	}
}

// grow returns s extended with zeros so that index i is in range.
func grow[T any](s []T, i uint32) []T {
	if int(i) < len(s) {
		return s
	}
	return append(s, make([]T, int(i)+1-len(s))...)
}

// kids yields the children the tree holds under held handle p: p's
// shared child list, ascending by ID, filtered by the bitset, then p's
// twins.
func (t *Tree) kids(p uint32) func(yield func(uint32) bool) {
	return func(yield func(uint32) bool) {
		for k := t.idx.entry(p).firstKid.Load(); k != 0; k = t.idx.entry(k).nextSib.Load() {
			if t.has(k) && (t.twins == nil || !t.isTwin(k)) && !yield(k) {
				return
			}
		}
		if t.twins != nil {
			for _, k := range t.twins[p] {
				if !yield(k) {
					return
				}
			}
		}
	}
}

// isTwin reports whether the tree holds handle k under another parent
// than the index entry's.
func (t *Tree) isTwin(k uint32) bool {
	c, ok := t.copies[k]
	return ok && c.parent != t.idx.entry(k).parent.Load()
}

// nkids returns the number of children the tree holds under handle p.
func (t *Tree) nkids(p uint32) int {
	n := 0
	for range t.kids(p) {
		n++
	}
	return n
}

// ref returns the block of a handle the tree holds and its parent's
// handle (noHandle at genesis): the index entry's, or the tree's own copy
// where it attached another.
func (t *Tree) ref(h uint32) (*Block, uint32) {
	if t.copies != nil {
		if c, ok := t.copies[h]; ok {
			return c.b, c.parent
		}
	}
	e := t.idx.entry(h)
	return e.b, e.parent.Load()
}

// block returns the block of a handle the tree holds.
func (t *Tree) block(h uint32) *Block {
	b, _ := t.ref(h)
	return b
}

// find returns the handle of the block with the given ID, noHandle when
// the tree does not hold it.
func (t *Tree) find(id BlockID) uint32 {
	if t.idx == nil {
		return noHandle // zero-value tree
	}
	if h := t.idx.handle(id); t.has(h) {
		return h
	}
	return noHandle
}

// NewTree returns a BlockTree containing only the genesis block b0, on
// a private index.
func NewTree() *Tree { return NewTreeOn(NewIndex()) }

// NewTreeOn returns a BlockTree containing only the genesis block, naming
// its blocks by the handles of idx: the replicas of one run share the
// run's index.
func NewTreeOn(idx *Index) *Tree {
	return &Tree{idx: idx, held: []uint64{1}, n: 1, tallest: idx.genesis}
}

// Root returns the genesis block (nil on a zero-value tree).
func (t *Tree) Root() *Block {
	if t.has(0) {
		return t.idx.genesis
	}
	return nil
}

// Len returns the number of blocks in the tree, genesis included.
func (t *Tree) Len() int { return t.n }

// Block returns the block with the given ID, or nil if absent.
func (t *Tree) Block(id BlockID) *Block {
	if h := t.find(id); h != noHandle {
		return t.block(h)
	}
	return nil
}

// Has reports whether the tree contains a block with the given ID.
func (t *Tree) Has(id BlockID) bool { return t.find(id) != noHandle }

// Resolve looks b up in the tree's index, once: the replica's
// delivery path resolves a block on receipt and then asks Holds,
// HoldsParent and AttachResolved by handle. b must not be nil.
func (t *Tree) Resolve(b *Block) Ref { return t.idx.resolve(b) }

// Holds reports whether the tree contains a block with r's ID.
func (t *Tree) Holds(r Ref) bool { return t.has(r.h) }

// HoldsParent reports whether the tree contains the parent r's block
// names.
func (t *Tree) HoldsParent(r Ref) bool { return t.has(r.parent) }

// Attach inserts block b under its parent. It returns an error if the
// parent is unknown, the height is inconsistent, or a different block
// with the same ID is already present — Parent, Height and Payload must
// all match the attached copy. Attaching an identical block twice is
// idempotent (duplicate delivery in the network simulator).
func (t *Tree) Attach(b *Block) error {
	if b == nil {
		return fmt.Errorf("core: attach nil block")
	}
	if t.idx == nil {
		return fmt.Errorf("core: attach to a zero-value tree")
	}
	return t.AttachResolved(t.Resolve(b))
}

// AttachResolved is Attach for a block already resolved against the
// tree's index. The block is interned only here, once every check has
// passed (Index invariant (i)).
func (t *Tree) AttachResolved(r Ref) error {
	b := r.b
	if b.IsGenesis() {
		return nil // genesis is always present
	}
	if t.has(r.h) {
		existing := t.block(r.h)
		if existing.Parent != b.Parent || existing.Height != b.Height || !bytes.Equal(existing.Payload, b.Payload) {
			return fmt.Errorf("core: conflicting block %s already attached", b.ID.Short())
		}
		return nil
	}
	if !t.has(r.parent) {
		return fmt.Errorf("core: parent %s of %s not in tree", b.Parent.Short(), b.ID.Short())
	}
	if ph := t.block(r.parent).Height; b.Height != ph+1 {
		return fmt.Errorf("core: block %s height %d, want %d", b.ID.Short(), b.Height, ph+1)
	}
	if r.h == noHandle {
		r.h = t.idx.intern(b)
	}
	if e := t.idx.entry(r.h); e.b != b { // a copy under the same pointer names the same parent
		if t.copies == nil {
			t.copies = make(map[uint32]copyRef)
		}
		t.copies[r.h] = copyRef{b: b, parent: r.parent}
		if r.parent != e.parent.Load() {
			if t.twins == nil {
				t.twins = make(map[uint32][]uint32)
			}
			t.twins[r.parent] = append(t.twins[r.parent], r.h)
		}
	}
	t.held = grow(t.held, r.h>>6)
	t.held[r.h>>6] |= 1 << (r.h & 63)
	t.n++
	// Without twins the tree holds at most the parent's listed kids, so
	// a count no larger than maxFork cannot raise it: no walk.
	if t.twins != nil || int(t.idx.entry(r.parent).kids.Load()) > t.maxFork {
		if k := t.nkids(r.parent); k > t.maxFork {
			t.maxFork = k
		}
	}
	if b.Height > t.tallest.Height || (b.Height == t.tallest.Height && b.ID > t.tallest.ID) {
		t.tallest = b
	}
	if t.weights != nil {
		t.weights = grow(t.weights, r.h)
		t.weights[r.h] = 1
		for h := r.parent; h != noHandle; _, h = t.ref(h) {
			t.weights[h]++
		}
	}
	return nil
}

// Children returns the IDs of the blocks chaining to id, in lexicographic
// order (deterministic), in a slice built for the call.
func (t *Tree) Children(id BlockID) []BlockID {
	h := t.find(id)
	if h == noHandle {
		return nil
	}
	var out []BlockID
	for k := range t.kids(h) {
		out = append(out, t.block(k).ID)
	}
	if len(t.twins[h]) > 0 {
		slices.Sort(out)
	}
	return out
}

// MaxForkDegree returns the largest number of branches from any single
// block in the tree; 1 (or 0 for a bare genesis) means the tree is a
// chain. Used to verify k-Fork Coherence empirically. O(1).
func (t *Tree) MaxForkDegree() int { return t.maxFork }

// subtreeWeight returns the number of blocks in the subtree rooted at id
// (the block itself included), 0 for an absent block: the weight the
// GHOST selector compares, since every block weighs one.
func (t *Tree) subtreeWeight(id BlockID) int {
	if h := t.find(id); h != noHandle && t.fillWeights() {
		return t.weights[h]
	}
	return 0
}

// fillWeights fills the weight table on the first weight query and
// reports whether there is one (not on a zero-value tree): the held
// blocks listed parents first, breadth-first from genesis, then each
// count folded into its parent's from the last block back.
func (t *Tree) fillWeights() bool {
	if t.weights != nil {
		return true
	}
	if !t.has(0) {
		return false
	}
	t.weights = make([]int, 64*len(t.held))
	order := make([]uint32, 1, t.n)
	for i := 0; i < len(order); i++ {
		for k := range t.kids(order[i]) {
			order = append(order, k)
		}
	}
	for _, h := range slices.Backward(order) {
		t.weights[h]++
		if _, parent := t.ref(h); parent != noHandle {
			t.weights[parent] += t.weights[h]
		}
	}
	return true
}

// Leaves returns the IDs of all leaves, in lexicographic order: a scan of
// the held blocks, O(n + #leaves log #leaves).
func (t *Tree) Leaves() []BlockID {
	var out []BlockID
	for h := range t.handles {
		if t.nkids(h) == 0 {
			out = append(out, t.block(h).ID)
		}
	}
	slices.Sort(out)
	return out
}

// ChainTo returns the blockchain {b0}⌢...⌢{b_id}, or nil if id is not in
// the tree. This is the path from the leaf back to the root along parent
// handles, reversed to root-first order.
func (t *Tree) ChainTo(id BlockID) Chain {
	h := t.find(id)
	if h == noHandle {
		return nil
	}
	b, parent := t.ref(h)
	out := make(Chain, b.Height+1)
	for i := len(out) - 1; i > 0; i-- {
		out[i] = b
		b, parent = t.ref(parent)
	}
	out[0] = b
	return out
}

// Height returns the maximum block height present in the tree, O(1).
func (t *Tree) Height() int {
	if t.tallest == nil {
		return 0 // zero-value tree
	}
	return t.tallest.Height
}

// Blocks returns every block in the tree in (height, ID) order.
// The genesis block comes first.
func (t *Tree) Blocks() []*Block {
	out := make([]*Block, 0, t.n)
	for h := range t.handles {
		out = append(out, t.block(h))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Height != out[j].Height {
			return out[i].Height < out[j].Height
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Clone returns a deep copy of the tree: its held set, side tables and
// weight table (if filled) (block pointers and the index are shared;
// blocks are immutable, the index only grows).
func (t *Tree) Clone() *Tree {
	nt := *t
	nt.held = slices.Clone(t.held)
	nt.copies = maps.Clone(t.copies)
	if t.twins != nil {
		nt.twins = make(map[uint32][]uint32, len(t.twins))
		for p, tw := range t.twins {
			nt.twins[p] = slices.Clone(tw)
		}
	}
	nt.weights = slices.Clone(t.weights)
	return &nt
}

// String summarizes the tree, e.g. "tree(7 blocks, height 4, maxfork 2)".
func (t *Tree) String() string {
	return fmt.Sprintf("tree(%d blocks, height %d, maxfork %d)", t.Len(), t.Height(), t.MaxForkDegree())
}

package core

import (
	"bytes"
	"fmt"
	"maps"
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
// Tree names its blocks by the handles of an Index — the run's shared
// one (NewTreeOn) or, for a lone tree, a private one (NewTree) — and
// keeps its nodes inline in handle-indexed pages, allocated as handles
// are first used and never regrown, so node addresses stay valid and a
// tree holding few of a large run's blocks stays small. A node is 12
// bytes and holds no pointer: first child and next sibling are handles,
// and a held block's pointer and parent handle are read from the index
// entry without its lock (Index invariant (iv)), not repeated per tree.
// Where the copy a tree attached is not the entry's block under the
// entry's parent — a same-ID twin naming another parent (invariant
// (ii)), a WithToken copy, a tcp frame decoded before the
// block was first interned — the tree keeps its copy in a side table,
// nil on every simulated run. Pointer identity decides, not equal
// fields: Token is outside the ID and k-Fork Coherence groups by it.
// Attach resolves the block's ID once (Resolve: one read-locked lookup
// in the index, warm across the replicas of a run), writes one page
// slot and allocates nothing else; what it maintains there lets the
// selection function f (internal/core/select.go) never rescan the tree:
//
//   - firstKid/nextSib: a block's children as an intrusive list in
//     ascending ID order (deterministic whatever the arrival order, so
//     tie-breaking selectors are reproducible);
//   - leaves: the current leaf set, a slice of handles. A first child
//     takes over its parent's slot, any later child is appended, so the
//     set is maintained without hashing and a chain-shaped tree keeps one
//     slot;
//   - tallest: the block maximal by (height, ID) — the head LongestChain
//     and SingleChain select, read in O(1);
//   - maxFork: the largest sibling count, so MaxForkDegree is O(1);
//   - weights: per block, the number of blocks in its subtree, its own
//     included (every block weighs one). It is a second handle-paged
//     table beside the nodes, nil until the first weight query
//     (SubtreeWeight, GHOST), which fills it in one depth-first pass;
//     Attach then maintains it (O(depth) along parent handles). Trees
//     under LongestChain and SingleChain never allocate or update it.
//
// With them, LongestChain/SingleChain pick their head in O(1) and each
// selector materializes only the winning chain, following parent
// handles.
//
// No iteration order is kept, and handle order differs between live
// runs (Index invariant (iii)): Blocks scans the pages and sorts by
// (height, ID), Clone copies pages, the lazy GHOST pass walks the child
// lists depth-first — each the same result in any visiting order.
//
// Tree is not safe for concurrent use; each simulated process owns its
// replica (internal/replica), and shared-memory experiments wrap it.
// Trees sharing an Index may be used from different goroutines.
type Tree struct {
	idx *Index
	// pages hold the nodes by handle; a slot whose leaf is 0 is a block
	// the tree does not hold. n counts the held ones.
	pages []*[pageSize]node
	n     int
	// copies holds, by handle, the block and parent this tree attached
	// where they are not the index entry's; nil until one is.
	copies map[uint32]copyRef
	// leaves is the maintained leaf set: the handles of the nodes with no
	// children, each recording its index here, plus one, in node.leaf.
	leaves []uint32
	// weights pages the subtree counts by handle, beside pages: nil
	// until the first weight query, maintained by Attach from then on.
	weights []*[pageSize]int
	// tallest is the block maximal by (height, ID). A child is higher
	// than its parent, so tallest is always a leaf: the head LongestChain
	// selects.
	tallest *Block
	// maxFork caches the largest number of children of any block.
	maxFork int
}

// node is one block's entry in the tree: a slot of a page. The zero
// value is "not held". Handle 0 is genesis, which is nobody's child, so 0
// ends the child lists; the block and its parent handle are the index
// entry's (Tree.ref).
type node struct {
	// firstKid heads the node's children, nextSib continues the list the
	// node itself is on; both lists ascend by ID.
	firstKid, nextSib uint32
	// leaf is one more than the node's index in Tree.leaves while it has
	// no children and minus their number once it has some, so 0 is "not
	// held" (one field: 12 bytes).
	leaf int32
}

// copyRef is a block and its parent handle as a tree attached them.
type copyRef struct {
	b      *Block
	parent uint32
}

// nkids returns the number of the node's children (0 for a nil node).
func (n *node) nkids() int {
	if n == nil || n.leaf >= 0 {
		return 0
	}
	return int(-n.leaf)
}

// A page holds 64 nodes (768 B) and is the least a tree costs: 64 was
// chosen, with 24-byte nodes, as the largest power of two at which a
// genesis-only NewTree() allocated no more than with 256 node pointers
// beside a 16-node slab (TestGenesisTreeStaysSmall) — the ADT machines
// clone a small tree on every append. A 5 000-block replica holds 79
// pages, and 79 weight pages (512 B each) once a weight query has been
// asked.
const (
	pageBits = 6
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// at returns the node of handle h, nil when the tree does not hold it
// (noHandle lies beyond any page).
func (t *Tree) at(h uint32) *node {
	if p := int(h >> pageBits); p < len(t.pages) && t.pages[p] != nil {
		if n := &t.pages[p][h&pageMask]; n.leaf != 0 {
			return n
		}
	}
	return nil
}

// held returns the node of a handle taken from a parent, child, sibling or
// leaf link — one the tree is known to hold.
func (t *Tree) held(h uint32) *node { return &t.pages[h>>pageBits][h&pageMask] }

// slot returns the slot of handle h in a paged table — the nodes or the
// weights — allocating its page on first use.
func slot[T any](pages *[]*[pageSize]T, h uint32) *T {
	p := int(h >> pageBits)
	for p >= len(*pages) {
		*pages = append(*pages, nil)
	}
	if (*pages)[p] == nil {
		(*pages)[p] = new([pageSize]T)
	}
	return &(*pages)[p][h&pageMask]
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

// wt returns the subtree count of a handle the tree holds; the weight
// table must be filled.
func (t *Tree) wt(h uint32) *int { return &t.weights[h>>pageBits][h&pageMask] }

// find returns the handle of the block with the given ID, noHandle when
// the tree does not hold it.
func (t *Tree) find(id BlockID) uint32 {
	if t.idx == nil {
		return noHandle // zero-value tree
	}
	if h := t.idx.handle(id); t.at(h) != nil {
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
	t := &Tree{idx: idx, n: 1, leaves: []uint32{0}, tallest: idx.genesis}
	*slot(&t.pages, 0) = node{leaf: 1}
	return t
}

// Root returns the genesis block (nil on a zero-value tree).
func (t *Tree) Root() *Block {
	if t.at(0) != nil {
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

// Resolve looks b's ID up in the tree's index, once: the replica's
// delivery path resolves a block on receipt and then asks Holds,
// HoldsParent and AttachResolved by handle. b must not be nil.
func (t *Tree) Resolve(b *Block) Ref { return t.idx.resolve(b) }

// Holds reports whether the tree contains a block with r's ID.
func (t *Tree) Holds(r Ref) bool { return t.at(r.h) != nil }

// HoldsParent reports whether the tree contains the parent r's block
// names.
func (t *Tree) HoldsParent(r Ref) bool { return t.at(r.parent) != nil }

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
	if t.at(r.h) != nil {
		existing := t.block(r.h)
		if existing.Parent != b.Parent || existing.Height != b.Height || !bytes.Equal(existing.Payload, b.Payload) {
			return fmt.Errorf("core: conflicting block %s already attached", b.ID.Short())
		}
		return nil
	}
	parent := t.at(r.parent)
	if parent == nil {
		return fmt.Errorf("core: parent %s of %s not in tree", b.Parent.Short(), b.ID.Short())
	}
	if ph := t.block(r.parent).Height; b.Height != ph+1 {
		return fmt.Errorf("core: block %s height %d, want %d", b.ID.Short(), b.Height, ph+1)
	}
	if r.h == noHandle {
		r.h = t.idx.intern(b)
	}
	if t.idx.entry(r.h).b != b { // a copy under the same pointer names the same parent
		if t.copies == nil {
			t.copies = make(map[uint32]copyRef)
		}
		t.copies[r.h] = copyRef{b: b, parent: r.parent}
	}
	n := slot(&t.pages, r.h) // may add a page; parent stays valid, pages never move
	t.n++
	// Link in ahead of the first sibling with a larger ID (sibling lists
	// are short).
	link := &parent.firstKid
	for *link != 0 && t.block(*link).ID < b.ID {
		link = &t.held(*link).nextSib
	}
	n.nextSib, *link = *link, r.h
	if parent.leaf > 0 {
		// A first child takes over the leaf slot its parent gives up.
		n.leaf, parent.leaf = parent.leaf, -1
		t.leaves[n.leaf-1] = r.h
	} else {
		parent.leaf--
		t.leaves = append(t.leaves, r.h)
		n.leaf = int32(len(t.leaves))
	}
	if k := parent.nkids(); k > t.maxFork {
		t.maxFork = k
	}
	if b.Height > t.tallest.Height || (b.Height == t.tallest.Height && b.ID > t.tallest.ID) {
		t.tallest = b
	}
	if t.weights != nil {
		*slot(&t.weights, r.h) = 1
		for h := r.parent; h != noHandle; _, h = t.ref(h) {
			*t.wt(h)++
		}
	}
	return nil
}

// Children returns the IDs of the blocks chaining to id, in lexicographic
// order (deterministic), in a slice built for the call.
func (t *Tree) Children(id BlockID) []BlockID {
	var out []BlockID
	if n := t.at(t.find(id)); n != nil {
		for h := n.firstKid; h != 0; h = t.held(h).nextSib {
			out = append(out, t.block(h).ID)
		}
	}
	return out
}

// ForkCount returns the number of children of id — the number of branches
// (forks) rooted at that block, the quantity bounded by the frugal oracle.
func (t *Tree) ForkCount(id BlockID) int { return t.at(t.find(id)).nkids() }

// MaxForkDegree returns the largest number of branches from any single
// block in the tree; 1 (or 0 for a bare genesis) means the tree is a
// chain. Used to verify k-Fork Coherence empirically. O(1).
func (t *Tree) MaxForkDegree() int { return t.maxFork }

// SubtreeWeight returns the number of blocks in the subtree rooted at id
// (the block itself included), 0 for an absent block: the weight the
// GHOST selector compares, since every block weighs one.
func (t *Tree) SubtreeWeight(id BlockID) int {
	if h := t.find(id); h != noHandle && t.fillWeights() {
		return *t.wt(h)
	}
	return 0
}

// fillWeights fills the weight table on the first weight query and
// reports whether there is one (not on a zero-value tree). The pass is
// depth-first without a stack (chains are deep): down along first
// children to a leaf, then across to the next sibling or, after the
// last, up to the parent — whose children are then all folded into its
// subtree count.
func (t *Tree) fillWeights() bool {
	if t.weights != nil {
		return true
	}
	if t.at(0) == nil {
		return false
	}
	t.weights = make([]*[pageSize]int, len(t.pages))
	for i, pg := range t.pages {
		if pg != nil {
			t.weights[i] = new([pageSize]int)
		}
	}
	h := uint32(0)
	for {
		for k := t.held(h).firstKid; k != 0; k = t.held(h).firstKid {
			h = k
		}
		for {
			_, parent := t.ref(h)
			w := t.wt(h)
			*w++
			if parent == noHandle {
				return true
			}
			*t.wt(parent) += *w
			if s := t.held(h).nextSib; s != 0 {
				h = s
				break
			}
			h = parent
		}
	}
}

// LeafCount returns the number of leaves without allocating.
func (t *Tree) LeafCount() int { return len(t.leaves) }

// Leaves returns the IDs of all leaves, in lexicographic order. The cost
// is O(#leaves log #leaves), independent of the tree size.
func (t *Tree) Leaves() []BlockID {
	out := make([]BlockID, len(t.leaves))
	for i, h := range t.leaves {
		out[i] = t.block(h).ID
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
	for p, pg := range t.pages {
		if pg == nil {
			continue
		}
		for i := range pg {
			if pg[i].leaf != 0 {
				out = append(out, t.block(uint32(p<<pageBits|i)))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Height != out[j].Height {
			return out[i].Height < out[j].Height
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Clone returns a deep copy of the tree structure, indices, side table
// and weight table (if filled) included (block pointers are shared;
// blocks are immutable): nodes link by handle, so copying the pages
// copies the tree.
func (t *Tree) Clone() *Tree {
	nt := *t
	nt.pages = copyPages(t.pages)
	nt.copies = maps.Clone(t.copies)
	nt.weights = copyPages(t.weights)
	nt.leaves = append([]uint32(nil), t.leaves...)
	return &nt
}

// copyPages copies a paged table page by page; nil stays nil.
func copyPages[T any](pages []*[pageSize]T) []*[pageSize]T {
	if pages == nil {
		return nil
	}
	out := make([]*[pageSize]T, len(pages))
	for i, pg := range pages {
		if pg != nil {
			cp := *pg
			out[i] = &cp
		}
	}
	return out
}

// String summarizes the tree, e.g. "tree(7 blocks, height 4, maxfork 2)".
func (t *Tree) String() string {
	return fmt.Sprintf("tree(%d blocks, height %d, maxfork %d)", t.Len(), t.Height(), t.MaxForkDegree())
}

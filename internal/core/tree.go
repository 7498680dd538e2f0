package core

import (
	"bytes"
	"fmt"
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
// keeps its membership as handle-indexed pages of node pointers: pages
// are allocated as handles are first used and never regrown, so a tree
// holding few of a large run's blocks stays small. A node holds the
// block, a pointer to its parent's node, its sorted child IDs, the
// cumulative chain weight, the GHOST subtree weight and — for a leaf —
// its slot in the leaves slice. Attach resolves the block's ID once
// (Resolve: one read-locked lookup in the index, shared and therefore
// warm across the replicas of a run) and does the rest by slice index;
// everything else it maintains is reached through node pointers, so the
// selection function f (internal/core/select.go) never rescans the
// tree:
//
//   - leaves: the current leaf set, a slice. A first child takes over
//     its parent's slot, any later child is appended, so the set is
//     maintained without hashing and a chain-shaped tree keeps one slot;
//   - node.chainWeight: the cumulative weight of the root-to-block chain
//     excluding genesis (chainWeight(b) = chainWeight(parent) + b.Weight,
//     so at a leaf it is WeightScore of ChainTo(leaf));
//   - tallest: the block maximal by (height, ID) — the head LongestChain
//     and SingleChain select, read in O(1);
//   - maxFork: the largest sibling count, so MaxForkDegree is O(1);
//   - node.subtreeWeight, for GHOST: filled lazily in one bottom-up pass
//     on the first query and then maintained incrementally (O(depth)
//     along parent pointers per Attach), so attach-heavy runs under the
//     other selectors never pay for it.
//
// With them, LongestChain/SingleChain pick their head in O(1),
// HeaviestChain in O(#leaves), and each materializes only the winning
// chain, following parent pointers. Nodes are carved from fixed-capacity
// slabs that are never regrown (node pointers stay valid), in attach
// order — parents before children — which is also the order Clone and
// the lazy GHOST pass iterate in.
//
// Tree is not safe for concurrent use; each simulated process owns its
// replica (internal/replica), and shared-memory experiments wrap it.
// Trees sharing an Index may be used from different goroutines.
type Tree struct {
	idx *Index
	// pages[h>>pageBits][h&pageMask] is the node of handle h, nil when
	// the tree does not hold that block; n counts the nodes.
	pages []*[pageSize]*node
	n     int
	root  *node
	// slabs are the node chunks in allocation order; the last one is
	// being filled.
	slabs [][]node
	// leaves is the maintained leaf set: nodes with no children, each
	// recording its index here in node.leaf.
	leaves []*node
	// ghostActive records whether node.subtreeWeight is being maintained.
	ghostActive bool
	// tallest is the block maximal by (height, ID). A child is higher
	// than its parent, so tallest is always a leaf: the head LongestChain
	// selects.
	tallest *Block
	// maxFork caches the largest number of children of any block.
	maxFork int
}

// node is one block's entry in the tree index.
type node struct {
	b      *Block
	parent *node // nil at genesis
	// kids are the child IDs in lexicographic order. A single child —
	// the common, chain-shaped case — lives in kid0, so only a fork
	// allocates a sibling list.
	kids []BlockID
	kid0 [1]BlockID
	// chainWeight is the cumulative weight of the chain from genesis to
	// the block, genesis excluded (matching WeightScore).
	chainWeight int
	// subtreeWeight is the total weight of the subtree rooted here; valid
	// only while Tree.ghostActive.
	subtreeWeight int
	// leaf is the node's index in Tree.leaves, -1 once it has a child.
	leaf int32
	// h is the block's handle in Tree.idx.
	h uint32
}

// Membership pages hold pageSize handles each (2 KB of pointers).
const (
	pageBits = 8
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// at returns the node of handle h, nil when the tree does not hold it
// (noHandle lies beyond any page).
func (t *Tree) at(h uint32) *node {
	if p := int(h >> pageBits); p < len(t.pages) && t.pages[p] != nil {
		return t.pages[p][h&pageMask]
	}
	return nil
}

// set records n as the node of handle n.h.
func (t *Tree) set(n *node) {
	p := int(n.h >> pageBits)
	for p >= len(t.pages) {
		t.pages = append(t.pages, nil)
	}
	if t.pages[p] == nil {
		t.pages[p] = new([pageSize]*node)
	}
	t.pages[p][n.h&pageMask] = n
	t.n++
}

// node returns the node of the block with the given ID.
func (t *Tree) node(id BlockID) *node {
	if t.idx == nil {
		return nil // zero-value tree
	}
	return t.at(t.idx.handle(id))
}

// Node slab capacities: chunks double from nodeSlabMin to nodeSlabMax, so
// a small tree stays small and a large one allocates once per
// nodeSlabMax blocks.
const (
	nodeSlabMin = 16
	nodeSlabMax = 1024
)

// newNode carves a zero node from the current slab, starting the next
// (doubled) one when it is full.
func (t *Tree) newNode() *node {
	last := len(t.slabs) - 1
	if last < 0 || len(t.slabs[last]) == cap(t.slabs[last]) {
		n := nodeSlabMin
		if last >= 0 {
			n = min(2*cap(t.slabs[last]), nodeSlabMax)
		}
		t.slabs = append(t.slabs, make([]node, 0, n))
		last++
	}
	s := append(t.slabs[last], node{})
	t.slabs[last] = s
	return &s[len(s)-1]
}

// NewTree returns a BlockTree containing only the genesis block b0, on
// a private index.
func NewTree() *Tree { return NewTreeOn(NewIndex()) }

// NewTreeOn returns a BlockTree containing only the genesis block, naming
// its blocks by the handles of idx: the replicas of one run share the
// run's index.
func NewTreeOn(idx *Index) *Tree {
	t := &Tree{idx: idx, tallest: idx.genesis}
	t.root = t.newNode()
	t.root.b = idx.genesis
	t.set(t.root)
	t.leaves = []*node{t.root}
	return t
}

// Root returns the genesis block (nil on a zero-value tree).
func (t *Tree) Root() *Block {
	if t.root == nil {
		return nil
	}
	return t.root.b
}

// Len returns the number of blocks in the tree, genesis included.
func (t *Tree) Len() int { return t.n }

// Block returns the block with the given ID, or nil if absent.
func (t *Tree) Block(id BlockID) *Block {
	if n := t.node(id); n != nil {
		return n.b
	}
	return nil
}

// Has reports whether the tree contains a block with the given ID.
func (t *Tree) Has(id BlockID) bool { return t.node(id) != nil }

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
// with the same ID is already present — Parent, Height, Weight and
// Payload must all match the attached copy, so a re-weighted twin
// (Block.WithWeight keeps the ID) cannot silently corrupt the weight
// caches. Attaching an identical block twice is idempotent (duplicate
// delivery in the network simulator).
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
	if n := t.at(r.h); n != nil {
		existing := n.b
		if existing.Parent != b.Parent || existing.Height != b.Height ||
			existing.Weight != b.Weight || !bytes.Equal(existing.Payload, b.Payload) {
			return fmt.Errorf("core: conflicting block %s already attached", b.ID.Short())
		}
		return nil
	}
	parent := t.at(r.parent)
	if parent == nil {
		return fmt.Errorf("core: parent %s of %s not in tree", b.Parent.Short(), b.ID.Short())
	}
	if b.Height != parent.b.Height+1 {
		return fmt.Errorf("core: block %s height %d, want %d", b.ID.Short(), b.Height, parent.b.Height+1)
	}
	if r.h == noHandle {
		r.h = t.idx.intern(b)
	}
	n := t.newNode()
	n.b, n.parent, n.h = b, parent, r.h
	n.chainWeight = parent.chainWeight + b.Weight
	t.set(n)
	if len(parent.kids) == 0 {
		// First child: stored inline, and it takes over the leaf slot
		// its parent gives up.
		parent.kid0[0] = b.ID
		parent.kids = parent.kid0[:]
		n.leaf, parent.leaf = parent.leaf, -1
		t.leaves[n.leaf] = n
	} else {
		// Keep sibling order deterministic regardless of arrival order
		// so that tie-breaking selectors are reproducible: insert in
		// place (sibling lists are short; no per-attach sort or closure).
		kids := append(parent.kids, b.ID)
		for i := len(kids) - 1; i > 0 && kids[i-1] > b.ID; i-- {
			kids[i], kids[i-1] = kids[i-1], kids[i]
		}
		parent.kids = kids
		n.leaf = int32(len(t.leaves))
		t.leaves = append(t.leaves, n)
	}
	if len(parent.kids) > t.maxFork {
		t.maxFork = len(parent.kids)
	}
	if b.Height > t.tallest.Height || (b.Height == t.tallest.Height && b.ID > t.tallest.ID) {
		t.tallest = b
	}
	if t.ghostActive {
		n.subtreeWeight = b.Weight
		for p := parent; p != nil; p = p.parent {
			p.subtreeWeight += b.Weight
		}
	}
	return nil
}

// Children returns the IDs of the blocks chaining to id, in lexicographic
// order (deterministic). The returned slice must not be modified.
func (t *Tree) Children(id BlockID) []BlockID {
	if n := t.node(id); n != nil {
		return n.kids
	}
	return nil
}

// ForkCount returns the number of children of id — the number of branches
// (forks) rooted at that block, the quantity bounded by the frugal oracle.
func (t *Tree) ForkCount(id BlockID) int { return len(t.Children(id)) }

// MaxForkDegree returns the largest number of branches from any single
// block in the tree; 1 (or 0 for a bare genesis) means the tree is a
// chain. Used to verify k-Fork Coherence empirically. O(1).
func (t *Tree) MaxForkDegree() int { return t.maxFork }

// SubtreeWeight returns the total weight of the subtree rooted at id
// (the block's own weight included). Used by the GHOST selector. The
// first query fills the whole index in one O(n) bottom-up pass and
// activates incremental maintenance.
func (t *Tree) SubtreeWeight(id BlockID) int {
	if !t.ghostActive {
		t.buildSubtreeWeights()
	}
	if n := t.node(id); n != nil {
		return n.subtreeWeight
	}
	return 0
}

// buildSubtreeWeights computes every subtree weight bottom-up: slabs hold
// the nodes in attach order, parents before children, so the reverse
// walk folds each finished subtree into its parent.
func (t *Tree) buildSubtreeWeights() {
	for i := len(t.slabs) - 1; i >= 0; i-- {
		for j := len(t.slabs[i]) - 1; j >= 0; j-- {
			n := &t.slabs[i][j]
			n.subtreeWeight += n.b.Weight
			if n.parent != nil {
				n.parent.subtreeWeight += n.subtreeWeight
			}
		}
	}
	t.ghostActive = true
}

// ChainWeight returns the cumulative weight of the chain from genesis to
// id, genesis excluded — exactly WeightScore{}.Of(t.ChainTo(id)) without
// materializing the chain. Returns 0 for genesis or an absent block.
func (t *Tree) ChainWeight(id BlockID) int {
	if n := t.node(id); n != nil {
		return n.chainWeight
	}
	return 0
}

// LeafCount returns the number of leaves without allocating.
func (t *Tree) LeafCount() int { return len(t.leaves) }

// Leaves returns the IDs of all leaves, in lexicographic order. The cost
// is O(#leaves log #leaves), independent of the tree size.
func (t *Tree) Leaves() []BlockID {
	out := make([]BlockID, len(t.leaves))
	for i, n := range t.leaves {
		out[i] = n.b.ID
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ChainTo returns the blockchain {b0}⌢...⌢{b_id}, or nil if id is not in
// the tree. This is the path from the leaf back to the root along parent
// pointers, reversed to root-first order.
func (t *Tree) ChainTo(id BlockID) Chain {
	n := t.node(id)
	if n == nil {
		return nil
	}
	out := make(Chain, n.b.Height+1)
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = n.b
		n = n.parent
	}
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
	for _, slab := range t.slabs {
		for i := range slab {
			out = append(out, slab[i].b)
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

// Clone returns a deep copy of the tree structure, indices included
// (block pointers are shared; blocks are immutable). The copy's nodes
// sit in one exact-size slab and point only at each other.
func (t *Tree) Clone() *Tree {
	nt := &Tree{
		idx:         t.idx,
		pages:       make([]*[pageSize]*node, 0, len(t.pages)),
		slabs:       [][]node{make([]node, 0, t.n)},
		leaves:      make([]*node, len(t.leaves)),
		ghostActive: t.ghostActive,
		tallest:     t.tallest,
		maxFork:     t.maxFork,
	}
	for _, slab := range t.slabs {
		for i := range slab {
			n := nt.newNode()
			*n = slab[i]
			// Attach order puts a parent before its children, so the
			// parent's copy is already indexed.
			if n.parent != nil {
				n.parent = nt.at(n.parent.h)
			}
			if len(n.kids) == 1 {
				n.kids = n.kid0[:]
			} else if len(n.kids) > 1 {
				n.kids = append([]BlockID(nil), n.kids...)
			}
			if n.leaf >= 0 {
				nt.leaves[n.leaf] = n
			}
			nt.set(n)
		}
	}
	nt.root = nt.at(0)
	return nt
}

// String summarizes the tree, e.g. "tree(7 blocks, height 4, maxfork 2)".
func (t *Tree) String() string {
	return fmt.Sprintf("tree(%d blocks, height %d, maxfork %d)", t.Len(), t.Height(), t.MaxForkDegree())
}

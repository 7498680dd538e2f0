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
// Tree maintains incremental indices, each updated O(1) per Attach, so
// that the selection function f (internal/core/select.go) never rescans
// the tree:
//
//   - leaves: the current leaf set;
//   - chainWeight: per block, the cumulative weight of the root-to-block
//     chain excluding genesis (chainWeight[b] = chainWeight[parent] +
//     b.Weight, so chainWeight[leaf] = WeightScore of ChainTo(leaf));
//   - tallest: the block maximal by (height, ID) — the head LongestChain
//     and SingleChain select, read in O(1);
//   - maxFork: the largest sibling count, so MaxForkDegree is O(1);
//
// alongside the subtreeWeight cache for GHOST, which is built lazily on
// first query and then maintained incrementally (O(depth) per Attach),
// so attach-heavy runs under the other selectors never pay for it. With
// them, LongestChain/SingleChain pick their head in O(1), HeaviestChain
// in O(#leaves), and each materializes only the winning chain.
//
// Tree is not safe for concurrent use; each simulated process owns its
// replica (internal/replica), and shared-memory experiments wrap it.
type Tree struct {
	blocks   map[BlockID]*Block
	children map[BlockID][]BlockID
	root     *Block
	// subtreeWeight caches, per block, the total weight of the subtree
	// rooted there, for GHOST. It is maintained lazily: the map is
	// built in one bottom-up pass on the first SubtreeWeight query and
	// kept incremental (O(depth) back-propagation per Attach) from
	// then on, so selectors that never consult it — longest, heaviest,
	// single — pay nothing for it on the attach hot path.
	subtreeWeight map[BlockID]int
	// ghostActive records whether subtreeWeight is being maintained.
	ghostActive bool
	// leaves is the maintained leaf set: blocks with no children.
	leaves map[BlockID]struct{}
	// chainWeight caches, per block, the cumulative weight of the chain
	// from genesis to the block, genesis excluded (matching WeightScore).
	chainWeight map[BlockID]int
	// tallest is the block maximal by (height, ID). A child is higher
	// than its parent, so tallest is always a leaf: the head LongestChain
	// selects.
	tallest *Block
	// maxFork caches the largest number of children of any block.
	maxFork int
}

// NewTree returns a BlockTree containing only the genesis block b0.
func NewTree() *Tree {
	g := Genesis()
	t := &Tree{
		blocks:      map[BlockID]*Block{g.ID: g},
		children:    make(map[BlockID][]BlockID),
		root:        g,
		leaves:      map[BlockID]struct{}{g.ID: {}},
		chainWeight: map[BlockID]int{g.ID: 0},
		tallest:     g,
	}
	return t
}

// Root returns the genesis block.
func (t *Tree) Root() *Block { return t.root }

// Len returns the number of blocks in the tree, genesis included.
func (t *Tree) Len() int { return len(t.blocks) }

// Block returns the block with the given ID, or nil if absent.
func (t *Tree) Block(id BlockID) *Block { return t.blocks[id] }

// Has reports whether the tree contains a block with the given ID.
func (t *Tree) Has(id BlockID) bool { _, ok := t.blocks[id]; return ok }

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
	if b.IsGenesis() {
		return nil // genesis is always present
	}
	if existing, ok := t.blocks[b.ID]; ok {
		if existing.Parent != b.Parent || existing.Height != b.Height ||
			existing.Weight != b.Weight || !bytes.Equal(existing.Payload, b.Payload) {
			return fmt.Errorf("core: conflicting block %s already attached", b.ID.Short())
		}
		return nil
	}
	parent, ok := t.blocks[b.Parent]
	if !ok {
		return fmt.Errorf("core: parent %s of %s not in tree", b.Parent.Short(), b.ID.Short())
	}
	if b.Height != parent.Height+1 {
		return fmt.Errorf("core: block %s height %d, want %d", b.ID.Short(), b.Height, parent.Height+1)
	}
	t.blocks[b.ID] = b
	// Keep sibling order deterministic regardless of arrival order so
	// that tie-breaking selectors are reproducible: insert in place
	// (sibling lists are short; no per-attach sort or closure).
	kids := append(t.children[b.Parent], b.ID)
	for i := len(kids) - 1; i > 0 && kids[i-1] > b.ID; i-- {
		kids[i], kids[i-1] = kids[i-1], kids[i]
	}
	t.children[b.Parent] = kids
	if len(kids) > t.maxFork {
		t.maxFork = len(kids)
	}
	delete(t.leaves, b.Parent)
	t.leaves[b.ID] = struct{}{}
	if b.Height > t.tallest.Height || (b.Height == t.tallest.Height && b.ID > t.tallest.ID) {
		t.tallest = b
	}
	t.chainWeight[b.ID] = t.chainWeight[b.Parent] + b.Weight
	if t.ghostActive {
		t.subtreeWeight[b.ID] = b.Weight
		for p := b.Parent; p != ""; {
			t.subtreeWeight[p] += b.Weight
			pb := t.blocks[p]
			p = pb.Parent
		}
	}
	return nil
}

// Children returns the IDs of the blocks chaining to id, in lexicographic
// order (deterministic). The returned slice must not be modified.
func (t *Tree) Children(id BlockID) []BlockID { return t.children[id] }

// ForkCount returns the number of children of id — the number of branches
// (forks) rooted at that block, the quantity bounded by the frugal oracle.
func (t *Tree) ForkCount(id BlockID) int { return len(t.children[id]) }

// MaxForkDegree returns the largest number of branches from any single
// block in the tree; 1 (or 0 for a bare genesis) means the tree is a
// chain. Used to verify k-Fork Coherence empirically. O(1).
func (t *Tree) MaxForkDegree() int { return t.maxFork }

// SubtreeWeight returns the total weight of the subtree rooted at id
// (the block's own weight included). Used by the GHOST selector. The
// first query builds the whole index in one O(n log n) bottom-up pass
// and activates incremental maintenance.
func (t *Tree) SubtreeWeight(id BlockID) int {
	if !t.ghostActive {
		t.buildSubtreeWeights()
	}
	return t.subtreeWeight[id]
}

// buildSubtreeWeights computes every subtree weight bottom-up (blocks
// in descending height order fold into their parents).
func (t *Tree) buildSubtreeWeights() {
	t.subtreeWeight = make(map[BlockID]int, len(t.blocks))
	blocks := make([]*Block, 0, len(t.blocks))
	for _, b := range t.blocks {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Height > blocks[j].Height })
	for _, b := range blocks {
		t.subtreeWeight[b.ID] += b.Weight
		if !b.IsGenesis() {
			t.subtreeWeight[b.Parent] += t.subtreeWeight[b.ID]
		}
	}
	t.ghostActive = true
}

// ChainWeight returns the cumulative weight of the chain from genesis to
// id, genesis excluded — exactly WeightScore{}.Of(t.ChainTo(id)) without
// materializing the chain. Returns 0 for genesis or an absent block.
func (t *Tree) ChainWeight(id BlockID) int { return t.chainWeight[id] }

// LeafCount returns the number of leaves without allocating.
func (t *Tree) LeafCount() int { return len(t.leaves) }

// Leaves returns the IDs of all leaves, in lexicographic order. The cost
// is O(#leaves log #leaves), independent of the tree size.
func (t *Tree) Leaves() []BlockID {
	out := make([]BlockID, 0, len(t.leaves))
	for id := range t.leaves {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ChainTo returns the blockchain {b0}⌢...⌢{b_id}, or nil if id is not in
// the tree. This is the path from the leaf back to the root, reversed to
// root-first order.
func (t *Tree) ChainTo(id BlockID) Chain {
	b, ok := t.blocks[id]
	if !ok {
		return nil
	}
	depth := b.Height + 1
	out := make(Chain, depth)
	for i := depth - 1; i >= 0; i-- {
		out[i] = b
		b = t.blocks[b.Parent]
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
	out := make([]*Block, 0, len(t.blocks))
	for _, b := range t.blocks {
		out = append(out, b)
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
// (block pointers are shared; blocks are immutable).
func (t *Tree) Clone() *Tree {
	nt := &Tree{
		blocks:      make(map[BlockID]*Block, len(t.blocks)),
		children:    make(map[BlockID][]BlockID, len(t.children)),
		root:        t.root,
		leaves:      make(map[BlockID]struct{}, len(t.leaves)),
		chainWeight: make(map[BlockID]int, len(t.chainWeight)),
		ghostActive: t.ghostActive,
		tallest:     t.tallest,
		maxFork:     t.maxFork,
	}
	for id, b := range t.blocks {
		nt.blocks[id] = b
	}
	for id, ch := range t.children {
		cp := make([]BlockID, len(ch))
		copy(cp, ch)
		nt.children[id] = cp
	}
	if t.ghostActive {
		nt.subtreeWeight = make(map[BlockID]int, len(t.subtreeWeight))
		for id, w := range t.subtreeWeight {
			nt.subtreeWeight[id] = w
		}
	}
	for id := range t.leaves {
		nt.leaves[id] = struct{}{}
	}
	for id, w := range t.chainWeight {
		nt.chainWeight[id] = w
	}
	return nt
}

// String summarizes the tree, e.g. "tree(7 blocks, height 4, maxfork 2)".
func (t *Tree) String() string {
	return fmt.Sprintf("tree(%d blocks, height %d, maxfork %d)", t.Len(), t.Height(), t.MaxForkDegree())
}

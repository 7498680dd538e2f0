package core

import "sort"

// This file preserves the original full-rescan selector implementations
// exactly as they were before the incremental indices landed. They are
// unexported and exist only as differential-test oracles
// (select_diff_test.go): randomized trees assert that the indexed
// selectors in select.go return byte-identical chains. Do not "optimize"
// these — their value is being the slow, obviously-correct spec.

// eachNode visits every block the tree holds with its handle (bitset
// order).
func eachNode(t *Tree, visit func(h uint32, b *Block)) {
	for i, w := range t.held {
		for j := 0; j < 64; j++ {
			if w&(1<<j) != 0 {
				h := uint32(i*64 + j)
				visit(h, t.block(h))
			}
		}
	}
}

// scanChildren recomputes every block's children from the blocks' own
// Parent fields — none of the tree's links is read — in ascending ID
// order.
func scanChildren(t *Tree) map[BlockID][]BlockID {
	kids := map[BlockID][]BlockID{}
	eachNode(t, func(_ uint32, b *Block) {
		if !b.IsGenesis() {
			kids[b.Parent] = append(kids[b.Parent], b.ID)
		}
	})
	for _, ks := range kids {
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	}
	return kids
}

// scanLeaves recomputes the leaf set by scanning every block, the way
// Tree.Leaves worked before the maintained leaf set.
func scanLeaves(t *Tree) []BlockID {
	kids := scanChildren(t)
	var out []BlockID
	eachNode(t, func(_ uint32, b *Block) {
		if len(kids[b.ID]) == 0 {
			out = append(out, b.ID)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// scanHeight recomputes the maximum height by scanning every block, the
// way Tree.Height worked before the cached maxHeight.
func scanHeight(t *Tree) int {
	h := 0
	eachNode(t, func(_ uint32, b *Block) {
		if b.Height > h {
			h = b.Height
		}
	})
	return h
}

// scanMaxFork recomputes the largest sibling count by scanning every
// block's children, the way Tree.MaxForkDegree worked before the cached
// maxFork.
func scanMaxFork(t *Tree) int {
	max := 0
	for _, ks := range scanChildren(t) {
		if len(ks) > max {
			max = len(ks)
		}
	}
	return max
}

// legacySelectLongest is the original LongestChain.Select: rescan all
// leaves, compare heights.
func legacySelectLongest(t *Tree) Chain {
	var best BlockID
	bestH := -1
	for _, leaf := range scanLeaves(t) {
		b := t.Block(leaf)
		if b.Height > bestH || (b.Height == bestH && leaf > best) {
			best, bestH = leaf, b.Height
		}
	}
	if bestH < 0 {
		return GenesisChain()
	}
	return t.ChainTo(best)
}

// legacySelectSingle is the original SingleChain.Select (minus its
// unguarded leaves[0] panic on degenerate trees, fixed in the indexed
// version; with a genesis block present the two never diverge).
func legacySelectSingle(t *Tree) Chain {
	if scanMaxFork(t) <= 1 {
		leaves := scanLeaves(t)
		if len(leaves) == 0 {
			return GenesisChain()
		}
		return t.ChainTo(leaves[0])
	}
	return legacySelectLongest(t)
}

// scanGHOST is GHOST's descent over recomputed subtree counts: every
// block's count folded into its parent's in descending (height, ID)
// order, then the heaviest child taken from genesis down, the later
// (larger) ID on a tie. It reads neither the tree's links nor its weight
// table.
func scanGHOST(t *Tree) Chain {
	kids := scanChildren(t)
	sub := map[BlockID]int{}
	blocks := t.Blocks()
	for i := len(blocks) - 1; i >= 0; i-- {
		b := blocks[i]
		sub[b.ID]++
		if !b.IsGenesis() {
			sub[b.Parent] += sub[b.ID]
		}
	}
	out := Chain{t.Root()}
	for id := GenesisID; len(kids[id]) > 0; {
		best := kids[id][0]
		for _, k := range kids[id][1:] {
			if sub[k] >= sub[best] {
				best = k
			}
		}
		id = best
		out = append(out, t.Block(id))
	}
	return out
}

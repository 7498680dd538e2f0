package core

import "sort"

// This file preserves the original full-rescan selector implementations
// exactly as they were before the incremental indices landed. They are
// unexported and exist only as differential-test oracles
// (select_diff_test.go): randomized trees assert that the indexed
// selectors in select.go return byte-identical chains. Do not "optimize"
// these — their value is being the slow, obviously-correct spec.

// eachNode visits every node of the tree (slab order).
func eachNode(t *Tree, visit func(n *node)) {
	for _, slab := range t.slabs {
		for i := range slab {
			visit(&slab[i])
		}
	}
}

// scanLeaves recomputes the leaf set by scanning every block, the way
// Tree.Leaves worked before the maintained leaf set.
func scanLeaves(t *Tree) []BlockID {
	var out []BlockID
	eachNode(t, func(n *node) {
		if len(n.kids) == 0 {
			out = append(out, n.b.ID)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// scanHeight recomputes the maximum height by scanning every block, the
// way Tree.Height worked before the cached maxHeight.
func scanHeight(t *Tree) int {
	h := 0
	eachNode(t, func(n *node) {
		if n.b.Height > h {
			h = n.b.Height
		}
	})
	return h
}

// scanMaxFork recomputes the largest sibling count by scanning every
// block's children, the way Tree.MaxForkDegree worked before the cached
// maxFork.
func scanMaxFork(t *Tree) int {
	max := 0
	eachNode(t, func(n *node) {
		if len(n.kids) > max {
			max = len(n.kids)
		}
	})
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

// legacySelectHeaviest is the original HeaviestChain.Select: materialize
// the full root-to-leaf chain of every leaf and score it (O(n·h)).
func legacySelectHeaviest(t *Tree) Chain {
	var best BlockID
	bestW := -1
	sc := WeightScore{}
	for _, leaf := range scanLeaves(t) {
		w := sc.Of(t.ChainTo(leaf))
		if w > bestW || (w == bestW && leaf > best) {
			best, bestW = leaf, w
		}
	}
	if bestW < 0 {
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

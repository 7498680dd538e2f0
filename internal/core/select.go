package core

// Selector is the paper's selection function f ∈ F : BT → BC. It picks
// one blockchain out of the BlockTree — the chain a read() returns and
// the chain whose head an append() extends. The paper leaves f generic;
// the three instances here cover the systems of Section 5:
//
//   - LongestChain: Bitcoin's rule (most blocks, lexicographic tiebreak —
//     the convention used in the paper's Figure 2);
//   - GHOST: Ethereum's greedy heaviest-observed-subtree walk, where a
//     subtree weighs its number of blocks;
//   - SingleChain: the consortium systems' fork-free projection.
//
// All selectors are deterministic: given equal trees they return equal
// chains, as required for f to be a function.
//
// Every selector here runs off the Tree's incremental indices: picking
// the winning leaf costs O(1) for LongestChain and SingleChain and
// O(path) for GHOST's descent, and only the winning chain is
// materialized, O(height). The original full-rescan
// implementations are kept unexported in select_legacy_test.go and
// pinned equivalent by differential tests.
type Selector interface {
	// Select returns the selected blockchain including the genesis
	// block ({b0}⌢f(bt) in the paper's notation; per the paper's
	// Section 4.3 convention we fold b0 into the returned chain).
	Select(*Tree) Chain
	// Name identifies the selector for reports.
	Name() string
}

// HeadSelector is the head-only fast path: SelectHead returns the head
// block of the chain Select would return, without materializing it.
// Append paths (replica mining, refined append, BT-ADT append) only need
// the head to chain a new block under, so this turns every append-side
// selection from O(height) into O(1) (O(path) for GHOST). All built-in
// selectors implement it; HeadOf falls back to Select(t).Head() for
// foreign ones.
type HeadSelector interface {
	SelectHead(*Tree) *Block
}

// HeadOf returns the head of f(t), using the selector's head-only fast
// path when available. On a degenerate (zero-value) tree it returns the
// genesis block, matching Select's genesis-chain fallback.
func HeadOf(f Selector, t *Tree) *Block {
	if hs, ok := f.(HeadSelector); ok {
		if h := hs.SelectHead(t); h != nil {
			return h
		}
		return Genesis()
	}
	return f.Select(t).Head()
}

// LongestChain selects the chain to the highest leaf; among equally high
// leaves it picks the one whose head has the lexicographically largest ID
// (Figure 2's convention: "in case of equality, selects the largest based
// on the lexicographical order").
type LongestChain struct{}

// SelectHead returns the highest leaf (lexicographic tiebreak) in O(1):
// the block the tree maintains as maximal by (height, ID), which is
// always a leaf. Nil on a degenerate zero-value tree.
func (LongestChain) SelectHead(t *Tree) *Block { return t.tallest }

// Select returns the longest chain, materializing only the winner.
func (f LongestChain) Select(t *Tree) Chain {
	head := f.SelectHead(t)
	if head == nil {
		return GenesisChain()
	}
	return t.ChainTo(head.ID)
}

// Name returns "longest".
func (LongestChain) Name() string { return "longest" }

// GHOST implements the Greedy Heaviest-Observed SubTree rule used by
// Ethereum (Sompolinsky & Zohar): starting from genesis, repeatedly
// descend into the child whose subtree has the most blocks (ties broken
// lexicographically) until reaching a leaf. Every block weighs one, so a
// subtree's weight is its block count.
type GHOST struct{}

// SelectHead performs the greedy descent and returns only the final leaf.
func (GHOST) SelectHead(t *Tree) *Block {
	return ghostDescent(t, nil) // nil on a degenerate zero-value tree; HeadOf falls back
}

// Select performs the greedy heaviest-subtree descent, the genesis chain
// on a degenerate zero-value tree.
func (GHOST) Select(t *Tree) Chain {
	chain := Chain{t.Root()}
	if ghostDescent(t, &chain) == nil {
		return GenesisChain()
	}
	return chain
}

// ghostDescent walks from the root into the child with the heaviest
// subtree (ties: the largest ID) until it reaches a leaf, which it
// returns; every block it descends into is appended to path when path is
// non-nil. It walks each block's children as Tree.kids yields them —
// the shared child list by handle, filtered by the held bitset, then the
// block's twins — spelled out inline, which halves a descent's cost; no
// ID is looked up but on a tie with a twin, which no list orders.
func ghostDescent(t *Tree, path *Chain) *Block {
	if !t.fillWeights() {
		return nil
	}
	x := t.idx
	h, e := uint32(0), x.entry(0)
	for {
		best, bestW, be := uint32(0), 0, e
		for k := e.firstKid.Load(); k != 0; {
			ke := x.entry(k)
			// Children ascend by ID, so on equal weights the later one wins;
			// every weight is at least one, so the first held child does.
			if t.has(k) && (t.twins == nil || !t.isTwin(k)) && t.weights[k] >= bestW {
				best, bestW, be = k, t.weights[k], ke
			}
			k = ke.nextSib.Load()
		}
		if t.twins != nil {
			for _, k := range t.twins[h] {
				if w := t.weights[k]; w > bestW || w == bestW && t.block(k).ID > t.block(best).ID {
					best, bestW, be = k, w, x.entry(k)
				}
			}
		}
		if best == 0 {
			return t.block(h)
		}
		h, e = best, be
		if path != nil {
			*path = append(*path, t.block(h))
		}
	}
}

// Name returns "ghost".
func (GHOST) Name() string { return "ghost" }

// SingleChain is the trivial projection used by consortium systems whose
// BlockTree contains a unique blockchain (Red Belly, Fabric): it asserts
// the tree is fork-free and returns its only maximal chain. If the tree
// does fork (a protocol bug), it degrades to LongestChain so that the
// consistency checkers can observe and report the anomaly.
type SingleChain struct{}

// SelectHead returns the head of the unique chain (or the longest-chain
// head if the tree forks). Both are the highest leaf — a fork-free tree
// has exactly one — so no fork test is needed, O(1).
func (SingleChain) SelectHead(t *Tree) *Block { return LongestChain{}.SelectHead(t) }

// Select returns the unique chain of a fork-free tree.
func (f SingleChain) Select(t *Tree) Chain {
	head := f.SelectHead(t)
	if head == nil {
		return GenesisChain()
	}
	return t.ChainTo(head.ID)
}

// Name returns "single".
func (SingleChain) Name() string { return "single" }

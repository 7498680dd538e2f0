package core

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
)

// FuzzDecodeTxs checks that the payload parser never panics and that
// decode ∘ encode is the identity whenever decoding succeeds.
func FuzzDecodeTxs(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeTxs([]Tx{{From: 0, To: 1, Amount: 50}}))
	f.Add([]byte{1, 2, 3})
	f.Add(bytes.Repeat([]byte{0xFF}, 36))
	f.Fuzz(func(t *testing.T, payload []byte) {
		txs, err := DecodeTxs(payload)
		if err != nil {
			return
		}
		re := EncodeTxs(txs)
		if !bytes.Equal(re, payload) {
			t.Fatalf("decode/encode not inverse: %x → %x", payload, re)
		}
	})
}

// FuzzChainPrefix checks the prefix/common-prefix algebra on arbitrary
// cut points of a fixed chain and its fork: CommonPrefix prefixes both
// inputs and Comparable is symmetric.
func FuzzChainPrefix(f *testing.F) {
	base := GenesisChain()
	for i := 1; i <= 12; i++ {
		h := base.Head()
		base = base.Append(NewBlock(h.ID, h.Height+1, 0, i, []byte{byte(i)}))
	}
	alt := base[:5].Clone()
	for i := 0; i < 8; i++ {
		h := alt.Head()
		alt = alt.Append(NewBlock(h.ID, h.Height+1, 9, 100+i, []byte{byte(i)}))
	}
	f.Add(uint8(3), uint8(7), true, false)
	f.Add(uint8(12), uint8(12), false, true)
	f.Fuzz(func(t *testing.T, aCut, bCut uint8, aAlt, bAlt bool) {
		pick := func(cut uint8, useAlt bool) Chain {
			c := base
			if useAlt {
				c = alt
			}
			n := int(cut) % c.Len()
			return c[:n+1]
		}
		a, b := pick(aCut, aAlt), pick(bCut, bAlt)
		cp := a.CommonPrefix(b)
		if !cp.Prefix(a) || !cp.Prefix(b) {
			t.Fatal("CommonPrefix does not prefix both")
		}
		if a.Comparable(b) != b.Comparable(a) {
			t.Fatal("Comparable not symmetric")
		}
		if MCPS(LengthScore{}, a, b) != cp.Height() {
			t.Fatal("MCPS disagrees with CommonPrefix height")
		}
	})
}

// checkTreeIndices asserts every incremental index of the tree — leaf
// set, cached max height, max fork degree, the O(1) selector heads,
// per-block chain weight, per-block subtree weight — equals a
// from-scratch recomputation over the nodes, and that the node links
// (parent pointers, leaf slots, sorted child lists, slab membership) are
// consistent. It is the shared invariant check for the attach fuzzers.
func checkTreeIndices(t *testing.T, tr *Tree) {
	t.Helper()
	checkNodeLinks(t, tr)
	// Leaf set == scan of all blocks with no children.
	wantLeaves := scanLeaves(tr)
	gotLeaves := tr.Leaves()
	if len(gotLeaves) != len(wantLeaves) {
		t.Fatalf("leaf index has %d leaves, scan finds %d", len(gotLeaves), len(wantLeaves))
	}
	for i := range wantLeaves {
		if gotLeaves[i] != wantLeaves[i] {
			t.Fatalf("leaf index %v != scan %v", gotLeaves, wantLeaves)
		}
	}
	if tr.LeafCount() != len(wantLeaves) {
		t.Fatalf("LeafCount %d, scan finds %d", tr.LeafCount(), len(wantLeaves))
	}
	// Cached height == scan.
	if got, want := tr.Height(), scanHeight(tr); got != want {
		t.Fatalf("cached height %d, scan %d", got, want)
	}
	checkHeadsMatchLegacy(t, tr)
	// chainWeight[b] == WeightScore of the materialized chain;
	// subtreeWeight[b] == recomputed weight sum over the subtree.
	sc := WeightScore{}
	var subtree func(id BlockID) int
	subtree = func(id BlockID) int {
		w := tr.Block(id).Weight
		for _, c := range tr.Children(id) {
			w += subtree(c)
		}
		return w
	}
	for _, b := range tr.Blocks() {
		if got, want := tr.ChainWeight(b.ID), sc.Of(tr.ChainTo(b.ID)); got != want {
			t.Fatalf("chainWeight[%s] = %d, recompute %d", b.ID.Short(), got, want)
		}
		if got, want := tr.SubtreeWeight(b.ID), subtree(b.ID); got != want {
			t.Fatalf("subtreeWeight[%s] = %d, recompute %d", b.ID.Short(), got, want)
		}
	}
}

// checkNodeLinks asserts the pointer structure behind the index: every
// node is carved from this tree's own slabs (so no parent pointer can
// reach into another tree), sits in the membership pages under the handle
// the tree's index gives its ID and nowhere else, points at its parent's
// node, lists its children sorted and owned (a single child inline in the
// node itself, not in the node it was cloned from), and holds a leaf slot
// that points back at it exactly when it has no children.
func checkNodeLinks(t *testing.T, tr *Tree) {
	t.Helper()
	carved := 0
	eachNode(tr, func(n *node) {
		if n.h != tr.idx.handle(n.b.ID) {
			t.Fatalf("node %s carries handle %d, the index says %d", n.b.ID.Short(), n.h, tr.idx.handle(n.b.ID))
		}
		if tr.at(n.h) != n {
			t.Fatalf("slab node %s is not the indexed node", n.b.ID.Short())
		}
		carved++
	})
	paged := 0
	for _, pg := range tr.pages {
		if pg == nil {
			continue
		}
		for _, n := range pg {
			if n != nil {
				paged++
			}
		}
	}
	if carved != tr.n || paged != tr.n {
		t.Fatalf("%d nodes in the slabs, %d in the pages, %d counted", carved, paged, tr.n)
	}
	eachNode(tr, func(n *node) {
		id := n.b.ID
		if tr.node(id) != n {
			t.Fatalf("lookup of %s does not reach its node", id.Short())
		}
		if want := tr.node(n.b.Parent); n.parent != want {
			t.Fatalf("parent pointer of %s is not this tree's node of %s", id.Short(), n.b.Parent.Short())
		}
		if !sort.SliceIsSorted(n.kids, func(i, j int) bool { return n.kids[i] < n.kids[j] }) {
			t.Fatalf("children of %s not sorted: %v", id.Short(), n.kids)
		}
		if len(n.kids) == 1 && &n.kids[0] != &n.kid0[0] {
			t.Fatalf("single child of %s is not stored inline in its own node", id.Short())
		}
		for _, k := range n.kids {
			if kn := tr.node(k); kn == nil || kn.parent != n {
				t.Fatalf("child %s of %s does not point back", k.Short(), id.Short())
			}
		}
		switch {
		case len(n.kids) > 0 && n.leaf != -1:
			t.Fatalf("inner block %s keeps leaf slot %d", id.Short(), n.leaf)
		case len(n.kids) == 0 && (n.leaf < 0 || int(n.leaf) >= len(tr.leaves) || tr.leaves[n.leaf] != n):
			t.Fatalf("leaf %s has slot %d, which does not point back", id.Short(), n.leaf)
		}
	})
}

// treeView is what a reader can observe of a tree, for before/after
// comparisons with reflect.DeepEqual.
type treeView struct {
	leaves   []BlockID
	children map[BlockID][]BlockID
	subtree  map[BlockID]int
	chain    map[BlockID]int
	maxFork  int
	head     BlockID
}

func viewOf(tr *Tree) treeView {
	v := treeView{
		leaves:   tr.Leaves(),
		children: map[BlockID][]BlockID{},
		subtree:  map[BlockID]int{},
		chain:    map[BlockID]int{},
		maxFork:  tr.MaxForkDegree(),
		head:     GHOST{}.SelectHead(tr).ID,
	}
	for _, b := range tr.Blocks() {
		v.children[b.ID] = append([]BlockID(nil), tr.Children(b.ID)...)
		v.subtree[b.ID] = tr.SubtreeWeight(b.ID)
		v.chain[b.ID] = tr.ChainWeight(b.ID)
	}
	return v
}

// checkCloneIsolated clones tr, grows the clone alone — under every
// block of the original, so both an inline first child and a sibling
// list are written through the copied nodes — and asserts the clone's
// indices hold after each attach while the original's leaves, children
// and weights do not move.
func checkCloneIsolated(t *testing.T, tr *Tree) {
	t.Helper()
	cl := tr.Clone() // before the view below queries (and so activates) tr's GHOST weights
	before := viewOf(tr)
	for i, parent := range tr.Blocks() {
		for j := 0; j < 2; j++ {
			b := NewBlock(parent.ID, parent.Height+1, 5, 5000+2*i+j, []byte{byte(i), byte(j)}).WithWeight(1 + j)
			if err := cl.Attach(b); err != nil {
				t.Fatalf("attach on clone: %v", err)
			}
		}
		if i < 8 {
			checkTreeIndices(t, cl)
		}
	}
	checkTreeIndices(t, cl)
	if cl.Len() != tr.Len()+2*len(before.children) {
		t.Fatalf("clone has %d blocks after growth, want %d", cl.Len(), tr.Len()+2*len(before.children))
	}
	if !reflect.DeepEqual(viewOf(tr), before) {
		t.Fatal("growing a clone moved the original's leaves, children or weights")
	}
	checkTreeIndices(t, tr)
}

// FuzzTreeAttach feeds arbitrary attach schedules (parent picks drawn
// from already-attached blocks, plus occasional garbage) and checks the
// tree invariants are never violated and garbage is always rejected.
func FuzzTreeAttach(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, schedule []byte) {
		tr := NewTree()
		attached := []*Block{Genesis()}
		for i, op := range schedule {
			if op%7 == 6 {
				// Garbage: unknown parent must be rejected.
				if err := tr.Attach(NewBlock("nowhere", 1, 0, i, nil)); err == nil {
					t.Fatal("orphan accepted")
				}
				continue
			}
			parent := attached[int(op)%len(attached)]
			b := NewBlock(parent.ID, parent.Height+1, int(op)%4, i, []byte{op})
			if err := tr.Attach(b); err != nil {
				t.Fatalf("valid attach rejected: %v", err)
			}
			attached = append(attached, b)
		}
		if tr.Len() != len(attached) {
			t.Fatalf("tree size %d, attached %d", tr.Len(), len(attached))
		}
		for _, sel := range []Selector{LongestChain{}, GHOST{}, HeaviestChain{}} {
			if c := sel.Select(tr); !c.WellFormed() {
				t.Fatalf("%s selected malformed chain", sel.Name())
			}
		}
		if tr.SubtreeWeight(GenesisID) != tr.Len() {
			t.Fatal("subtree weight out of sync")
		}
		checkTreeIndices(t, tr)
	})
}

// FuzzTreeIndices stresses the incremental indices directly: arbitrary
// attach schedules with random weights, duplicate deliveries (the same
// block attached again must be idempotent), conflicting re-weighted
// twins (same ID, different weight — must be rejected without touching
// any cache), out-of-order delivery (a child offered before its parent
// must be rejected, then accepted once the parent lands) and, for op
// bytes >= 200, zero weights (a child that does not outweigh its parent).
// After the schedule, every cache must equal a recompute from scratch,
// on the tree and on a clone that is then grown alone.
func FuzzTreeIndices(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{9, 9, 9, 9})
	f.Add([]byte{0, 20, 0, 20, 41, 62})
	f.Add([]byte{0, 200, 5, 201, 210, 6, 255, 203, 1})
	f.Fuzz(func(t *testing.T, schedule []byte) {
		tr := NewTree()
		attached := []*Block{Genesis()}
		for i, op := range schedule {
			switch op % 5 {
			case 0, 1: // ordinary attach under a random existing parent
				parent := attached[int(op/5)%len(attached)]
				w := int(op)%4 + 1
				if op >= 200 {
					w = 0
				}
				b := NewBlock(parent.ID, parent.Height+1, int(op)%3, i, []byte{op, byte(i)}).WithWeight(w)
				if err := tr.Attach(b); err != nil {
					t.Fatalf("valid attach rejected: %v", err)
				}
				attached = append(attached, b)
			case 2: // duplicate delivery: idempotent, caches untouched
				dup := attached[int(op/5)%len(attached)]
				before := tr.Len()
				if err := tr.Attach(dup); err != nil {
					t.Fatalf("duplicate attach rejected: %v", err)
				}
				if tr.Len() != before {
					t.Fatal("duplicate attach changed tree size")
				}
			case 3: // conflicting twin: same ID, different weight
				orig := attached[int(op/5)%len(attached)]
				if orig.IsGenesis() {
					continue // genesis attach is always a no-op
				}
				twin := orig.WithWeight(orig.Weight + 1)
				if err := tr.Attach(twin); err == nil {
					t.Fatal("conflicting re-weighted twin accepted")
				}
			case 4: // out-of-order delivery: child before parent
				parent := attached[int(op/5)%len(attached)]
				future := NewBlock(parent.ID, parent.Height+1, 7, 1000+i, []byte{op})
				child := NewBlock(future.ID, future.Height+1, 7, 2000+i, []byte{op})
				if err := tr.Attach(child); err == nil {
					t.Fatal("orphan child accepted before its parent")
				}
				if err := tr.Attach(future); err != nil {
					t.Fatalf("parent attach rejected: %v", err)
				}
				if err := tr.Attach(child); err != nil {
					t.Fatalf("child attach rejected after parent arrived: %v", err)
				}
				attached = append(attached, future, child)
			}
			// Per-step recompute is quadratic; keep it for short
			// schedules and fall back to end-of-run checks on long
			// fuzz-generated ones.
			if len(schedule) <= 32 {
				checkTreeIndices(t, tr)
			}
		}
		checkTreeIndices(t, tr)
		checkCloneIsolated(t, tr)
		checkSharedIndex(t, tr, attached)
	})
}

// checkSharedIndex rebuilds tr — grown on a private index from attached,
// in that order — as two trees on one shared index, the way the replicas
// of a run hold overlapping block sets: a takes the first two thirds in
// attach order, b takes everything in (height, ID) order, and the two
// alternate, so either may be the one that interns a block and handle
// order matches neither tree's attach order. Each must be
// indistinguishable from a private-index tree of the same blocks.
func checkSharedIndex(t *testing.T, tr *Tree, attached []*Block) {
	t.Helper()
	idx := NewIndex()
	a, b := NewTreeOn(idx), NewTreeOn(idx)
	forA := attached[1 : 1+2*(len(attached)-1)/3]
	forB := tr.Blocks()[1:]
	for i := range forB {
		if i < len(forA) {
			if err := a.Attach(forA[i]); err != nil {
				t.Fatalf("shared index, attach order: %v", err)
			}
		}
		if err := b.Attach(forB[i]); err != nil {
			t.Fatalf("shared index, height order: %v", err)
		}
	}
	alone := NewTree()
	for _, blk := range forA {
		if err := alone.Attach(blk); err != nil {
			t.Fatal(err)
		}
	}
	if idx.Len() != tr.Len() {
		t.Fatalf("shared index holds %d blocks, the trees %d distinct ones", idx.Len(), tr.Len())
	}
	checkTreeIndices(t, a)
	checkTreeIndices(t, b)
	if !reflect.DeepEqual(viewOf(a), viewOf(alone)) {
		t.Fatal("tree on a shared index differs from a private-index tree of the same blocks (attach-order prefix)")
	}
	if !reflect.DeepEqual(viewOf(b), viewOf(tr)) {
		t.Fatal("tree on a shared index differs from a private-index tree of the same blocks (height order)")
	}
	checkCloneIsolated(t, a)
	checkTreeIndices(t, b) // growing a's clone interned blocks b never sees
}

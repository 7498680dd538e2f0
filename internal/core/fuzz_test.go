package core

import (
	"reflect"
	"slices"
	"testing"
)

// FuzzChainPrefix checks the prefix/common-prefix algebra on arbitrary
// cut points of a fixed chain and its fork: CommonPrefix prefixes both
// inputs and Comparable is symmetric.
func FuzzChainPrefix(f *testing.F) {
	base := GenesisChain()
	for i := 1; i <= 12; i++ {
		h := base.Head()
		base = base.Append(NewBlock(h.ID, h.Height+1, 0, i, []byte{byte(i)}))
	}
	alt := slices.Clone(base[:5])
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
			n := int(cut) % len(c)
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
// per-block subtree weight — equals a
// from-scratch recomputation over the blocks' own Parent fields, and that
// the held set over the index's links (parent handles, shared child
// lists, held-kid counts) is consistent. It is the shared invariant check for the
// attach fuzzers. Its weight queries fill the weight table.
func checkTreeIndices(t *testing.T, tr *Tree) {
	t.Helper()
	checkTreeStructure(t, tr)
	checkHeadsMatchLegacy(t, tr)
	checkWeights(t, tr)
}

// checkTreeStructure is the part of checkTreeIndices that asks no weight
// query: held links, leaf set, height and the LongestChain/SingleChain
// heads. None of it may fill the weight table.
func checkTreeStructure(t *testing.T, tr *Tree) {
	t.Helper()
	lazy := tr.weights == nil
	checkNodeLinks(t, tr)
	// Leaf set == scan of all blocks with no children.
	wantLeaves := scanLeaves(tr)
	gotLeaves := tr.Leaves()
	if len(gotLeaves) != len(wantLeaves) {
		t.Fatalf("Leaves has %d leaves, scan finds %d", len(gotLeaves), len(wantLeaves))
	}
	for i := range wantLeaves {
		if gotLeaves[i] != wantLeaves[i] {
			t.Fatalf("Leaves %v != scan %v", gotLeaves, wantLeaves)
		}
	}
	// Cached height == scan.
	if got, want := tr.Height(), scanHeight(tr); got != want {
		t.Fatalf("cached height %d, scan %d", got, want)
	}
	if got, want := HeadOf(LongestChain{}, tr), legacySelectLongest(tr).Head(); got.ID != want.ID {
		t.Fatalf("longest head %s, legacy scan %s", got, want)
	}
	if got, want := HeadOf(SingleChain{}, tr), legacySelectSingle(tr).Head(); got.ID != want.ID {
		t.Fatalf("single head %s, legacy scan %s", got, want)
	}
	if lazy && tr.weights != nil {
		t.Fatal("a structural read filled the weight table")
	}
}

// checkWeights asserts the weight table against a recompute: the subtree
// weight of b is the number of blocks in its scanned subtree, and GHOST
// descends as the scan does.
func checkWeights(t *testing.T, tr *Tree) {
	t.Helper()
	kids := scanChildren(tr)
	var subtree func(id BlockID) int
	subtree = func(id BlockID) int {
		w := 1
		for _, c := range kids[id] {
			w += subtree(c)
		}
		return w
	}
	for _, b := range tr.Blocks() {
		if got, want := tr.subtreeWeight(b.ID), subtree(b.ID); got != want {
			t.Fatalf("subtreeWeight(%s) = %d, recompute %d", b.ID.Short(), got, want)
		}
	}
	if got, want := (GHOST{}).Select(tr), scanGHOST(tr); !got.Equal(want) {
		t.Fatalf("GHOST selects %v, the scan %v", got, want)
	}
}

// checkNodeLinks asserts the tree's held set over the index's shared
// links: a held block sits at the bit of the handle the tree's index
// gives its ID, and n counts the bits; its parent handle resolves to the
// held block its Parent field names (noHandle at genesis alone); the
// shared child list of every held block ascends strictly by ID, holds
// exactly the entries naming it as parent and as many as its entry's kids
// count; the children the tree holds
// under it (the shared list filtered by the bitset, then its twins) are
// exactly the held blocks naming it as parent — Children sorted, with
// the held-kid count their number and maxFork the largest;
// Leaves lists the childless blocks; the side table holds only held
// handles whose copy is not the index entry's, and the twin table only
// those whose copy names another parent, under that parent.
func checkNodeLinks(t *testing.T, tr *Tree) {
	t.Helper()
	kids := scanChildren(tr)
	held, childless, maxFork, interned := 0, 0, 0, tr.idx.Len()
	eachNode(tr, func(h uint32, b *Block) {
		id := b.ID
		held++
		if want := tr.idx.handle(id); h != want || tr.find(id) != h {
			t.Fatalf("block %s sits at bit %d, the index says %d", id.Short(), h, want)
		}
		_, parent := tr.ref(h)
		if c, ok := tr.copies[h]; ok {
			if e := tr.idx.entry(h); c.b == e.b && c.parent == e.parent.Load() {
				t.Fatalf("side table repeats the index entry of %s", id.Short())
			}
		}
		if b.IsGenesis() {
			if h != 0 || parent != noHandle {
				t.Fatalf("genesis under handle %d with parent %d", h, parent)
			}
		} else if !tr.has(parent) || parent != tr.find(b.Parent) {
			t.Fatalf("parent handle %d of %s does not resolve to this tree's block %s", parent, id.Short(), b.Parent.Short())
		}
		var shared BlockID
		listed := 0
		for k := tr.idx.entry(h).firstKid.Load(); k != 0; k = tr.idx.entry(k).nextSib.Load() {
			e := tr.idx.entry(k)
			if e.parent.Load() != h || e.b.Parent != tr.idx.entry(h).b.ID || e.b.ID <= shared || listed > interned {
				t.Fatalf("shared child list of %s: entry %d (%s) out of order or not naming it", id.Short(), k, e.b.ID.Short())
			}
			shared = e.b.ID
			listed++
		}
		if n := tr.idx.entry(h).kids.Load(); int(n) != listed {
			t.Fatalf("%s counts %d kids, its shared child list holds %d", id.Short(), n, listed)
		}
		var list []BlockID
		for k := range tr.kids(h) {
			if !tr.has(k) {
				t.Fatalf("child handle %d of %s is not held", k, id.Short())
			}
			kb, kp := tr.ref(k)
			if kp != h || kb.Parent != id {
				t.Fatalf("child handle %d of %s is not a held block naming it as parent", k, id.Short())
			}
			list = append(list, kb.ID)
			if len(list) > tr.n {
				t.Fatalf("child list of %s does not end", id.Short())
			}
		}
		slices.Sort(list)
		if !reflect.DeepEqual(list, kids[id]) {
			t.Fatalf("children of %s are %v, the blocks naming it are %v", id.Short(), list, kids[id])
		}
		if !reflect.DeepEqual(tr.Children(id), list) || tr.nkids(h) != len(list) {
			t.Fatalf("%s: Children %v, nkids %d for the list %v", id.Short(), tr.Children(id), tr.nkids(h), list)
		}
		maxFork = max(maxFork, len(list))
		if len(list) == 0 {
			childless++
		}
	})
	for h := range tr.copies {
		if !tr.has(h) {
			t.Fatalf("side table holds handle %d, which the tree does not", h)
		}
	}
	for p, tw := range tr.twins {
		for _, h := range tw {
			if c, ok := tr.copies[h]; !ok || c.parent != p || p == tr.idx.entry(h).parent.Load() || !tr.has(h) {
				t.Fatalf("twin table lists handle %d under %d, where the tree does not hold it as a twin", h, p)
			}
		}
	}
	if held != tr.n {
		t.Fatalf("%d bits set, %d counted", held, tr.n)
	}
	if childless != len(tr.Leaves()) {
		t.Fatalf("%d childless blocks, %d leaves", childless, len(tr.Leaves()))
	}
	if maxFork != tr.maxFork { // every list equals the scan's, so this is the scanned maximum too
		t.Fatalf("maxFork %d, largest child list %d", tr.maxFork, maxFork)
	}
}

// treeView is what a reader can observe of a tree, for before/after
// comparisons with reflect.DeepEqual.
type treeView struct {
	leaves   []BlockID
	children map[BlockID][]BlockID
	subtree  map[BlockID]int
	maxFork  int
	head     BlockID
}

func viewOf(tr *Tree) treeView {
	v := treeView{
		leaves:   tr.Leaves(),
		children: map[BlockID][]BlockID{},
		subtree:  map[BlockID]int{},
		maxFork:  tr.MaxForkDegree(),
		head:     GHOST{}.SelectHead(tr).ID,
	}
	for _, b := range tr.Blocks() {
		v.children[b.ID] = append([]BlockID(nil), tr.Children(b.ID)...)
		v.subtree[b.ID] = tr.subtreeWeight(b.ID)
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
	cl := tr.Clone() // before the view below queries (and so fills) tr's weight table, if it is not yet
	before := viewOf(tr)
	for i, parent := range tr.Blocks() {
		for j := 0; j < 2; j++ {
			b := NewBlock(parent.ID, parent.Height+1, 5, 5000+2*i+j, []byte{byte(i), byte(j)})
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
		for _, sel := range []Selector{LongestChain{}, GHOST{}} {
			if c := sel.Select(tr); !wellFormed(c) {
				t.Fatalf("%s selected malformed chain", sel.Name())
			}
		}
		if tr.subtreeWeight(GenesisID) != tr.Len() {
			t.Fatal("subtree weight out of sync")
		}
		checkTreeIndices(t, tr)
	})
}

// FuzzTreeIndices stresses the incremental indices directly: arbitrary
// attach schedules, duplicate deliveries (the same block attached again
// must be idempotent), conflicting twins (same ID, another payload —
// must be rejected without touching any cache) and out-of-order delivery
// (a child offered before its parent must be rejected, then accepted
// once the parent lands). The lazy weight table is switched on by a query before step on (after
// the schedule when on is past its end), and the tree is cloned just
// before and just after: the later attaches, replayed into both clones,
// must leave the one-pass fill (the clone without a table), the
// incremental maintenance (the tree) and the copied table (the clone
// with it) equal to a recompute and to each other. After the schedule,
// every cache must equal a recompute from scratch, on the tree and on a
// clone that is then grown alone.
func FuzzTreeIndices(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(0), []byte{9, 9, 9, 9})
	f.Add(uint8(4), []byte{0, 20, 0, 20, 41, 62})
	f.Add(uint8(255), []byte{0, 200, 5, 201, 210, 6, 255, 203, 1})
	f.Fuzz(func(t *testing.T, on uint8, schedule []byte) {
		tr := NewTree()
		attached := []*Block{Genesis()}
		var lazy, filled *Tree // the clones taken around the first weight query
		from := 0              // len(attached) then
		switchOn := func() {
			lazy, from = tr.Clone(), len(attached)
			if tr.weights != nil {
				t.Fatal("weight table filled before the first weight query")
			}
			tr.subtreeWeight(GenesisID)
			filled = tr.Clone()
			if lazy.weights != nil || filled.weights == nil {
				t.Fatal("a clone does not carry its tree's weight table as it stood")
			}
		}
		for i, op := range schedule {
			if i == int(on) {
				switchOn()
			}
			switch op % 5 {
			case 0, 1: // ordinary attach under a random existing parent
				parent := attached[int(op/5)%len(attached)]
				b := NewBlock(parent.ID, parent.Height+1, int(op)%3, i, []byte{op, byte(i)})
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
			case 3: // conflicting twin: same ID, another payload
				orig := attached[int(op/5)%len(attached)]
				if orig.IsGenesis() {
					continue // genesis attach is always a no-op
				}
				twin := *orig
				twin.Payload = append([]byte{op}, orig.Payload...)
				if err := tr.Attach(&twin); err == nil {
					t.Fatal("conflicting twin accepted")
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
			// fuzz-generated ones. Before the switch it asks no weight.
			if len(schedule) <= 32 {
				if lazy == nil {
					checkTreeStructure(t, tr)
				} else {
					checkTreeIndices(t, tr)
				}
			}
		}
		if lazy == nil {
			switchOn()
		}
		checkTreeIndices(t, tr)
		for _, cl := range []*Tree{lazy, filled} {
			for _, b := range attached[from:] {
				if err := cl.Attach(b); err != nil {
					t.Fatalf("replay on a clone: %v", err)
				}
			}
			checkTreeIndices(t, cl)
			if !reflect.DeepEqual(viewOf(cl), viewOf(tr)) {
				t.Fatal("a clone taken at the weight switch and grown alike differs from the tree")
			}
		}
		checkTreeIndices(t, tr) // growing the clones must not have touched tr's tables
		checkCloneIsolated(t, tr)
		checkSharedIndex(t, tr, attached)
	})
}

// checkSharedIndex rebuilds tr — grown on a private index from attached,
// in that order — as two trees on one shared index, the way the replicas
// of a run hold overlapping block sets: a takes the first two thirds in
// attach order, b takes everything in (height, ID) order, as copies
// under a second pointer, and the two alternate, so either may be the
// one that interns a block, handle order matches neither tree's attach
// order and either tree may read a block from its side table. Each must
// be indistinguishable from a private-index tree of the same blocks and
// read back the very copies it attached.
func checkSharedIndex(t *testing.T, tr *Tree, attached []*Block) {
	t.Helper()
	idx := NewIndex()
	a, b := NewTreeOn(idx), NewTreeOn(idx)
	forA := attached[1 : 1+2*(len(attached)-1)/3]
	forB := tr.Blocks()[1:]
	for i, blk := range forB {
		cp := *blk
		forB[i] = &cp
	}
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
	for _, own := range []struct {
		tr     *Tree
		blocks []*Block
	}{{a, forA}, {b, forB}} {
		for _, blk := range own.blocks {
			if got := own.tr.Block(blk.ID); got != blk {
				t.Fatalf("shared index: Block(%s) reads %p, the tree attached %p", blk.ID.Short(), got, blk)
			}
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

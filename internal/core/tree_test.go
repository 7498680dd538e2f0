package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"
)

// child makes a block under parent with a distinguishing round.
func child(parent *Block, creator, round int) *Block {
	return NewBlock(parent.ID, parent.Height+1, creator, round, []byte{byte(round)})
}

// buildTree attaches a set of blocks and fails the test on error.
func buildTree(t *testing.T, blocks ...*Block) *Tree {
	t.Helper()
	tr := NewTree()
	for _, b := range blocks {
		if err := tr.Attach(b); err != nil {
			t.Fatalf("attach %s: %v", b.ID.Short(), err)
		}
	}
	return tr
}

func TestNewTreeHasGenesis(t *testing.T) {
	tr := NewTree()
	if tr.Len() != 1 || !tr.Has(GenesisID) || tr.Root().ID != GenesisID {
		t.Fatalf("fresh tree wrong: %v", tr)
	}
	if tr.Height() != 0 || tr.MaxForkDegree() != 0 {
		t.Fatalf("fresh tree metrics wrong: %v", tr)
	}
}

func TestAttachChain(t *testing.T) {
	g := Genesis()
	b1 := child(g, 0, 1)
	b2 := child(b1, 0, 2)
	tr := buildTree(t, b1, b2)
	if tr.Len() != 3 || tr.Height() != 2 {
		t.Fatalf("tree %v", tr)
	}
	c := tr.ChainTo(b2.ID)
	if c.Height() != 2 || !wellFormed(c) {
		t.Fatalf("chain %v", c)
	}
}

func TestAttachErrors(t *testing.T) {
	tr := NewTree()
	if err := tr.Attach(nil); err == nil {
		t.Error("nil attach accepted")
	}
	orphan := NewBlock("nonexistent", 1, 0, 1, nil)
	if err := tr.Attach(orphan); err == nil {
		t.Error("orphan attach accepted")
	}
	wrongHeight := NewBlock(GenesisID, 5, 0, 1, nil)
	if err := tr.Attach(wrongHeight); err == nil {
		t.Error("wrong-height attach accepted")
	}
}

func TestAttachIdempotentAndConflict(t *testing.T) {
	g := Genesis()
	b1 := child(g, 0, 1)
	tr := buildTree(t, b1)
	if err := tr.Attach(b1); err != nil {
		t.Fatalf("duplicate attach rejected: %v", err)
	}
	if tr.Len() != 2 {
		t.Fatalf("duplicate attach changed size: %d", tr.Len())
	}
	// Same ID, different parent: conflict.
	evil := *b1
	evil.Parent = "elsewhere"
	if err := tr.Attach(&evil); err == nil {
		t.Error("conflicting attach accepted")
	}
	// Same ID, different payload: conflict, and the filled weight table
	// is left as it was.
	tr.subtreeWeight(GenesisID)
	evil2 := *b1
	evil2.Payload = []byte("tampered")
	if err := tr.Attach(&evil2); err == nil {
		t.Error("payload-tampered twin accepted as duplicate")
	}
	if got := tr.subtreeWeight(GenesisID); got != 2 {
		t.Errorf("rejected twin perturbed the weight table: %d, want 2", got)
	}
}

func TestLeafAndHeightIndices(t *testing.T) {
	tr := NewTree()
	if got := tr.Leaves(); len(got) != 1 || got[0] != GenesisID {
		t.Fatalf("fresh tree leaves %v", got)
	}
	g := Genesis()
	a := child(g, 0, 1)
	b := child(a, 0, 2)
	c := child(g, 1, 3)
	for i, blk := range []*Block{a, b, c} {
		if err := tr.Attach(blk); err != nil {
			t.Fatal(err)
		}
		if got, want := tr.Leaves(), scanLeaves(tr); len(got) != len(want) {
			t.Fatalf("after attach %d: leaf index %v, scan %v", i, got, want)
		}
		if got, want := tr.Height(), scanHeight(tr); got != want {
			t.Fatalf("after attach %d: cached height %d, scan %d", i, got, want)
		}
	}
	if len(tr.Leaves()) != 2 { // b and c
		t.Fatalf("%d leaves, want 2", len(tr.Leaves()))
	}
	// Clone carries the indices independently.
	cl := tr.Clone()
	d := child(b, 0, 4)
	if err := tr.Attach(d); err != nil {
		t.Fatal(err)
	}
	if cl.Height() != 2 || len(cl.Leaves()) != 2 {
		t.Fatal("clone indices affected by original's attach")
	}
	if tr.Height() != 3 || len(tr.Leaves()) != 2 {
		t.Fatalf("indices after growth: height %d leaves %d", tr.Height(), len(tr.Leaves()))
	}
}

func TestAttachGenesisNoop(t *testing.T) {
	tr := NewTree()
	if err := tr.Attach(Genesis()); err != nil {
		t.Fatalf("genesis attach errored: %v", err)
	}
	if tr.Len() != 1 {
		t.Fatal("genesis attach changed size")
	}
}

func TestForkCounting(t *testing.T) {
	g := Genesis()
	a := child(g, 0, 1)
	b := child(g, 1, 2)
	c := child(g, 2, 3)
	tr := buildTree(t, a, b, c)
	if n := tr.nkids(tr.find(GenesisID)); n != 3 || tr.MaxForkDegree() != 3 {
		t.Fatalf("fork counts wrong: %d / %d", n, tr.MaxForkDegree())
	}
	if got := len(tr.Leaves()); got != 3 {
		t.Fatalf("leaves %d, want 3", got)
	}
}

func TestChildrenSortedDeterministically(t *testing.T) {
	g := Genesis()
	blocks := []*Block{child(g, 0, 1), child(g, 1, 2), child(g, 2, 3)}
	t1 := buildTree(t, blocks[0], blocks[1], blocks[2])
	t2 := buildTree(t, blocks[2], blocks[0], blocks[1])
	c1, c2 := t1.Children(GenesisID), t2.Children(GenesisID)
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatal("children order depends on arrival order")
		}
	}
}

func TestSubtreeWeight(t *testing.T) {
	g := Genesis()
	a := child(g, 0, 1)
	b := child(a, 0, 2)
	b2 := child(a, 1, 3)
	c := child(g, 1, 4)
	tr := buildTree(t, a, b, b2, c)
	if got := tr.subtreeWeight(a.ID); got != 3 {
		t.Errorf("subtree(a) = %d, want 3", got)
	}
	if got := tr.subtreeWeight(c.ID); got != 1 {
		t.Errorf("subtree(c) = %d, want 1", got)
	}
	if got := tr.subtreeWeight(GenesisID); got != 5 { // every block weighs one
		t.Errorf("subtree(g) = %d, want 5", got)
	}
	if tr.subtreeWeight("missing") != 0 {
		t.Error("subtreeWeight of missing block not 0")
	}
}

func TestChainToMissing(t *testing.T) {
	tr := NewTree()
	if tr.ChainTo("missing") != nil {
		t.Fatal("ChainTo of missing block not nil")
	}
}

func TestBlocksOrdered(t *testing.T) {
	g := Genesis()
	a := child(g, 0, 1)
	b := child(a, 0, 2)
	c := child(g, 1, 3)
	tr := buildTree(t, a, b, c)
	bs := tr.Blocks()
	if len(bs) != 4 || !bs[0].IsGenesis() {
		t.Fatalf("Blocks() wrong: %v", bs)
	}
	for i := 1; i < len(bs); i++ {
		if bs[i].Height < bs[i-1].Height {
			t.Fatal("Blocks() not height ordered")
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := Genesis()
	a := child(g, 0, 1)
	tr := buildTree(t, a)
	cl := tr.Clone()
	b := child(a, 0, 2)
	if err := tr.Attach(b); err != nil {
		t.Fatal(err)
	}
	if cl.Has(b.ID) {
		t.Fatal("clone sees later attach")
	}
	if cl.subtreeWeight(GenesisID) == tr.subtreeWeight(GenesisID) {
		t.Fatal("clone weight cache shared")
	}
}

// TestCloneGrownAloneLeavesOriginal clones chain-shaped, mixed and bushy
// trees whose GHOST weights were never queried, grows each clone alone
// and checks the indices of both sides (checkCloneIsolated).
func TestCloneGrownAloneLeavesOriginal(t *testing.T) {
	for i, chainProb := range []float64{1, 0.5, 0} {
		tr := randomTree(t, rand.New(rand.NewSource(int64(i))), 150, chainProb)
		checkCloneIsolated(t, tr)
	}
}

// TestAttachChainAllocs is the tier-1 guard on the attach path's
// allocation count: a chain costs the amortised growth of the index's
// map, pages and the tree's bitset (~0.02 objects per block). A node or a
// child list allocated per block would cost 1.
func TestAttachChainAllocs(t *testing.T) {
	const n = 5000
	chain := make([]*Block, n)
	parent := Genesis()
	for i := range chain {
		chain[i] = child(parent, 0, i)
		parent = chain[i]
	}
	perRun := testing.AllocsPerRun(5, func() {
		tr := NewTree()
		for _, b := range chain {
			if err := tr.Attach(b); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perBlock := perRun / n; perBlock > 0.5 {
		t.Errorf("attaching a %d-block chain allocates %.2f objects per block, want ≤ 0.5", n, perBlock)
	}
}

// TestAttachAllocatesNothingOncePagesExist: on a tree whose held bitset
// already covers the handles, an attach sets one bit and counts the
// parent's held children along the index's shared list — no node, no
// sibling list, no leaf record on the heap, however bushy the tree. The
// blocks are children of genesis and of each other's, eight to a parent,
// already interned by another tree of the run.
func TestAttachAllocatesNothingOncePagesExist(t *testing.T) {
	const n = 1000
	blocks := make([]*Block, 0, n)
	parents := []*Block{Genesis()}
	for i := 0; len(blocks) < n; i++ {
		b := child(parents[i/8], i%3, i)
		blocks = append(blocks, b)
		parents = append(parents, b)
	}
	idx := NewIndex()
	first := NewTreeOn(idx)
	for _, b := range blocks {
		if err := first.Attach(b); err != nil {
			t.Fatal(err)
		}
	}
	tr := NewTreeOn(idx)
	tr.held = grow(tr.held, n>>6)
	next := 0
	perAttach := testing.AllocsPerRun(n-1, func() { // AllocsPerRun makes one warm-up call
		if err := tr.Attach(blocks[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if perAttach != 0 || tr.Len() != n+1 {
		t.Fatalf("%v allocations per attach over %d blocks, want 0", perAttach, tr.Len()-1)
	}
	if tr.MaxForkDegree() != 8 {
		t.Fatalf("max fork degree %d, want 8", tr.MaxForkDegree())
	}
	checkTreeIndices(t, tr)
}

// TestGenesisTreeStaysSmall: the least a replica costs on a run's index
// is its struct and one bitset word, 104 bytes (112 under the race
// detector, the bar) — the ADT machines clone a small tree on every
// append. NewTree() adds its private index: 608 bytes (616 under the
// race detector). A fresh tree holds no weight table and no side table,
// and an index entry is 24 bytes, its kid count in the block pointer's
// padding.
func TestGenesisTreeStaysSmall(t *testing.T) {
	if n := unsafe.Sizeof(indexEntry{}); n != 24 {
		t.Errorf("an index entry is %d bytes, want 24", n)
	}
	if tr := NewTree(); tr.copies != nil || tr.twins != nil {
		t.Error("a genesis-only tree holds a side table")
	}
	if tr := NewTree(); tr.weights != nil || len(tr.held) != 1 {
		t.Errorf("a genesis-only tree holds a weight table or %d bitset words", len(tr.held))
	}
	idx := NewIndex()
	for _, tc := range []struct {
		name     string
		make     func() *Tree
		maxBytes uint64
	}{
		{"NewTreeOn", func() *Tree { return NewTreeOn(idx) }, 112},
		{"NewTree", NewTree, 620},
	} {
		// The least of five rounds: another goroutine's allocation landing
		// in one round's window is not the tree's.
		const trees, rounds = 64, 5
		keep := make([]*Tree, trees)
		per := uint64(math.MaxUint64)
		for range rounds {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := range keep {
				keep[i] = tc.make()
			}
			runtime.ReadMemStats(&after)
			per = min(per, (after.TotalAlloc-before.TotalAlloc)/trees)
		}
		if per > tc.maxBytes {
			t.Errorf("a genesis-only %s tree allocates %d bytes, want ≤ %d", tc.name, per, tc.maxBytes)
		}
		runtime.KeepAlive(keep)
	}
}

// TestWeightTableIsLazy: a tree grown to 5 000 blocks and read only the
// way LongestChain and SingleChain runs read it — the selectors of every
// benchmark workload — never allocates the weight table. The first
// GHOST query then fills it to exactly the recompute, and Attach keeps
// it so.
func TestWeightTableIsLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := NewTree()
	attached := []*Block{Genesis()}
	grow := func(n int) {
		for i := 0; i < n; i++ {
			parent := HeadOf(LongestChain{}, tr)
			if rng.Intn(4) == 0 {
				parent = attached[rng.Intn(len(attached))]
			}
			b := NewBlock(parent.ID, parent.Height+1, rng.Intn(8), len(attached), []byte{byte(i), byte(i >> 8)})
			if err := tr.Attach(b); err != nil {
				t.Fatal(err)
			}
			attached = append(attached, b)
			if i%500 == 0 {
				SingleChain{}.Select(tr)
			}
		}
	}
	check := func(when string) {
		t.Helper()
		if got, want := (GHOST{}).Select(tr), scanGHOST(tr); !got.Equal(want) {
			t.Fatalf("%s: GHOST selects head %s, the scan %s", when, got.Head().ID.Short(), want.Head().ID.Short())
		}
	}
	grow(5000)
	tr.Leaves()
	tr.Clone()
	if tr.weights != nil || tr.MaxForkDegree() < 2 {
		t.Fatalf("a longest-chain tree of %d blocks, max fork %d, holds a weight table", tr.Len(), tr.MaxForkDegree())
	}
	check("first query")
	grow(300)
	check("after further attaches")
}

func TestSelectorsOnChain(t *testing.T) {
	g := Genesis()
	a := child(g, 0, 1)
	b := child(a, 0, 2)
	tr := buildTree(t, a, b)
	for _, f := range []Selector{LongestChain{}, GHOST{}, SingleChain{}} {
		got := f.Select(tr)
		if got.Height() != 2 || got.Head().ID != b.ID {
			t.Errorf("%s on a chain selected %v", f.Name(), got)
		}
	}
}

func TestLongestChainTieBreak(t *testing.T) {
	g := Genesis()
	a := child(g, 0, 1)
	b := child(g, 1, 2)
	tr := buildTree(t, a, b)
	got := LongestChain{}.Select(tr)
	want := a.ID
	if b.ID > a.ID {
		want = b.ID
	}
	if got.Head().ID != want {
		t.Fatalf("tie break selected %s, want lexicographically largest %s",
			got.Head().ID.Short(), want.Short())
	}
	// Determinism.
	if got2 := (LongestChain{}).Select(tr); !got.Equal(got2) {
		t.Fatal("selector not deterministic")
	}
}

// TestGHOSTDiffersFromLongest reproduces the classical GHOST example: a
// heavily-forked subtree outweighs a longer single chain.
func TestGHOSTDiffersFromLongest(t *testing.T) {
	g := Genesis()
	// Subtree under a: 1 block + 3 forked children (total weight 4).
	a := child(g, 0, 1)
	a1 := child(a, 1, 2)
	a2 := child(a, 2, 3)
	a3 := child(a, 3, 4)
	// Chain under b: length 3 (weight 3) — longer path, lighter tree.
	b := child(g, 4, 5)
	b1 := child(b, 4, 6)
	b2 := child(b1, 4, 7)
	tr := buildTree(t, a, a1, a2, a3, b, b1, b2)

	long := LongestChain{}.Select(tr)
	if long.Head().ID != b2.ID {
		t.Fatalf("longest selected %v, want the b-chain", long)
	}
	gh := GHOST{}.Select(tr)
	if gh.Block(1).ID != a.ID {
		t.Fatalf("GHOST first step selected %s, want the heavy subtree root %s",
			gh.Block(1).ID.Short(), a.ID.Short())
	}
	if gh.Height() != 2 {
		t.Fatalf("GHOST chain height %d, want 2", gh.Height())
	}
}

func TestSingleChainFallsBackOnFork(t *testing.T) {
	g := Genesis()
	a := child(g, 0, 1)
	b := child(g, 1, 2)
	tr := buildTree(t, a, b)
	got := SingleChain{}.Select(tr)
	want := LongestChain{}.Select(tr)
	if !got.Equal(want) {
		t.Fatal("SingleChain fallback differs from LongestChain")
	}
}

// Property: any sequence of valid attaches keeps every selector's chain
// well-formed and rooted at genesis, and subtree weights consistent.
func TestQuickTreeInvariants(t *testing.T) {
	f := func(ops []uint8) bool {
		tr := NewTree()
		parents := []*Block{Genesis()}
		for i, op := range ops {
			p := parents[int(op)%len(parents)]
			b := child(p, int(op)%3, i)
			if err := tr.Attach(b); err != nil {
				return false
			}
			parents = append(parents, b)
		}
		for _, f := range []Selector{LongestChain{}, GHOST{}} {
			c := f.Select(tr)
			if !wellFormed(c) {
				return false
			}
		}
		// Root subtree weight equals total block count.
		return tr.subtreeWeight(GenesisID) == tr.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: GHOST and LongestChain agree on fork-free trees.
func TestQuickSelectorsAgreeOnChains(t *testing.T) {
	f := func(nRaw uint8, seed uint8) bool {
		n := int(nRaw % 12)
		tr := NewTree()
		p := Genesis()
		for i := 0; i < n; i++ {
			b := child(p, int(seed), i)
			if tr.Attach(b) != nil {
				return false
			}
			p = b
		}
		return GHOST{}.Select(tr).Equal(LongestChain{}.Select(tr))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

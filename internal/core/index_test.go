package core

import (
	"sync"
	"testing"
)

// chainAndForks builds n blocks: a chain with a sibling every third
// height, parents before children.
func chainAndForks(n int) []*Block {
	out := make([]*Block, 0, n)
	tip := Genesis()
	for i := 0; len(out) < n; i++ {
		b := NewBlock(tip.ID, tip.Height+1, 0, i, []byte{byte(i), byte(i >> 8)})
		out = append(out, b)
		if i%3 == 0 && len(out) < n {
			out = append(out, NewBlock(tip.ID, tip.Height+1, 1, i, []byte{byte(i), byte(i >> 8)}))
		}
		tip = b
	}
	return out
}

// TestIndexConcurrentIntern interns overlapping block sets from several
// goroutines at once — forwards, backwards (every child before its
// parent, as a restored monitor's pool may come) and strided — while
// others resolve and walk. Handles must come out dense, one per ID, with
// every parent resolved; run under -race this is the index's
// concurrency contract (invariant (iv)).
func TestIndexConcurrentIntern(t *testing.T) {
	blocks := chainAndForks(600)
	idx := NewIndex()
	var wg sync.WaitGroup
	work := []func(){
		func() {
			for _, b := range blocks {
				idx.Intern(b)
			}
		},
		func() {
			for i := len(blocks) - 1; i >= 0; i-- {
				idx.Intern(blocks[i])
			}
		},
		func() {
			for s := 0; s < 7; s++ {
				for i := s; i < len(blocks); i += 7 {
					idx.Intern(blocks[i])
				}
			}
		},
		func() {
			// A second copy of every block: same ID, another pointer.
			for _, b := range blocks[len(blocks)/2:] {
				cp := *b
				idx.Intern(&cp)
			}
		},
		func() {
			for _, b := range blocks {
				r := idx.resolve(b)
				if r.h != noHandle && r.h >= uint32(idx.Len()) {
					t.Errorf("resolve returned handle %d beyond the index", r.h)
				}
				idx.AncestorAt(b.ID, b.Height/2)
				idx.ChainTo(b.ID)
			}
		},
	}
	for _, w := range work {
		wg.Add(1)
		go func() { defer wg.Done(); w() }()
	}
	wg.Wait()

	if idx.Len() != len(blocks)+1 {
		t.Fatalf("index holds %d blocks, want %d", idx.Len(), len(blocks)+1)
	}
	seen := make([]bool, idx.Len())
	for _, b := range append([]*Block{Genesis()}, blocks...) {
		h := idx.handle(b.ID)
		if h == noHandle || int(h) >= len(seen) || seen[h] {
			t.Fatalf("block %s: handle %d is missing, out of range or shared", b.ID.Short(), h)
		}
		seen[h] = true
		if got := idx.ents[h].b; got.ID != b.ID {
			t.Fatalf("handle %d holds %s, want %s", h, got.ID.Short(), b.ID.Short())
		}
		if !b.IsGenesis() && idx.ents[h].parent != idx.handle(b.Parent) {
			t.Fatalf("block %s: parent handle %d, want %d", b.ID.Short(), idx.ents[h].parent, idx.handle(b.Parent))
		}
		c := idx.ChainTo(b.ID)
		if len(c) != b.Height+1 || !c.WellFormed() || c.Head().ID != b.ID {
			t.Fatalf("ChainTo(%s) = %v", b.ID.Short(), c)
		}
		if a := idx.AncestorAt(b.ID, b.Height/2); a == nil || a.ID != c[b.Height/2].ID {
			t.Fatalf("AncestorAt(%s, %d) = %v, want %s", b.ID.Short(), b.Height/2, a, c[b.Height/2].ID.Short())
		}
	}
	if idx.handle(GenesisID) != 0 {
		t.Fatalf("genesis has handle %d, want 0", idx.handle(GenesisID))
	}
	if len(idx.waiting) != 0 {
		t.Fatalf("%d parents still awaited after every block was interned", len(idx.waiting))
	}
}

// TestIndexWalksStopAtAGap: a chain with a missing or mis-heighted
// ancestor materializes as nil and has no ancestors past the gap, and
// becomes walkable once the gap is interned; a never-interned head
// materializes as nil, genesis as the one-block chain.
func TestIndexWalksStopAtAGap(t *testing.T) {
	blocks := chainAndForks(1)
	b1 := blocks[0]
	b2 := NewBlock(b1.ID, 2, 0, 2, nil)
	b3 := NewBlock(b2.ID, 3, 0, 3, nil)
	idx := NewIndex()
	idx.Intern(b3)
	idx.Intern(b1)
	if c := idx.ChainTo(b3.ID); c != nil {
		t.Fatalf("chain across a gap: %v", c)
	}
	if a := idx.AncestorAt(b3.ID, 1); a != nil {
		t.Fatalf("ancestor across a gap: %v", a)
	}
	if a := idx.AncestorAt(b3.ID, 3); a != b3 {
		t.Fatalf("AncestorAt(head, own height) = %v", a)
	}
	idx.Intern(b2)
	if c := idx.ChainTo(b3.ID); len(c) != 4 || c[1] != b1 || c[2] != b2 {
		t.Fatalf("chain after the gap closed: %v", c)
	}
	// Heights must descend by one: a forged height is a broken walk.
	bad := &Block{ID: "bad", Parent: b3.ID, Height: 9}
	idx.Intern(bad)
	if idx.ChainTo("bad") != nil || idx.AncestorAt("bad", 2) != nil {
		t.Fatal("walk accepted a block whose height does not follow its parent's")
	}
	neg := &Block{ID: "neg", Parent: b1.ID, Height: -7}
	idx.Intern(neg)
	if idx.ChainTo("neg") != nil {
		t.Fatal("chain to a negative height")
	}
	// A never-interned head has no chain; genesis's is genesis alone.
	if c := idx.ChainTo("nowhere"); c != nil {
		t.Fatalf("unknown head materialized %v", c)
	}
	if c := idx.ChainTo(GenesisID); len(c) != 1 || c[0] != idx.Block(GenesisID) {
		t.Fatalf("genesis chain %v", c)
	}
}

// TestTwinUnderAnotherParent: a tree attaches a block under the parent
// the block itself names, even when the index already holds a same-ID
// twin naming a different parent (invariant (ii)); with the parent it
// names absent, the twin is refused, not hung under the cached one.
func TestTwinUnderAnotherParent(t *testing.T) {
	p1 := NewBlock(GenesisID, 1, 0, 1, nil)
	p2 := NewBlock(GenesisID, 1, 1, 1, nil)
	x1 := &Block{ID: "x", Parent: p1.ID, Height: 2, Weight: 1}
	x2 := &Block{ID: "x", Parent: p2.ID, Height: 2, Weight: 1}
	idx := NewIndex()
	first, second, third := NewTreeOn(idx), NewTreeOn(idx), NewTreeOn(idx)
	for _, b := range []*Block{p1, p2, x1} {
		if err := first.Attach(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range []*Block{p1, p2, x2} {
		if err := second.Attach(b); err != nil {
			t.Fatalf("twin under its own parent: %v", err)
		}
	}
	if c := second.ChainTo("x"); len(c) != 3 || c[1] != p2 || c[2] != x2 {
		t.Fatalf("twin attached as %v, want under %s", c, p2.ID.Short())
	}
	if c := first.ChainTo("x"); len(c) != 3 || c[1] != p1 || c[2] != x1 {
		t.Fatalf("first copy now reads %v", c)
	}
	if err := second.Attach(x1); err == nil {
		t.Fatal("conflicting copy accepted over the attached twin")
	}
	if err := third.Attach(p1); err != nil {
		t.Fatal(err)
	}
	if err := third.Attach(x2); err == nil {
		t.Fatal("twin attached although the parent it names is absent")
	}
	if third.Has("x") || third.Len() != 2 {
		t.Fatalf("refused twin left a trace: %v", third)
	}
	for _, tr := range []*Tree{first, second, third} {
		checkTreeIndices(t, tr)
	}
	if got := idx.Block("x"); got != x1 {
		t.Fatal("the index no longer holds the first copy interned")
	}
}

// TestRejectedBlockIsNotInterned: a block enters the index only through
// a successful attach (invariant (i)).
func TestRejectedBlockIsNotInterned(t *testing.T) {
	tr := NewTree()
	b1 := NewBlock(GenesisID, 1, 0, 1, nil)
	for _, bad := range []*Block{
		NewBlock("nowhere", 1, 0, 2, nil),
		{ID: "tall", Parent: GenesisID, Height: 4},
	} {
		if err := tr.Attach(bad); err == nil {
			t.Fatalf("%s attached", bad.ID.Short())
		}
		if tr.idx.Block(bad.ID) != nil {
			t.Fatalf("refused block %s was interned", bad.ID.Short())
		}
	}
	tr.Resolve(b1)
	if tr.idx.Len() != 1 {
		t.Fatal("resolving interned the block")
	}
	if err := tr.Attach(b1); err != nil || tr.idx.Block(b1.ID) != b1 {
		t.Fatalf("attach: %v, interned %v", err, tr.idx.Block(b1.ID))
	}
}

// TestSparseHandlesStaySmall: a tree holding few blocks of a large index
// allocates pages only where its handles fall — an amnesia restart late
// in a long run must not pay for the run's whole handle range.
func TestSparseHandlesStaySmall(t *testing.T) {
	blocks := chainAndForks(20 * pageSize)
	idx := NewIndex()
	full := NewTreeOn(idx)
	for _, b := range blocks {
		if err := full.Attach(b); err != nil {
			t.Fatal(err)
		}
	}
	late := NewBlock(GenesisID, 1, 9, 9, nil)
	if err := full.Attach(late); err != nil {
		t.Fatal(err)
	}
	small := NewTreeOn(idx)
	if err := small.Attach(late); err != nil {
		t.Fatal(err)
	}
	pages := 0
	for _, pg := range small.pages {
		if pg != nil {
			pages++
		}
	}
	if pages != 2 || small.Len() != 2 {
		t.Fatalf("tree of 2 blocks holds %d pages (%d blocks)", pages, small.Len())
	}
	checkTreeIndices(t, small)
}

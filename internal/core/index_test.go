package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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
		if got := idx.entry(h).b; got.ID != b.ID {
			t.Fatalf("handle %d holds %s, want %s", h, got.ID.Short(), b.ID.Short())
		}
		if p := idx.entry(h).parent.Load(); !b.IsGenesis() && p != idx.handle(b.Parent) {
			t.Fatalf("block %s: parent handle %d, want %d", b.ID.Short(), p, idx.handle(b.Parent))
		}
		c := idx.ChainTo(b.ID)
		if len(c) != b.Height+1 || !wellFormed(c) || c.Head().ID != b.ID {
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
	x1 := &Block{ID: "x", Parent: p1.ID, Height: 2}
	x2 := &Block{ID: "x", Parent: p2.ID, Height: 2}
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
	// A second twin whose ID sorts below p2's child on the shared list:
	// second's children of p2 come off that list and off its twin list,
	// and must still read in ID order.
	y1 := &Block{ID: "0", Parent: p1.ID, Height: 2}
	y2 := &Block{ID: "0", Parent: p2.ID, Height: 2}
	z := NewBlock(p2.ID, 2, 5, 5, nil)
	if err := first.Attach(y1); err != nil {
		t.Fatal(err)
	}
	for _, b := range []*Block{z, y2, NewBlock("0", 3, 0, 6, nil)} {
		if err := second.Attach(b); err != nil {
			t.Fatal(err)
		}
	}
	if got := second.Children(p2.ID); len(got) != 3 || got[0] != "0" || got[1] != z.ID || got[2] != "x" || len(second.Children(p1.ID)) != 0 {
		t.Fatalf("second's children of p2: %v, of p1: %v", got, second.Children(p1.ID))
	}
	if err := third.Attach(p1); err != nil {
		t.Fatal(err)
	}
	if err := third.Attach(x2); err == nil {
		t.Fatal("twin attached although the parent it names is absent")
	}
	if third.Has("x") || third.Len() != 2 || third.Children(p1.ID) != nil {
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
// costs a bit per handle of the run up to its highest, and nothing per
// block it does not hold — an amnesia restart late in a long run pays an
// eighth of a byte per block of the run, not a node.
func TestSparseHandlesStaySmall(t *testing.T) {
	blocks := chainAndForks(20 * 64)
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
	words := (idx.Len()-1)/64 + 1 // the late block holds the last handle
	if len(small.held) != words || cap(small.held) > 2*words || small.Len() != 2 {
		t.Fatalf("tree of %d blocks holds %d bitset words (capacity %d), want %d", small.Len(), len(small.held), cap(small.held), words)
	}
	if small.copies != nil || small.twins != nil || small.weights != nil {
		t.Fatal("a tree of shared blocks holds a side or weight table")
	}
	checkTreeIndices(t, small)
}

// TestTreesKeepTheirOwnCopies: two trees on one index attach same-ID
// copies of every block that differ from each other only by pointer, by
// WithToken or by Payload — the tree holding the originals interning
// the even blocks first, the tree holding the copies the odd ones. Each
// tree, and a clone of it, must answer every read with the copy it
// attached: Block, ChainTo, Blocks, Leaves, subtreeWeight and the GHOST
// and LongestChain heads. A copy with another payload conflicts with
// the original, so the tree holding that original refuses it.
func TestTreesKeepTheirOwnCopies(t *testing.T) {
	g := Genesis()
	a := NewBlock(g.ID, 1, 0, 1, nil)
	b1 := NewBlock(a.ID, 2, 0, 2, nil)
	b2 := NewBlock(a.ID, 2, 1, 2, nil)
	b3 := NewBlock(a.ID, 2, 2, 2, nil)
	d := NewBlock(b1.ID, 3, 0, 3, nil)
	originals := []*Block{a, b1, b2, b3, d}
	for _, tc := range []struct {
		name string
		copy func(*Block) *Block
	}{
		{"pointer", func(b *Block) *Block { cp := *b; return &cp }},
		{"token", func(b *Block) *Block { return b.WithToken("t") }},
		{"payload", func(b *Block) *Block { cp := *b; cp.Payload = []byte("copy"); return &cp }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			idx := NewIndex()
			orig, copies := NewTreeOn(idx), NewTreeOn(idx)
			ownO, ownC := map[BlockID]*Block{GenesisID: idx.genesis}, map[BlockID]*Block{GenesisID: idx.genesis}
			for i, b := range originals {
				cp := tc.copy(b)
				ownO[b.ID], ownC[b.ID] = b, cp
				first, second := orig, copies
				fb, sb := b, cp
				if i%2 == 1 {
					first, second, fb, sb = copies, orig, cp, b
				}
				if err := first.Attach(fb); err != nil {
					t.Fatal(err)
				}
				if err := second.Attach(sb); err != nil {
					t.Fatal(err)
				}
			}
			if err := orig.Attach(ownC[b2.ID]); tc.name == "payload" && err == nil {
				t.Fatal("a copy of a held block with another payload was accepted")
			}
			for _, tr := range []*Tree{orig, copies} {
				if tr.copies == nil {
					t.Fatal("a tree attached copies it does not share with the index, and keeps no side table")
				}
			}
			checkOwnCopies(t, orig, ownO)
			checkOwnCopies(t, copies, ownC)
			clO, clC := orig.Clone(), copies.Clone()
			checkOwnCopies(t, clO, ownO)
			checkOwnCopies(t, clC, ownC)
			// A clone that attaches a copy of a block the index holds keeps
			// it in its own side table, not its tree's.
			e := NewBlock(d.ID, 4, 5, 4, nil)
			idx.Intern(e)
			if err := clC.Attach(e.WithToken("e")); err != nil {
				t.Fatal(err)
			}
			if copies.Has(e.ID) || len(clC.copies) != len(copies.copies)+1 {
				t.Fatalf("growing a clone reached its tree: %d and %d copies", len(clC.copies), len(copies.copies))
			}
			gO, gC := GHOST{}.SelectHead(orig), GHOST{}.SelectHead(copies)
			if gO != d || gC != ownC[d.ID] {
				t.Fatalf("GHOST heads %v and %v, want d's original and its copy", gO, gC)
			}
		})
	}
}

// checkOwnCopies asserts that every read of tr answers with the copy of
// each block in own (the tree's blocks, by ID) — pointer identity — and
// that its subtree weights count those copies.
func checkOwnCopies(t *testing.T, tr *Tree, own map[BlockID]*Block) {
	t.Helper()
	checkTreeIndices(t, tr)
	if tr.Len() != len(own) {
		t.Fatalf("tree holds %d blocks, want %d", tr.Len(), len(own))
	}
	subtree := map[BlockID]int{}
	for _, b := range own {
		for ; ; b = own[b.Parent] {
			subtree[b.ID]++
			if b.IsGenesis() {
				break
			}
		}
	}
	for id, want := range own {
		if got := tr.Block(id); got != want {
			t.Fatalf("Block(%s) = %p, want the attached copy %p", id.Short(), got, want)
		}
		c := tr.ChainTo(id)
		for _, b := range c {
			if b != own[b.ID] {
				t.Fatalf("ChainTo(%s) holds %p for %s, want %p", id.Short(), b, b.ID.Short(), own[b.ID])
			}
		}
		if len(c) != want.Height+1 || c.Head() != want {
			t.Fatalf("ChainTo(%s) = %v", id.Short(), c)
		}
		if got, w := tr.subtreeWeight(id), subtree[id]; got != w {
			t.Fatalf("subtreeWeight(%s) = %d, the copies count %d", id.Short(), got, w)
		}
	}
	for _, b := range tr.Blocks() {
		if b != own[b.ID] {
			t.Fatalf("Blocks holds %p for %s, want %p", b, b.ID.Short(), own[b.ID])
		}
	}
	for _, id := range tr.Leaves() {
		if tr.nkids(tr.find(id)) != 0 || own[id] == nil {
			t.Fatalf("leaf %s is not a childless block of the tree", id.Short())
		}
	}
	for _, sel := range []Selector{GHOST{}, LongestChain{}} {
		head := HeadOf(sel, tr)
		if head != own[head.ID] {
			t.Fatalf("%s head %p, want the attached copy %p", sel.Name(), head, own[head.ID])
		}
		for _, b := range sel.Select(tr) {
			if b != own[b.ID] {
				t.Fatalf("%s chain holds %p for %s, want %p", sel.Name(), b, b.ID.Short(), own[b.ID])
			}
		}
	}
}

// TestTreesReadEntriesWhileInterning: several trees on one index attach
// a fork-heavy block set, one goroutine per tree and each in its own
// parent-first order (one of them attaching copies under a second
// pointer, so its reads go to its side table), while another goroutine
// interns every head children-first — each child waits for its parent
// and is patched when the parent arrives — and walks ChainTo and
// AncestorAt. Trees read their blocks' entries without the index's lock
// while those entries' pages are published and parents patched; under
// -race this is that contract (invariant (iv)). Afterwards every tree
// and the index must be whole.
func TestTreesReadEntriesWhileInterning(t *testing.T) {
	blocks := chainAndForks(300)
	idx := NewIndex()
	const trees = 4
	out := make([]*Tree, trees)
	var wg sync.WaitGroup
	for i := range out {
		tr := NewTreeOn(idx)
		out[i] = tr
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			pending := append([]*Block(nil), blocks...)
			for len(pending) > 0 {
				rng.Shuffle(len(pending), func(a, b int) { pending[a], pending[b] = pending[b], pending[a] })
				next := pending[:0]
				for _, b := range pending {
					if !tr.Has(b.Parent) {
						next = append(next, b)
						continue
					}
					if seed == 1 {
						cp := *b
						b = &cp
					}
					if err := tr.Attach(b); err != nil {
						t.Error(err)
						return
					}
					tr.ChainTo(b.ID)
				}
				pending = next
			}
		}(int64(i))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := len(blocks) - 1; i >= 0; i-- {
			b := blocks[i]
			idx.Intern(b)
			if c := idx.ChainTo(b.ID); c != nil && (len(c) != b.Height+1 || !wellFormed(c) || c.Head().ID != b.ID) {
				t.Errorf("ChainTo(%s) = %v", b.ID.Short(), c)
			}
			if a := idx.AncestorAt(b.ID, b.Height/2); a != nil && a.Height != b.Height/2 {
				t.Errorf("AncestorAt(%s, %d) at height %d", b.ID.Short(), b.Height/2, a.Height)
			}
		}
	}()
	wg.Wait()
	if idx.Len() != len(blocks)+1 || len(idx.waiting) != 0 {
		t.Fatalf("index holds %d blocks with %d parents awaited, want %d and none", idx.Len(), len(idx.waiting), len(blocks)+1)
	}
	for i, tr := range out {
		if tr.Len() != len(blocks)+1 {
			t.Fatalf("tree holds %d blocks, want %d", tr.Len(), len(blocks)+1)
		}
		checkTreeIndices(t, tr)
		for _, b := range blocks {
			if got := tr.Block(b.ID); (got == b) == (i == 1) {
				t.Fatalf("tree %d reads %p for %s, which it did not attach", i, got, b.ID.Short())
			}
		}
	}
}

// TestSharedLinksUnderConcurrentAttach: several trees on one index attach
// a fork-heavy block set, one goroutine per tree in its own parent-first
// order (one attaching copies under a second pointer), while another
// goroutine interns the same blocks children-first — so parents arrive
// late and link their waiting children — and, in between, children that
// no tree attaches, so every shared child list holds entries a tree must
// filter out. A tree reads the index's child links without its lock
// (invariant (vi)); under -race this is that contract. After each attach
// the attaching tree's Children, held-kid counts, MaxForkDegree and
// LongestChain head must equal a recompute from its Blocks(), and once
// all are done every entry's kids must count its shared list.
func TestSharedLinksUnderConcurrentAttach(t *testing.T) {
	blocks := chainAndForks(150)
	var foreign []*Block // children-first: each waits for its parent
	for i, b := range blocks {
		if i%4 == 0 {
			x := NewBlock(b.ID, b.Height+1, 7, i, []byte{byte(i)})
			foreign = append(foreign, NewBlock(x.ID, x.Height+1, 7, i, nil), x)
		}
	}
	idx := NewIndex()
	var wg sync.WaitGroup
	for seed := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := NewTreeOn(idx)
			rng := rand.New(rand.NewSource(int64(seed)))
			pending := append([]*Block(nil), blocks...)
			for len(pending) > 0 {
				rng.Shuffle(len(pending), func(a, b int) { pending[a], pending[b] = pending[b], pending[a] })
				next := pending[:0]
				for _, b := range pending {
					if !tr.Has(b.Parent) {
						next = append(next, b)
						continue
					}
					if seed == 1 {
						cp := *b
						b = &cp
					}
					if err := tr.Attach(b); err != nil {
						t.Error(err)
						return
					}
					if msg := recomputeDiff(tr); msg != "" {
						t.Error(msg)
						return
					}
				}
				pending = next
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := len(blocks) - 1; i >= 0; i-- {
			idx.Intern(blocks[i])
			if i%2 == 0 && len(foreign) > 0 {
				idx.Intern(foreign[0])
				foreign = foreign[1:]
			}
		}
		for _, b := range foreign {
			idx.Intern(b)
		}
	}()
	wg.Wait()
	if len(idx.waiting) != 0 {
		t.Fatalf("%d parents still awaited", len(idx.waiting))
	}
	checkKidCounts(t, idx)
}

// checkKidCounts asserts that every entry of a quiescent index counts
// its shared child list: the kids linked at once and those linked when
// their late parent arrived.
func checkKidCounts(t *testing.T, idx *Index) {
	t.Helper()
	for h := range uint32(idx.Len()) {
		listed := 0
		for k := idx.entry(h).firstKid.Load(); k != 0; k = idx.entry(k).nextSib.Load() {
			listed++
		}
		if n := idx.entry(h).kids.Load(); int(n) != listed {
			t.Fatalf("%s counts %d kids, its shared child list holds %d", idx.entry(h).b.ID.Short(), n, listed)
		}
	}
}

// recomputeDiff compares a tree's child reads, fork degrees and longest
// head with a recompute from its Blocks(), "" when they agree.
func recomputeDiff(tr *Tree) string {
	blocks := tr.Blocks()
	kids := map[BlockID][]BlockID{}
	head, maxFork := blocks[0], 0
	for _, b := range blocks[1:] { // (height, ID) order: parents first
		kids[b.Parent] = append(kids[b.Parent], b.ID)
		maxFork = max(maxFork, len(kids[b.Parent]))
		head = b // the last is maximal by (height, ID)
	}
	for _, b := range blocks {
		want := kids[b.ID]
		slices.Sort(want)
		if got, n := tr.Children(b.ID), tr.nkids(tr.find(b.ID)); !slices.Equal(got, want) || n != len(want) {
			return fmt.Sprintf("%s: Children %v, nkids %d; the blocks name %v", b.ID.Short(), got, n, want)
		}
	}
	if tr.MaxForkDegree() != maxFork {
		return fmt.Sprintf("MaxForkDegree %d, recompute %d", tr.MaxForkDegree(), maxFork)
	}
	if got := HeadOf(LongestChain{}, tr); got != head {
		return fmt.Sprintf("longest head %s, recompute %s", got.ID.Short(), head.ID.Short())
	}
	return ""
}

// TestIndexLookupsWhileTablesGrow: one goroutine interns a fork-heavy
// block set — the handle tables double again and again from their
// starting size — while readers resolve the blocks' own pointers, look
// their IDs up as strings and as bytes and walk ChainTo and AncestorAt,
// all without a lock (invariant (iv)). A block interned before a lookup
// began is found, as the pointer interned, however many tables it
// spans; no handle comes back at or past Len; and every handle a reader
// saw is still the block's handle once the writer is done.
func TestIndexLookupsWhileTablesGrow(t *testing.T) {
	blocks := chainAndForks(1000)
	idx := NewIndex()
	var interned atomic.Int64 // blocks[:interned] are in the index
	const readers = 3
	seen := make([][]uint32, readers) // 0: not seen (genesis is not in blocks)
	var wg sync.WaitGroup
	for r := range readers {
		seen[r] = make([]uint32, len(blocks))
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for interned.Load() < int64(len(blocks)) {
				done := int(interned.Load())
				i := rng.Intn(len(blocks))
				if r == 0 && done > 0 {
					i = done - 1 // the block interned last, most likely in a fresh table
				}
				b := blocks[i]
				ref := idx.resolve(b)
				if ref.h != noHandle && ref.h >= uint32(idx.Len()) {
					t.Errorf("resolve(%s) returned handle %d, Len %d", b.ID.Short(), ref.h, idx.Len())
					return
				}
				if i >= done {
					continue // racing its intern: either answer is right
				}
				if ref.h == noHandle {
					t.Errorf("block %d of %d interned, resolve misses it", i, done)
					return
				}
				seen[r][i] = ref.h
				if got := idx.Block(b.ID); got != b {
					t.Errorf("Block(%s) = %p, want %p", b.ID.Short(), got, b)
					return
				}
				if got := idx.BlockBytes([]byte(b.ID)); got != b {
					t.Errorf("BlockBytes(%s) = %p, want %p", b.ID.Short(), got, b)
					return
				}
				if c := idx.ChainTo(b.ID); len(c) != b.Height+1 || c.Head() != b {
					t.Errorf("ChainTo(%s) = %v", b.ID.Short(), c)
					return
				}
				if a := idx.AncestorAt(b.ID, b.Height/2); a == nil || a.Height != b.Height/2 {
					t.Errorf("AncestorAt(%s, %d) = %v", b.ID.Short(), b.Height/2, a)
					return
				}
			}
		}()
	}
	for i, b := range blocks {
		idx.Intern(b)
		interned.Store(int64(i + 1))
		if i%16 == 0 {
			runtime.Gosched()
		}
	}
	wg.Wait()

	for name, tab := range map[string]*handleTable{"byID": idx.byID.Load(), "byBlock": idx.byBlock.Load()} {
		if len(tab.slots) < minSlots<<6 {
			t.Fatalf("%s holds %d slots, want at least 6 doublings of %d", name, len(tab.slots), minSlots)
		}
	}
	for r := range seen {
		for i, h := range seen[r] {
			if h != 0 && idx.handle(blocks[i].ID) != h {
				t.Fatalf("reader %d saw handle %d for block %d, the index now says %d", r, h, i, idx.handle(blocks[i].ID))
			}
		}
	}
}

// TestHandleTablesMatchAMap interns a corpus — content-hashed blocks,
// short non-hex IDs, a twin of an interned ID under a second pointer —
// and compares both handle tables with a map kept beside them, for the
// corpus, genesis and IDs never interned. Empty bytes look nothing up;
// a struct copy of an interned block is not its pointer, so it resolves
// by ID to the same handle, and a copy naming another parent gets the
// twin's Ref: its own named parent.
func TestHandleTablesMatchAMap(t *testing.T) {
	idx := NewIndex()
	want := map[BlockID]uint32{GenesisID: 0}
	first := map[BlockID]*Block{GenesisID: idx.genesis}
	intern := func(b *Block) {
		idx.Intern(b)
		if _, ok := want[b.ID]; !ok {
			want[b.ID] = uint32(len(want))
			first[b.ID] = b
		}
	}
	x := &Block{ID: "x", Parent: GenesisID, Height: 1}
	intern(x)
	intern(&Block{ID: "b1", Parent: "x", Height: 2})
	intern(&Block{ID: "b1", Parent: "x", Height: 2}) // a second pointer: not interned
	for _, b := range chainAndForks(100) {
		intern(b)
	}
	if idx.Len() != len(want) {
		t.Fatalf("Len %d, want %d", idx.Len(), len(want))
	}

	never := []BlockID{"", "y", "b2", "b", "x0", BlockID(HashBlock(GenesisID, 9, 9, nil))}
	for _, id := range never {
		if _, ok := want[id]; ok {
			t.Fatalf("corpus interned %q", id)
		}
		want[id] = noHandle
	}
	for id, h := range want {
		if got := idx.handle(id); got != h {
			t.Errorf("handle(%q) = %d, want %d", id, got, h)
		}
		var wantBlock *Block
		if h != noHandle {
			wantBlock = first[id]
		}
		if got := idx.Block(id); got != wantBlock {
			t.Errorf("Block(%q) = %p, want %p", id, got, wantBlock)
		}
		if got := idx.BlockBytes([]byte(id)); id != "" && got != wantBlock {
			t.Errorf("BlockBytes(%q) = %p, want %p", id, got, wantBlock)
		}
	}
	for id, b := range first {
		if got := idx.blockHandle(b); got != want[id] {
			t.Errorf("blockHandle(%q's interned pointer) = %d, want %d", id, got, want[id])
		}
	}

	// Every handle sits in exactly one slot of each table.
	for name, tab := range map[string]*handleTable{"byID": idx.byID.Load(), "byBlock": idx.byBlock.Load()} {
		count := make([]int, idx.Len())
		for i := range tab.slots {
			if s := tab.slots[i].Load(); s != 0 {
				if int(s-1) >= len(count) {
					t.Fatalf("%s slot %d holds handle %d, Len %d", name, i, s-1, idx.Len())
				}
				count[s-1]++
			}
		}
		for h, c := range count {
			if c != 1 {
				t.Fatalf("%s holds handle %d %d times", name, h, c)
			}
		}
		if 2*idx.Len() > len(tab.slots) {
			t.Fatalf("%s holds %d handles in %d slots, more than half full", name, idx.Len(), len(tab.slots))
		}
	}

	if idx.BlockBytes(nil) != nil || idx.BlockBytes([]byte{}) != nil {
		t.Fatal("BlockBytes of no bytes found a block")
	}
	if allocs := testing.AllocsPerRun(100, func() { idx.BlockBytes(nil); idx.BlockBytes([]byte{}) }); allocs != 0 {
		t.Fatalf("BlockBytes of no bytes allocates %.0f times", allocs)
	}

	b := first[chainAndForks(100)[50].ID]
	cp := *b
	if idx.blockHandle(&cp) != noHandle {
		t.Fatal("a struct copy hit byBlock")
	}
	if r := idx.resolve(&cp); r.h != want[b.ID] || r.parent != want[b.Parent] {
		t.Fatalf("the copy resolves to (%d, parent %d), want (%d, %d)", r.h, r.parent, want[b.ID], want[b.Parent])
	}
	twin := *b
	twin.Parent = "x"
	if r := idx.resolve(&twin); r.h != want[b.ID] || r.parent != want["x"] {
		t.Fatalf("a twin under x resolves to (%d, parent %d), want (%d, %d)", r.h, r.parent, want[b.ID], want["x"])
	}
	twin.Parent = "y"
	if r := idx.resolve(&twin); r.h != want[b.ID] || r.parent != noHandle {
		t.Fatalf("a twin under a never-interned parent resolves to (%d, parent %d), want (%d, none)", r.h, r.parent, want[b.ID])
	}
}

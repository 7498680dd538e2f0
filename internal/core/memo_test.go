package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// remembered reports whether WellFormed's memo on b is set for b itself.
func remembered(b *Block) bool { return atomic.LoadPointer(&b.valid) == unsafe.Pointer(b) }

// wrapped is a second predicate that reaches WellFormed's memo, as a
// predicate composing WellFormed with a payload check would.
var wrapped = PredicateFunc("wrapped", WellFormed{}.Valid)

// TestPredicatesIgnoreToken: P judges content and Token is not content —
// every predicate of the package gives b and b.WithToken(t) one verdict,
// on accepted and on refused blocks alike (replicas hand P the delivered
// block with its stamp on).
func TestPredicatesIgnoreToken(t *testing.T) {
	ledger := NewBlock(GenesisID, 1, 2, 3, EncodeTxs([]Tx{{From: 0, To: 1, Amount: 5}}))
	opaque := NewBlock(GenesisID, 1, 2, 4, []byte{1, 2, 3}) // well-formed, not a Tx payload
	forged := *ledger
	forged.Payload = EncodeTxs([]Tx{{From: 0, To: 2, Amount: 500}})
	preds := []Predicate{
		AlwaysValid{}, WellFormed{}, wrapped,
		PredicateFunc("rejectall", func(b *Block) bool { return b.IsGenesis() }),
		PredicateFunc("odd-rounds", func(b *Block) bool { return b.Round%2 == 1 }),
	}
	for _, p := range preds {
		for _, b := range []*Block{Genesis(), ledger, opaque, &forged} {
			plain, stamped := *b, b.WithToken("tkn(b0)") // fresh objects: no verdict is remembered on either
			if got, want := p.Valid(stamped), p.Valid(&plain); got != want {
				t.Errorf("%s: %v without a token, %v with one (block %s)", p.Name(), want, got, b.ID.Short())
			}
		}
	}
}

// TestWellFormedMemoIsPerObject: a verdict is remembered on the object
// that was hashed and on no other. Every copy of a validated block starts
// out not remembered — it carries the original's address, not its own —
// and goes through the hash: intact copies pass and are then remembered
// themselves, a copy with any identity-bearing field altered is refused,
// however often it is offered, and a refusal is never remembered.
func TestWellFormedMemoIsPerObject(t *testing.T) {
	b := NewBlock(GenesisID, 1, 2, 3, EncodeTxs([]Tx{{From: 0, To: 1, Amount: 5}}))
	other := NewBlock(GenesisID, 1, 7, 7, []byte("another block"))
	if remembered(b) {
		t.Fatal("a new block is remembered before anyone judged it")
	}
	if !(WellFormed{}).Valid(b) || !remembered(b) {
		t.Fatal("a well-formed block was refused or not remembered")
	}
	alter := func(f func(nb *Block)) func() *Block {
		return func() *Block { nb := *b; f(&nb); return &nb }
	}
	cases := []struct {
		name string
		mk   func() *Block
		want bool
	}{
		{"WithToken", func() *Block { return b.WithToken("tkn(b0)") }, true},
		{"plain copy", alter(func(*Block) {}), true},
		{"ID", alter(func(nb *Block) { nb.ID = other.ID }), false},
		{"Parent", alter(func(nb *Block) { nb.Parent = other.ID }), false},
		{"Creator", alter(func(nb *Block) { nb.Creator++ }), false},
		{"Round", alter(func(nb *Block) { nb.Round++ }), false},
		{"Payload", alter(func(nb *Block) { nb.Payload = EncodeTxs([]Tx{{From: 0, To: 2, Amount: 500}}) }), false},
	}
	for _, p := range []Predicate{WellFormed{}, wrapped} {
		for _, c := range cases {
			cp := c.mk()
			if cp.valid != unsafe.Pointer(b) || remembered(cp) {
				t.Fatalf("%s: the copy does not carry the original's address", c.name)
			}
			for try := 0; try < 3; try++ {
				if got := p.Valid(cp); got != c.want {
					t.Fatalf("%s/%s, offer %d: verdict %v, want %v", p.Name(), c.name, try, got, c.want)
				}
				if remembered(cp) != c.want {
					t.Fatalf("%s/%s, offer %d: remembered %v, want %v", p.Name(), c.name, try, remembered(cp), c.want)
				}
			}
		}
	}
	if !remembered(b) || !(WellFormed{}).Valid(b) {
		t.Fatal("judging copies moved the original's verdict")
	}
	// A block that never hashed right, with nobody's address on it.
	bad := &Block{ID: other.ID, Parent: GenesisID, Height: 1, Payload: []byte("x")}
	for try := 0; try < 3; try++ {
		if (WellFormed{}).Valid(bad) || remembered(bad) {
			t.Fatalf("offer %d: an ill-formed block was accepted or remembered", try)
		}
	}
}

// TestWellFormedMemoConcurrent: one block, its forged twins and a block
// nobody judged yet, judged from parallel subtests and plain goroutines
// at once — the shape of live nodes and the monitor sharing a delivered
// *Block. Run under -race this is the memo's concurrency contract: atomic
// accesses only, the same verdicts on every call.
func TestWellFormedMemoConcurrent(t *testing.T) {
	good := NewBlock(GenesisID, 1, 2, 3, EncodeTxs([]Tx{{From: 0, To: 1, Amount: 5}}))
	early := *good // forged before anyone judged good: carries no address
	early.Payload = []byte("forged early")
	(WellFormed{}).Valid(good)
	late := *good // forged after: carries good's address
	late.Payload = []byte("forged late")
	fresh := NewBlock(good.ID, 2, 0, 4, nil) // first judged inside the storm
	judge := func(t *testing.T) {
		for i := 0; i < 500; i++ {
			if !(WellFormed{}).Valid(good) || !wrapped.Valid(good) || !(WellFormed{}).Valid(fresh) {
				t.Error("the honest block was refused")
			}
			if (WellFormed{}).Valid(&early) || (WellFormed{}).Valid(&late) {
				t.Error("a forged twin was accepted")
			}
		}
	}
	t.Run("group", func(t *testing.T) {
		for i := 0; i < 4; i++ {
			t.Run(fmt.Sprint("parallel", i), func(t *testing.T) {
				t.Parallel()
				var wg sync.WaitGroup
				for g := 0; g < 2; g++ {
					wg.Add(1)
					go func() { defer wg.Done(); judge(t) }()
				}
				judge(t)
				wg.Wait()
			})
		}
	})
	if !remembered(good) || !remembered(fresh) || remembered(&early) || remembered(&late) {
		t.Fatal("after the storm: the honest block is not remembered, or a forged twin is")
	}
}

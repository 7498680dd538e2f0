package history

import (
	"testing"

	"repro/internal/core"
)

// buildChain returns a straight chain of n non-genesis blocks.
func buildChain(n int) core.Chain {
	c := core.GenesisChain()
	for i := 1; i <= n; i++ {
		h := c.Head()
		c = c.Append(core.NewBlock(h.ID, h.Height+1, 0, i, []byte{byte(i)}))
	}
	return c
}

func TestInternedReadMaterializes(t *testing.T) {
	rec := NewRecorder(2, nil)
	chain := buildChain(5)
	for _, b := range chain {
		rec.InternBlock(b)
	}
	op := rec.ReadHead(1, chain.Head())
	if op.Head != chain.Head().ID || op.ChainLen != 6 {
		t.Fatalf("handle (%s, %d), want (%s, 6)", op.Head.Short(), op.ChainLen, chain.Head().ID.Short())
	}
	got := op.Chain()
	if !got.Equal(chain) {
		t.Fatalf("materialized %s, want %s", got, chain)
	}
	// A second read at the same head shares the memoized chain.
	op2 := rec.ReadHead(0, chain.Head())
	if &op2.Chain()[0] != &got[0] {
		t.Fatal("same-head reads did not share the interned chain")
	}
}

func TestInternedReadAtIntermediateHead(t *testing.T) {
	rec := NewRecorder(1, nil)
	chain := buildChain(8)
	for _, b := range chain {
		rec.InternBlock(b)
	}
	op := rec.ReadHead(0, chain[4])
	if got := op.Chain(); !got.Equal(chain[:5]) {
		t.Fatalf("intermediate-head chain %s, want %s", got, chain[:5])
	}
}

func TestChainTableMissingAncestor(t *testing.T) {
	tab := NewChainTable()
	chain := buildChain(3)
	// Intern the head but not its ancestors.
	tab.Intern(chain.Head())
	if c := tab.ChainTo(chain.Head().ID); c != nil {
		t.Fatalf("materialized a chain with missing ancestors: %s", c)
	}
	// ChainTo of a never-interned head is nil, genesis always works.
	if c := tab.ChainTo("nowhere"); c != nil {
		t.Fatal("unknown head materialized")
	}
	if c := tab.ChainTo(core.GenesisID); c.Len() != 1 {
		t.Fatalf("genesis chain %v", c)
	}
}

func TestExplicitChainReadStillWorks(t *testing.T) {
	rec := NewRecorder(1, nil)
	chain := buildChain(4)
	op := rec.Read(0, chain[:3])
	if op.Head != chain[2].ID || op.ChainLen != 3 {
		t.Fatalf("explicit read handle (%s, %d)", op.Head.Short(), op.ChainLen)
	}
	if !op.Chain().Equal(chain[:3]) {
		t.Fatal("explicit chain lost")
	}
}

func TestMemoizedAccessorsShared(t *testing.T) {
	rec := NewRecorder(2, nil)
	chain := buildChain(3)
	for _, b := range chain[1:] {
		rec.Append(0, b, true)
	}
	rec.Append(1, chain[3], false)
	rec.Read(0, chain[:2])
	rec.Read(1, chain)
	h := rec.Snapshot()

	r1, r2 := h.Reads(), h.Reads()
	if len(r1) != 2 || &r1[0] != &r2[0] {
		t.Fatalf("Reads() not memoized: %d reads", len(r1))
	}
	if len(h.Appends()) != 4 || len(h.SuccessfulAppends()) != 3 {
		t.Fatalf("appends %d / successful %d", len(h.Appends()), len(h.SuccessfulAppends()))
	}
	if got := len(h.ByProcess(0)); got != 4 {
		t.Fatalf("ByProcess(0) %d ops, want 4", got)
	}
	if h.ByProcess(-1) != nil || h.ByProcess(2) != nil {
		t.Fatal("out-of-range ByProcess not nil")
	}
}

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
	// A second read at the same head materializes an equal chain of its
	// own: the caller may modify it without touching another read's.
	op2 := rec.ReadHead(0, chain.Head())
	got2 := op2.Chain()
	if !got2.Equal(got) {
		t.Fatalf("same-head read materialized %s, want %s", got2, got)
	}
	if &got2[0] == &got[0] {
		t.Fatal("same-head reads share one backing array")
	}
	got2[0] = nil
	if !got.Equal(chain) || !op2.Chain().Equal(chain) {
		t.Fatal("modifying one read's chain changed another's")
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

// TestChainTableMissingAncestor: a read interned at a head whose
// ancestors the run's block index lacks materializes no chain; a
// never-interned head has none either, genesis's is genesis alone.
func TestChainTableMissingAncestor(t *testing.T) {
	rec := NewRecorder(1, nil)
	chain := buildChain(3)
	// Intern the head but not its ancestors.
	rec.InternBlock(chain.Head())
	if c := rec.ReadHead(0, chain.Head()).Chain(); c != nil {
		t.Fatalf("materialized a chain with missing ancestors: %s", c)
	}
	if c := rec.Table().ChainTo(chain.Head().ID); c != nil {
		t.Fatalf("index materialized a chain with missing ancestors: %s", c)
	}
	if c := rec.Table().ChainTo("nowhere"); c != nil {
		t.Fatal("unknown head materialized")
	}
	if c := rec.Table().ChainTo(core.GenesisID); len(c) != 1 {
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
	if rec.Table().Block(chain[2].ID) == nil || rec.Table().Block(chain[3].ID) != nil {
		t.Fatal("an explicit read must intern its chain's blocks and no others")
	}
}

func TestRespondReadRejectsNonChain(t *testing.T) {
	// A read is recorded by its head alone, so a chain that does not
	// start at genesis or skips a height is refused, not recorded as a
	// different read.
	chain := buildChain(4)
	for name, c := range map[string]core.Chain{
		"no genesis": chain[1:],
		"gap":        append(core.Chain{chain[0]}, chain[2:]...),
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("recorded %s", c)
				}
			}()
			NewRecorder(1, nil).Read(0, c)
		})
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
}

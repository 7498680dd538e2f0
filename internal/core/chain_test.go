package core

import (
	"slices"
	"testing"
	"testing/quick"
)

// mkChain builds a well-formed chain of n blocks after genesis, with
// block rounds derived from the seed so different seeds give different
// chains.
func mkChain(n int, seed int) Chain {
	c := GenesisChain()
	for i := 1; i <= n; i++ {
		head := c.Head()
		c = c.Append(NewBlock(head.ID, head.Height+1, 0, seed*1000+i, []byte{byte(i)}))
	}
	return c
}

// fork builds a chain sharing the first common blocks of base and then
// diverging for extra blocks.
func forkOf(base Chain, common, extra int, seed int) Chain {
	c := slices.Clone(base[:common+1]) // +1 for genesis
	for i := 0; i < extra; i++ {
		head := c.Head()
		c = c.Append(NewBlock(head.ID, head.Height+1, 9, seed*7777+i, []byte{0xAA, byte(i)}))
	}
	return c
}

func TestGenesisChain(t *testing.T) {
	gc := GenesisChain()
	if len(gc) != 1 || !gc.Head().IsGenesis() || gc.Height() != 0 {
		t.Fatalf("bad genesis chain: %v", gc)
	}
	if !wellFormed(gc) {
		t.Fatal("genesis chain not well formed")
	}
}

func TestChainAppendDoesNotAlias(t *testing.T) {
	a := mkChain(3, 1)
	b := a.Append(NewBlock(a.Head().ID, 4, 0, 99, nil))
	if len(a) != 4 || len(b) != 5 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	// Appending to a again must not clobber b's extra element.
	c := a.Append(NewBlock(a.Head().ID, 4, 0, 100, nil))
	if b[4].ID == c[4].ID {
		t.Fatal("appends aliased the same backing array")
	}
}

func TestPrefixBasics(t *testing.T) {
	c := mkChain(5, 2)
	for i := 0; i <= 5; i++ {
		if !c[:i+1].Prefix(c) {
			t.Errorf("prefix of length %d not recognized", i)
		}
	}
	if c.Prefix(c[:3]) {
		t.Error("longer chain prefixes shorter")
	}
	other := forkOf(c, 2, 3, 3)
	if c.Prefix(other) || other.Prefix(c) {
		t.Error("diverged chains reported as prefixes")
	}
	if !c.Comparable(c[:4]) || c.Comparable(other) {
		t.Error("Comparable wrong")
	}
}

func TestCommonPrefix(t *testing.T) {
	c := mkChain(6, 4)
	f := forkOf(c, 3, 2, 5)
	cp := c.CommonPrefix(f)
	if cp.Height() != 3 {
		t.Fatalf("common prefix height %d, want 3", cp.Height())
	}
	if !cp.Prefix(c) || !cp.Prefix(f) {
		t.Fatal("common prefix does not prefix both")
	}
	// Identical chains: common prefix is the whole chain.
	if got := c.CommonPrefix(slices.Clone(c)); len(got) != len(c) {
		t.Fatalf("self common prefix length %d", len(got))
	}
}

func TestChainBlockAccess(t *testing.T) {
	c := mkChain(4, 6)
	if c.Block(0) == nil || !c.Block(0).IsGenesis() {
		t.Fatal("Block(0) not genesis")
	}
	if c.Block(4) != c.Head() {
		t.Fatal("Block(4) not head")
	}
	if c.Block(5) != nil || c.Block(-1) != nil {
		t.Fatal("out-of-range access not nil")
	}
}

func TestWellFormedRejects(t *testing.T) {
	c := mkChain(3, 7)
	// Broken link.
	bad := slices.Clone(c)
	bad[2] = NewBlock("wrong-parent", 2, 0, 1, nil)
	if wellFormed(bad) {
		t.Error("broken link accepted")
	}
	// Wrong height.
	bad2 := slices.Clone(c)
	blk := *bad2[2]
	blk.Height = 7
	bad2[2] = &blk
	if wellFormed(bad2) {
		t.Error("wrong height accepted")
	}
	// Missing genesis.
	if wellFormed(c[1:]) {
		t.Error("chain without genesis accepted")
	}
	// Empty chain.
	if wellFormed(Chain{}) {
		t.Error("empty chain accepted")
	}
}

func TestEqualAndIDs(t *testing.T) {
	c := mkChain(3, 8)
	if !c.Equal(slices.Clone(c)) {
		t.Fatal("clone not equal")
	}
	if c.Equal(c[:3]) {
		t.Fatal("different lengths equal")
	}
}

func TestChainString(t *testing.T) {
	if (Chain{}).String() != "ε" {
		t.Errorf("empty chain string %q", (Chain{}).String())
	}
	s := mkChain(2, 9).String()
	if s == "" || s[0:2] != "b0" {
		t.Errorf("chain string %q", s)
	}
}

func TestScoreMonotonicity(t *testing.T) {
	sc := LengthScore{}
	c := GenesisChain()
	prev := sc.Of(c)
	for i := 1; i <= 10; i++ {
		head := c.Head()
		c = c.Append(NewBlock(head.ID, head.Height+1, 0, i, nil))
		cur := sc.Of(c)
		if cur <= prev {
			t.Fatalf("%s not strictly monotonic: %d then %d", sc.Name(), prev, cur)
		}
		prev = cur
	}
}

func TestMCPS(t *testing.T) {
	c := mkChain(6, 10)
	f := forkOf(c, 2, 4, 11)
	if got := MCPS(LengthScore{}, c, f); got != 2 {
		t.Fatalf("mcps = %d, want 2", got)
	}
	if got := MCPS(LengthScore{}, c, c); got != 6 {
		t.Fatalf("self mcps = %d, want 6", got)
	}
	if got := MCPS(LengthScore{}, c, GenesisChain()); got != 0 {
		t.Fatalf("genesis mcps = %d, want 0", got)
	}
}

// Property: the prefix relation is a partial order on generated chains
// (reflexive, antisymmetric on distinct chains, transitive via prefixes
// of a common chain).
func TestQuickPrefixPartialOrder(t *testing.T) {
	f := func(nRaw, iRaw, jRaw uint8, seed uint8) bool {
		n := int(nRaw%10) + 2
		c := mkChain(n, int(seed))
		i := int(iRaw) % (n + 1)
		j := int(jRaw) % (n + 1)
		pi, pj := c[:i+1], c[:j+1]
		// Reflexivity.
		if !pi.Prefix(pi) {
			return false
		}
		// Prefixes of a chain are totally ordered.
		if !pi.Prefix(pj) && !pj.Prefix(pi) {
			return false
		}
		// Antisymmetry.
		if pi.Prefix(pj) && pj.Prefix(pi) && !pi.Equal(pj) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: mcps is symmetric and bounded by both scores.
func TestQuickMCPSBounds(t *testing.T) {
	sc := LengthScore{}
	f := func(nRaw, commonRaw, extraRaw uint8, seed uint8) bool {
		n := int(nRaw%8) + 2
		common := int(commonRaw) % n
		extra := int(extraRaw%5) + 1
		a := mkChain(n, int(seed))
		b := forkOf(a, common, extra, int(seed)+1)
		m1, m2 := MCPS(sc, a, b), MCPS(sc, b, a)
		if m1 != m2 {
			return false
		}
		return m1 <= sc.Of(a) && m1 <= sc.Of(b) && m1 == common
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: CommonPrefix returns the longest chain that prefixes both.
func TestQuickCommonPrefixMaximal(t *testing.T) {
	f := func(nRaw, commonRaw uint8, seed uint8) bool {
		n := int(nRaw%8) + 2
		common := int(commonRaw) % n
		a := mkChain(n, int(seed))
		b := forkOf(a, common, 2, int(seed)+3)
		cp := a.CommonPrefix(b)
		if !cp.Prefix(a) || !cp.Prefix(b) {
			return false
		}
		// One block longer is no longer a common prefix.
		if len(cp) < len(a) && len(cp) < len(b) {
			longer := a[:len(cp)+1]
			if longer.Prefix(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property of the merit-tape + score interplay used throughout: a chain
// extended by any block strictly increases the length score (the
// paper's monotonicity requirement on score functions).
func TestQuickScoreStrictGrowth(t *testing.T) {
	f := func(nRaw uint8, seed uint8) bool {
		n := int(nRaw % 10)
		c := mkChain(n, int(seed))
		head := c.Head()
		c2 := c.Append(NewBlock(head.ID, head.Height+1, 1, 999, nil))
		return LengthScore{}.Of(c2) > LengthScore{}.Of(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// wellFormed reports whether the chain starts at genesis and every block
// links to its predecessor with consecutive heights: the reference the
// selectors' and the index's chains are checked against.
func wellFormed(c Chain) bool {
	if len(c) == 0 || !c[0].IsGenesis() {
		return false
	}
	for i := 1; i < len(c); i++ {
		if c[i].Parent != c[i-1].ID || c[i].Height != c[i-1].Height+1 {
			return false
		}
	}
	return true
}

package core

import (
	"math/rand"
	"testing"
)

// randomTree grows an n-block tree with the given fork bias: prob is the
// probability that a new block extends the current selected tip rather
// than a uniformly random earlier block.
func randomTree(t testing.TB, rng *rand.Rand, n int, chainProb float64) *Tree {
	t.Helper()
	tr := NewTree()
	attached := []*Block{Genesis()}
	tip := Genesis()
	for i := 0; i < n; i++ {
		parent := tip
		if rng.Float64() >= chainProb {
			parent = attached[rng.Intn(len(attached))]
		}
		b := NewBlock(parent.ID, parent.Height+1, rng.Intn(8), i, []byte{byte(i), byte(i >> 8)})
		if err := tr.Attach(b); err != nil {
			t.Fatalf("attach: %v", err)
		}
		attached = append(attached, b)
		if b.Height > tip.Height {
			tip = b
		}
	}
	return tr
}

// legacyCases pairs each leaf-selecting selector with its scan-based
// oracle from select_legacy_test.go.
var legacyCases = []struct {
	sel    Selector
	legacy func(*Tree) Chain
}{
	{LongestChain{}, legacySelectLongest},
	{SingleChain{}, legacySelectSingle},
}

// checkHeadsMatchLegacy asserts the O(1) reads — MaxForkDegree and the
// Longest/Single heads — equal a from-scratch recomputation.
func checkHeadsMatchLegacy(t testing.TB, tr *Tree) {
	t.Helper()
	if got, want := tr.MaxForkDegree(), scanMaxFork(tr); got != want {
		t.Fatalf("MaxForkDegree %d, scan %d", got, want)
	}
	for _, c := range legacyCases {
		got, want := HeadOf(c.sel, tr), c.legacy(tr).Head()
		if got.ID != want.ID {
			t.Fatalf("%s head %s, legacy scan %s", c.sel.Name(), got, want)
		}
	}
}

// TestSelectorsMatchLegacy pins the indexed selectors to the original
// scan-based implementations on randomized trees of several shapes: the
// selected chains must be identical block-for-block on every seed.
func TestSelectorsMatchLegacy(t *testing.T) {
	shapes := []struct {
		name      string
		chainProb float64
	}{
		{"chainlike", 0.95},
		{"mixed", 0.6},
		{"forked", 0.1},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			for seed := int64(0); seed < 25; seed++ {
				rng := rand.New(rand.NewSource(seed))
				tr := randomTree(t, rng, 50+rng.Intn(300), shape.chainProb)
				for _, c := range legacyCases {
					got, want := c.sel.Select(tr), c.legacy(tr)
					if !got.Equal(want) {
						t.Fatalf("seed %d: %s diverged from legacy:\n got %v\nwant %v",
							seed, c.sel.Name(), got, want)
					}
				}
			}
		})
	}
}

// TestSelectHeadMatchesSelect pins every selector's head-only fast path
// (the HeadSelector interface used by append paths) to the head of the
// full Select on randomized trees.
func TestSelectHeadMatchesSelect(t *testing.T) {
	sels := []Selector{LongestChain{}, GHOST{}, SingleChain{}}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		tr := randomTree(t, rng, 20+rng.Intn(200), rng.Float64())
		for _, sel := range sels {
			want := sel.Select(tr).Head()
			got := HeadOf(sel, tr)
			if got == nil || want == nil || got.ID != want.ID {
				t.Fatalf("seed %d: %s SelectHead %v, Select head %v", seed, sel.Name(), got, want)
			}
		}
	}
}

// TestSelectorsMatchLegacyAfterClone checks the indices survive Clone:
// selection on a clone (and on a clone grown further) still matches the
// legacy scan.
func TestSelectorsMatchLegacyAfterClone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := randomTree(t, rng, 200, 0.5)
	cl := tr.Clone()
	leaves := cl.Leaves()
	for i := 0; i < 50; i++ {
		parent := cl.Block(leaves[rng.Intn(len(leaves))])
		b := NewBlock(parent.ID, parent.Height+1, 3, 1000+i, []byte{byte(i)})
		if err := cl.Attach(b); err != nil {
			t.Fatalf("attach on clone: %v", err)
		}
	}
	for _, c := range legacyCases {
		if got, want := c.sel.Select(cl), c.legacy(cl); !got.Equal(want) {
			t.Fatalf("%s on grown clone diverged from legacy", c.sel.Name())
		}
		// The original tree must be untouched by growth of the clone.
		if got, want := c.sel.Select(tr), c.legacy(tr); !got.Equal(want) {
			t.Fatalf("%s on original after clone growth diverged from legacy", c.sel.Name())
		}
	}
}

// TestHeadsMatchLegacyAfterEveryAttach grows trees one block at a time
// and compares the O(1) heads and fork degree to the scans after every
// step, on the tree and on a clone of it. The forked shape keeps many
// leaves at equal height, so the ID tiebreak decides. Each shape also
// replays duplicate deliveries and conflicting twins, which must leave
// the indices untouched.
func TestHeadsMatchLegacyAfterEveryAttach(t *testing.T) {
	shapes := []struct {
		name      string
		chainProb float64
	}{
		{"unit-chain", 1},
		{"unit-forked", 0.3},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				tr := NewTree()
				attached := []*Block{Genesis()}
				for i := 0; i < 120; i++ {
					parent := LongestChain{}.SelectHead(tr)
					if rng.Float64() >= shape.chainProb {
						parent = attached[rng.Intn(len(attached))]
					}
					b := NewBlock(parent.ID, parent.Height+1, rng.Intn(4), i, nil)
					if err := tr.Attach(b); err != nil {
						t.Fatalf("attach: %v", err)
					}
					attached = append(attached, b)
					checkHeadsMatchLegacy(t, tr)
					switch i % 10 {
					case 3: // duplicate delivery
						if err := tr.Attach(attached[rng.Intn(len(attached))]); err != nil {
							t.Fatalf("duplicate attach: %v", err)
						}
						checkHeadsMatchLegacy(t, tr)
					case 7: // conflicting twin: same ID, another payload
						twin := *b
						twin.Payload = []byte{1}
						if err := tr.Attach(&twin); err == nil {
							t.Fatal("conflicting twin accepted")
						}
						checkHeadsMatchLegacy(t, tr)
					case 9:
						checkHeadsMatchLegacy(t, tr.Clone())
					}
				}
			}
		})
	}
}

// TestSingleChainDegenerate pins the empty-case handling: a zero-value
// Tree (no genesis, no held block) must select the genesis chain under
// every selector — GHOST once returned Chain{nil}, on which Equal
// panicked — and HeadOf must return the genesis block (not nil) so append
// paths never dereference a nil head.
func TestSingleChainDegenerate(t *testing.T) {
	var tr Tree
	for _, sel := range []Selector{SingleChain{}, LongestChain{}, GHOST{}} {
		got := sel.Select(&tr)
		if !got.Equal(GenesisChain()) {
			t.Fatalf("%s on degenerate tree = %v, want genesis chain", sel.Name(), got)
		}
	}
	for _, sel := range []Selector{SingleChain{}, LongestChain{}, GHOST{}} {
		head := HeadOf(sel, &tr)
		if head == nil || !head.IsGenesis() {
			t.Fatalf("HeadOf(%s) on degenerate tree = %v, want genesis", sel.Name(), head)
		}
	}
}

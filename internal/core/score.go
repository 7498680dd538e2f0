package core

// Score is the paper's score : BC → N, a deterministic monotonically
// increasing function over blockchains: score(bc⌢{b}) > score(bc) for
// every block b. The two canonical instances are chain length (Bitcoin's
// "longest chain") and cumulative weight (Ethereum's "most work").
type Score interface {
	// Of returns the score of the chain. The genesis chain's score is
	// s0 (0 for both built-in scores).
	Of(Chain) int
	// Name identifies the score for reports ("length", "weight").
	Name() string
}

// LengthScore scores a chain by its height: score({b0}) = 0 and each
// appended block adds exactly 1.
type LengthScore struct{}

// Of returns the chain height (number of non-genesis blocks).
func (LengthScore) Of(c Chain) int {
	if len(c) == 0 {
		return -1
	}
	return len(c) - 1
}

// Name returns "length".
func (LengthScore) Name() string { return "length" }

// WeightScore scores a chain by the sum of its non-genesis block weights.
// Since every block weight is >= 1, the score is strictly monotonic as
// Definition 3.2 requires.
type WeightScore struct{}

// Of returns the cumulative weight of the chain's non-genesis blocks.
func (WeightScore) Of(c Chain) int {
	s := 0
	for _, b := range c {
		if !b.IsGenesis() {
			s += b.Weight
		}
	}
	return s
}

// Name returns "weight".
func (WeightScore) Name() string { return "weight" }

// MCPS is the paper's mcps : BC × BC → N — the score, under sc, of the
// maximal common prefix of bc and bc′. It is the quantity bounded by the
// Eventual Prefix property (Definition 3.3).
func MCPS(sc Score, a, b Chain) int {
	return sc.Of(a.CommonPrefix(b))
}

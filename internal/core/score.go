package core

// Score is the paper's score : BC → N, a deterministic monotonically
// increasing function over blockchains: score(bc⌢{b}) > score(bc) for
// every block b. Every system here scores by length (LengthScore); the
// checkers take any Score, and one that is not LengthScore is evaluated
// on materialized chains.
type Score interface {
	// Of returns the score of the chain. The genesis chain's score is
	// s0 (0 for LengthScore).
	Of(Chain) int
	// Name identifies the score for reports ("length").
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

// MCPS is the paper's mcps : BC × BC → N — the score, under sc, of the
// maximal common prefix of bc and bc′. It is the quantity bounded by the
// Eventual Prefix property (Definition 3.3).
func MCPS(sc Score, a, b Chain) int {
	return sc.Of(a.CommonPrefix(b))
}

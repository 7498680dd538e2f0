package core

import "strings"

// Chain is a blockchain bc ∈ BC: a path from the genesis block b0 to a
// leaf of the BlockTree, stored root-first ({b0}⌢...⌢{b_k}). The zero
// value is the empty chain; a valid chain always starts with genesis.
type Chain []*Block

// GenesisChain returns the chain consisting only of b0, i.e. the value
// returned by read() on the initial state (Definition 3.1).
func GenesisChain() Chain { return Chain{Genesis()} }

// Head returns the last (leaf-most) block of the chain, or nil if empty.
func (c Chain) Head() *Block {
	if len(c) == 0 {
		return nil
	}
	return c[len(c)-1]
}

// Height returns the height of the chain head: 0 for the genesis chain.
func (c Chain) Height() int {
	if len(c) == 0 {
		return -1
	}
	return c.Head().Height
}

// Append returns a new chain c⌢{b}. It does not validate linkage; the
// tree-level operations do.
func (c Chain) Append(b *Block) Chain {
	out := make(Chain, len(c), len(c)+1)
	copy(out, c)
	return append(out, b)
}

// Prefix reports whether c ⊑ other: every block of c appears at the same
// position in other. The empty chain prefixes everything.
func (c Chain) Prefix(other Chain) bool {
	if len(c) > len(other) {
		return false
	}
	for i, b := range c {
		if other[i].ID != b.ID {
			return false
		}
	}
	return true
}

// Comparable reports whether one of the two chains prefixes the other,
// i.e. the Strong Prefix test for a pair of reads (Definition 3.2).
func (c Chain) Comparable(other Chain) bool {
	return c.Prefix(other) || other.Prefix(c)
}

// CommonPrefix returns the maximal common prefix of c and other (never
// nil for two well-formed chains: both start at b0).
func (c Chain) CommonPrefix(other Chain) Chain {
	n := len(c)
	if len(other) < n {
		n = len(other)
	}
	i := 0
	for i < n && c[i].ID == other[i].ID {
		i++
	}
	return c[:i:i]
}

// Block returns the block at height h, or nil if the chain is shorter.
func (c Chain) Block(h int) *Block {
	if h < 0 || h >= len(c) {
		return nil
	}
	return c[h]
}

// Equal reports whether the two chains contain the same blocks in the
// same order.
func (c Chain) Equal(other Chain) bool {
	if len(c) != len(other) {
		return false
	}
	for i := range c {
		if c[i].ID != other[i].ID {
			return false
		}
	}
	return true
}

// String renders the chain in the paper's concatenation notation,
// e.g. "b0⌢3f2a9c1d⌢77ab01cd".
func (c Chain) String() string {
	if len(c) == 0 {
		return "ε"
	}
	var sb strings.Builder
	for i, b := range c {
		if i > 0 {
			sb.WriteString("⌢")
		}
		if b.IsGenesis() {
			sb.WriteString("b0")
		} else {
			sb.WriteString(b.ID.Short())
		}
	}
	return sb.String()
}

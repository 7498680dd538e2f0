// Package oracle implements the Token Oracle Θ-ADT of Section 3.2: the
// prodigal oracle Θ_P and the frugal oracle Θ_F,k. The oracle is the
// only generator of valid blocks: a process obtains the right to chain a
// new block b_ℓ to b_h by gaining a token tkn_h via getToken, and the
// block enters the BlockTree when the token is consumed via consumeToken.
// The frugal oracle consumes at most k tokens per object, bounding the
// number of forks from any block (k-Fork Coherence, Theorem 3.2); the
// prodigal oracle is the k = ∞ special case (Definition 3.6).
package oracle

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/tape"
)

// Unbounded is the k of the prodigal oracle (no bound on consumed
// tokens per object).
const Unbounded = int(^uint(0) >> 1) // max int

// TokenName renders the token tkn_h for object (block) h; it is stamped
// into validated blocks so that the k-Fork Coherence checker can group
// successful appends by token.
func TokenName(parent core.BlockID) string {
	return "tkn(" + string(parent) + ")"
}

// Oracle is the Θ-ADT object interface shared by Θ_P and Θ_F,k. The
// implementation is safe for concurrent use: consumeToken is atomic,
// which is exactly the synchronization power the paper analyzes in
// Section 4.1.
type Oracle interface {
	// GetToken attempts to gain a token to chain a new block to
	// parent on behalf of a process with the given merit α. The
	// oracle pops one cell of the merit's tape; if the cell is tkn
	// and the resulting block satisfies P, it returns the validated
	// block b^{tkn_h}_ℓ (chained to parent, stamped with the token)
	// and true. Otherwise it returns nil and false.
	GetToken(m tape.Merit, parent *core.Block, creator, round int, payload []byte) (*core.Block, bool)
	// ConsumeToken consumes the token carried by the validated block:
	// if fewer than k tokens have been consumed for the block's
	// parent, b is added to K[h]. Per the ADT's δ it always returns
	// the (copy of the) current contents of K[h]; the boolean reports
	// whether this call inserted b.
	ConsumeToken(b *core.Block) ([]*core.Block, bool)
	// K returns a copy of the consumed-token set for object h.
	K(parent core.BlockID) []*core.Block
	// MaxForks returns k (Unbounded for Θ_P).
	MaxForks() int
	// Name identifies the oracle, e.g. "ΘP" or "ΘF,k=1".
	Name() string
}

// Frugal is Θ_F,k: at most k tokens consumed per object. Its zero value
// is unusable; construct with NewFrugal or NewProdigal.
type Frugal struct {
	mu    sync.Mutex
	k     int
	tapes *tape.Set
	p     core.Predicate
	ks    map[core.BlockID][]*core.Block
	// stats
	getCalls, grants, consumed, rejected int
}

var _ Oracle = (*Frugal)(nil)

// NewFrugal builds Θ_F,k with the given fork bound, merit mapping m (nil
// means identity), validity predicate P (nil means well-formed) and seed
// for the pseudorandom tapes.
func NewFrugal(k int, m tape.Mapping, p core.Predicate, seed uint64) *Frugal {
	if k < 1 {
		panic("oracle: k must be >= 1")
	}
	if p == nil {
		p = core.WellFormed{}
	}
	return &Frugal{
		k:     k,
		tapes: tape.NewSet(m, seed),
		p:     p,
		ks:    make(map[core.BlockID][]*core.Block),
	}
}

// NewProdigal builds Θ_P = Θ_F,∞ (Definition 3.6).
func NewProdigal(m tape.Mapping, p core.Predicate, seed uint64) *Frugal {
	return NewFrugal(Unbounded, m, p, seed)
}

// GetToken implements Oracle.
func (o *Frugal) GetToken(m tape.Merit, parent *core.Block, creator, round int, payload []byte) (*core.Block, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.getCalls++
	cell := o.tapes.Tape(m).Pop()
	if cell != tape.Token {
		return nil, false
	}
	if parent == nil {
		return nil, false
	}
	b := core.NewBlock(parent.ID, parent.Height+1, creator, round, payload)
	b = b.WithToken(TokenName(parent.ID))
	if !o.p.Valid(b) {
		return nil, false
	}
	o.grants++
	return b, true
}

// ConsumeToken implements Oracle.
func (o *Frugal) ConsumeToken(b *core.Block) ([]*core.Block, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if b == nil || b.Token == "" || b.Token != TokenName(b.Parent) || !o.p.Valid(b) {
		o.rejected++
		return o.kLocked(b), false
	}
	set := o.ks[b.Parent]
	for _, prev := range set {
		if prev.ID == b.ID {
			// A token is consumed at most once: re-consuming
			// the same validated block is a no-op failure.
			o.rejected++
			return o.kLocked(b), false
		}
	}
	if len(set) >= o.k {
		o.rejected++
		return o.kLocked(b), false
	}
	o.ks[b.Parent] = append(set, b)
	o.consumed++
	return o.kLocked(b), true
}

func (o *Frugal) kLocked(b *core.Block) []*core.Block {
	if b == nil {
		return nil
	}
	set := o.ks[b.Parent]
	out := make([]*core.Block, len(set))
	copy(out, set)
	return out
}

// K implements Oracle.
func (o *Frugal) K(parent core.BlockID) []*core.Block {
	o.mu.Lock()
	defer o.mu.Unlock()
	set := o.ks[parent]
	out := make([]*core.Block, len(set))
	copy(out, set)
	return out
}

// MaxForks implements Oracle.
func (o *Frugal) MaxForks() int { return o.k }

// Name implements Oracle.
func (o *Frugal) Name() string {
	if o.k == Unbounded {
		return "ΘP"
	}
	return fmt.Sprintf("ΘF,k=%d", o.k)
}

// Stats reports (getToken calls, grants, consumed, rejected) counters for
// experiment reports.
func (o *Frugal) Stats() (gets, grants, consumed, rejected int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.getCalls, o.grants, o.consumed, o.rejected
}

// MineToken loops getToken until the oracle grants a token — the
// τ_b ∘ τ_a* refinement step of Definition 3.7 in which getToken is
// repeated "as long as it returns a token". maxAttempts bounds the loop
// for finite executions (0 means 2^20 attempts); the second return value
// reports how many getToken calls were made.
func MineToken(o Oracle, m tape.Merit, parent *core.Block, creator, round int, payload []byte, maxAttempts int) (*core.Block, int) {
	if maxAttempts <= 0 {
		maxAttempts = 1 << 20
	}
	for i := 1; i <= maxAttempts; i++ {
		if b, ok := o.GetToken(m, parent, creator, round, payload); ok {
			return b, i
		}
	}
	return nil, maxAttempts
}

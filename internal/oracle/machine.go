package oracle

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/adt"
	"repro/internal/core"
	"repro/internal/tape"
)

// This file instantiates the Θ-ADT (Definitions 3.5-3.6) as a sequential
// adt.Machine, mirroring the transition system of Figure 6. The abstract
// state ξ = ({tape_α1, tape_α2, ...}, K, k) is modeled as immutable tape
// *positions* over a shared lazily-materialized tape set (popping a tape
// advances its position in the successor state), so Step never mutates
// its argument, as the framework requires.

// ThetaState is the abstract oracle state for the machine instance.
type ThetaState struct {
	// Pos maps each merit to the number of cells popped from its tape.
	Pos map[tape.Merit]int
	// K maps each object (parent block ID) to the validated blocks
	// whose tokens were consumed for it.
	K map[core.BlockID][]*core.Block
	// KBound is k (Unbounded for Θ_P).
	KBound int

	tapes *tape.Set
}

func (s ThetaState) clone() ThetaState {
	ns := ThetaState{
		Pos:    make(map[tape.Merit]int, len(s.Pos)),
		K:      make(map[core.BlockID][]*core.Block, len(s.K)),
		KBound: s.KBound,
		tapes:  s.tapes,
	}
	for m, p := range s.Pos {
		ns.Pos[m] = p
	}
	for id, set := range s.K {
		cp := make([]*core.Block, len(set))
		copy(cp, set)
		ns.K[id] = cp
	}
	return ns
}

// GetTokenInput is the input symbol getToken(obj_h, obj_ℓ) invoked by a
// process with merit Merit: gain a token to chain a block with the given
// payload to Parent.
type GetTokenInput struct {
	Merit   tape.Merit
	Parent  *core.Block
	Creator int
	Round   int
	Payload []byte
}

// Op returns "getToken".
func (g GetTokenInput) Op() string { return "getToken" }

// Key distinguishes getToken symbols by merit and target object.
func (g GetTokenInput) Key() string {
	return fmt.Sprintf("getToken(α=%g,%s)", float64(g.Merit), g.Parent.ID.Short())
}

// ConsumeTokenInput is the input symbol consumeToken(obj^{tkn_h}_ℓ).
type ConsumeTokenInput struct{ Block *core.Block }

// Op returns "consumeToken".
func (c ConsumeTokenInput) Op() string { return "consumeToken" }

// Key distinguishes consumeToken symbols by the validated block.
func (c ConsumeTokenInput) Key() string {
	return fmt.Sprintf("consumeToken(%s)", c.Block.ID.Short())
}

// TokenOutput is the output of getToken: the validated block, or ⊥.
type TokenOutput struct{ Block *core.Block }

// Encode renders the validated block ID or "⊥".
func (t TokenOutput) Encode() string {
	if t.Block == nil {
		return "⊥"
	}
	return "obj^tkn:" + string(t.Block.ID.Short())
}

// KSetOutput is the output of consumeToken: get(K, h).
type KSetOutput struct{ Set []*core.Block }

// Encode renders the K[h] contents as a sorted ID set.
func (k KSetOutput) Encode() string {
	ids := make([]string, len(k.Set))
	for i, b := range k.Set {
		ids[i] = b.ID.Short()
	}
	sort.Strings(ids)
	return "{" + strings.Join(ids, ",") + "}"
}

// NewThetaMachine builds the Θ_F,k machine (Θ_P with k = Unbounded) over
// tapes seeded with seed and validity predicate P (nil means well-formed).
func NewThetaMachine(k int, m tape.Mapping, p core.Predicate, seed uint64) *adt.Machine[ThetaState] {
	if k < 1 {
		panic("oracle: k must be >= 1")
	}
	if p == nil {
		p = core.WellFormed{}
	}
	tapes := tape.NewSet(m, seed)
	return &adt.Machine[ThetaState]{
		Name: fmt.Sprintf("Θ-ADT(k=%d)", k),
		Initial: func() ThetaState {
			return ThetaState{
				Pos:    make(map[tape.Merit]int),
				K:      make(map[core.BlockID][]*core.Block),
				KBound: k,
				tapes:  tapes,
			}
		},
		Step: func(st ThetaState, in adt.Input) (ThetaState, adt.Output) {
			switch sym := in.(type) {
			case GetTokenInput:
				ns := st.clone()
				pos := st.Pos[sym.Merit]
				cell := st.tapes.Tape(sym.Merit).Peek(pos)
				ns.Pos[sym.Merit] = pos + 1
				if cell != tape.Token || sym.Parent == nil {
					return ns, TokenOutput{}
				}
				b := core.NewBlock(sym.Parent.ID, sym.Parent.Height+1, sym.Creator, sym.Round, sym.Payload)
				b = b.WithToken(TokenName(sym.Parent.ID))
				if !p.Valid(b) {
					return ns, TokenOutput{}
				}
				return ns, TokenOutput{Block: b}
			case ConsumeTokenInput:
				b := sym.Block
				if b == nil || b.Token != TokenName(b.Parent) || !p.Valid(b) {
					return st, KSetOutput{Set: st.K[blockParent(b)]}
				}
				set := st.K[b.Parent]
				for _, prev := range set {
					if prev.ID == b.ID {
						return st, KSetOutput{Set: set}
					}
				}
				if len(set) >= st.KBound {
					return st, KSetOutput{Set: set}
				}
				ns := st.clone()
				ns.K[b.Parent] = append(ns.K[b.Parent], b)
				return ns, KSetOutput{Set: ns.K[b.Parent]}
			default:
				panic(fmt.Sprintf("oracle: Θ-ADT does not accept input %T", in))
			}
		},
		Equal: func(a, b ThetaState) bool {
			if len(a.Pos) != len(b.Pos) || len(a.K) != len(b.K) {
				return false
			}
			for m, p := range a.Pos {
				if b.Pos[m] != p {
					return false
				}
			}
			for id, set := range a.K {
				other := b.K[id]
				if len(other) != len(set) {
					return false
				}
				for i := range set {
					if set[i].ID != other[i].ID {
						return false
					}
				}
			}
			return true
		},
	}
}

func blockParent(b *core.Block) core.BlockID {
	if b == nil {
		return ""
	}
	return b.Parent
}

package tape

import "fmt"

// Cell is one symbol of a merit tape: either Token (the string "tkn" in
// the paper's alphabet) or Bottom (⊥).
type Cell uint8

// The two symbols of the tape alphabet {tkn, ⊥}.
const (
	Bottom Cell = iota // ⊥: the getToken attempt fails
	Token              // tkn: the oracle grants a token
)

// String renders the symbol as in the paper's figures.
func (c Cell) String() string {
	if c == Token {
		return "tkn"
	}
	return "⊥"
}

// Merit is the α parameter of the paper: a rational value characterizing
// an invoking process (e.g. its hashing power in Bitcoin, its stake in
// Algorand). The oracle — not the process — knows the merit.
type Merit float64

// Mapping is the paper's m ∈ M: a function from merits to token
// probabilities. The canonical mapping is the identity on [0,1] (merit
// is already a normalized probability); protocol simulators may supply
// their own, e.g. to model difficulty adjustment.
type Mapping func(Merit) float64

// IdentityMapping treats the merit itself as the per-cell token
// probability, clamped to [0,1].
func IdentityMapping(a Merit) float64 {
	p := float64(a)
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// DifficultyMapping returns a Mapping that scales merit by 1/difficulty,
// modelling proof-of-work difficulty: higher difficulty lowers every
// process's per-step success probability proportionally.
func DifficultyMapping(difficulty float64) Mapping {
	if difficulty <= 0 {
		panic("tape: non-positive difficulty")
	}
	return func(a Merit) float64 {
		return IdentityMapping(a) / difficulty
	}
}

// Tape is one infinite pseudorandom tape tape_α of Figure 5, materialized
// lazily: cells are generated on demand from a deterministic stream, and a
// cursor tracks how many cells have been popped. head() and pop() follow
// the paper's definitions: head returns the first unconsumed cell, pop
// consumes it.
type Tape struct {
	merit  Merit
	prob   float64
	rng    *RNG
	cursor int // number of cells popped so far
	// lookahead holds generated-but-not-popped cells so that Head
	// followed by Pop observes the same cell, as the ADT requires.
	lookahead []Cell
}

// NewTape creates the tape for merit α under mapping m, seeded
// deterministically from seed. Two tapes built with the same arguments
// are identical cell-for-cell.
func NewTape(a Merit, m Mapping, seed uint64) *Tape {
	if m == nil {
		m = IdentityMapping
	}
	return &Tape{merit: a, prob: m(a), rng: NewRNG(seed)}
}

func (t *Tape) generate() Cell {
	if t.rng.Bernoulli(t.prob) {
		return Token
	}
	return Bottom
}

// Head returns the first unconsumed cell without consuming it
// (the paper's head function).
func (t *Tape) Head() Cell {
	if len(t.lookahead) == 0 {
		t.lookahead = append(t.lookahead, t.generate())
	}
	return t.lookahead[0]
}

// Pop consumes and returns the first unconsumed cell
// (the paper's pop function).
func (t *Tape) Pop() Cell {
	c := t.Head()
	t.lookahead = t.lookahead[1:]
	t.cursor++
	return c
}

// Peek returns cell i (0-based, relative to the current cursor) without
// consuming anything. It extends the lookahead as needed. Peek(0) is Head.
func (t *Tape) Peek(i int) Cell {
	if i < 0 {
		panic("tape: negative Peek index")
	}
	for len(t.lookahead) <= i {
		t.lookahead = append(t.lookahead, t.generate())
	}
	return t.lookahead[i]
}

// String summarizes the tape for diagnostics, e.g. "tape(α=0.25 pos=3)".
func (t *Tape) String() string {
	return fmt.Sprintf("tape(α=%g pos=%d)", float64(t.merit), t.cursor)
}

// Set is the oracle-state collection of tapes, one per merit, all derived
// from one master seed (the infinite set of tapes in Figure 5). Tapes are
// created lazily on first access; the per-tape seed is a deterministic
// function of the master seed and the merit's registration order, so a
// Set is reproducible given the same access pattern.
type Set struct {
	mapping Mapping
	master  *RNG
	tapes   map[Merit]*Tape
}

// NewSet creates an empty tape set under mapping m (nil means identity),
// seeded with seed.
func NewSet(m Mapping, seed uint64) *Set {
	if m == nil {
		m = IdentityMapping
	}
	return &Set{mapping: m, master: NewRNG(seed), tapes: make(map[Merit]*Tape)}
}

// Tape returns the tape for merit α, creating it on first use.
func (s *Set) Tape(a Merit) *Tape {
	if t, ok := s.tapes[a]; ok {
		return t
	}
	t := NewTape(a, s.mapping, s.master.Uint64())
	s.tapes[a] = t
	return t
}

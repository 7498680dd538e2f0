package core

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"unsafe"
)

// Predicate is the paper's application-dependent validity predicate P:
// B → {true, false}. A block b belongs to B′ (the valid blocks) iff
// P(b) = ⊤. The BT-ADT only ever appends blocks satisfying P, and the
// Block Validity consistency property checks every read against it.
//
// P judges block *content*; Token is oracle metadata and a predicate must
// not read it: replicas hand P the delivered block, stamp included, and b
// and b.WithToken(t) get one verdict. P is pure and safe for concurrent
// use — every replica and the monitor call one P, and in a live run each
// node's event loop and the monitor's consumer run on goroutines of
// their own.
type Predicate interface {
	Valid(*Block) bool
	Name() string
}

// PredicateFunc adapts a plain function to the Predicate interface.
func PredicateFunc(name string, fn func(*Block) bool) Predicate {
	return funcPredicate{name: name, fn: fn}
}

type funcPredicate struct {
	name string
	fn   func(*Block) bool
}

// Valid applies the wrapped function.
func (p funcPredicate) Valid(b *Block) bool { return p.fn(b) }

// Name returns the name given at construction.
func (p funcPredicate) Name() string { return p.name }

// AlwaysValid accepts every block — the weakest useful P, letting
// experiments exercise the pure data-structure behaviour.
type AlwaysValid struct{}

// Valid returns true for every block.
func (AlwaysValid) Valid(*Block) bool { return true }

// Name returns "always".
func (AlwaysValid) Name() string { return "always" }

// WellFormed accepts blocks whose ID matches the content hash of their
// fields — the structural half of real-chain validity (a block commits to
// its parent and payload). Genesis is valid by assumption.
//
// Every replica of a run is handed the same immutable *Block and each
// must call P on it (update_i of Section 4.2; the call count is the
// model), so a positive verdict is remembered on the object itself
// (Block.valid) and the N−1 later calls cost one atomic load. The memo is
// keyed by object identity, never by ID: a struct copy, a block another
// live node decoded off the wire, a forged twin reusing a validated ID —
// none holds its own address, each is hashed. A refusal is not
// remembered.
type WellFormed struct{}

// Valid compares the ID with the content hash (allocation-free: the
// digest and hex encoding stay on the stack), once per block object.
func (WellFormed) Valid(b *Block) bool {
	if b == nil {
		return false
	}
	if b.IsGenesis() {
		return true
	}
	if atomic.LoadPointer(&b.valid) == unsafe.Pointer(b) {
		return true
	}
	if !hashMatches(b.ID, b.Parent, b.Creator, b.Round, b.Payload) {
		return false
	}
	atomic.StorePointer(&b.valid, unsafe.Pointer(b))
	return true
}

// Name returns "wellformed".
func (WellFormed) Name() string { return "wellformed" }

// Tx is one transfer in the toy ledger payload: From pays To the Amount.
// Account 0 is the mint: transfers from it create money (coinbase).
type Tx struct {
	From, To uint32
	Amount   uint32
}

// EncodeTxs serializes transactions into a block payload (little-endian
// From, To, Amount per record — the same wire format binary.Write
// produced, without its per-call reflection allocations).
func EncodeTxs(txs []Tx) []byte {
	out := make([]byte, 0, len(txs)*12)
	var rec [12]byte
	for _, tx := range txs {
		binary.LittleEndian.PutUint32(rec[0:4], tx.From)
		binary.LittleEndian.PutUint32(rec[4:8], tx.To)
		binary.LittleEndian.PutUint32(rec[8:12], tx.Amount)
		out = append(out, rec[:]...)
	}
	return out
}

// DecodeTxs parses a block payload back into transactions. A malformed
// payload (length not a multiple of the record size) yields an error,
// which the ledger predicate turns into "invalid block".
func DecodeTxs(payload []byte) ([]Tx, error) {
	const rec = 12 // 3 × uint32
	if len(payload)%rec != 0 {
		return nil, fmt.Errorf("core: payload length %d not a multiple of %d", len(payload), rec)
	}
	out := make([]Tx, len(payload)/rec)
	for i := range out {
		off := i * rec
		out[i] = Tx{
			From:   binary.LittleEndian.Uint32(payload[off : off+4]),
			To:     binary.LittleEndian.Uint32(payload[off+4 : off+8]),
			Amount: binary.LittleEndian.Uint32(payload[off+8 : off+12]),
		}
	}
	return out, nil
}

// LedgerPredicate is the "no double spend" example the paper gives for
// Bitcoin's P: a block is valid iff it is well-formed and its payload
// parses into transactions. (Whether the transactions are *spendable*
// depends on the chain the block extends, which is context the paper's
// P does not see; the chain-contextual check lives in LedgerState and is
// exercised by the protocol simulators when they build blocks.)
type LedgerPredicate struct{}

// Valid checks structural hash validity plus payload parseability.
func (LedgerPredicate) Valid(b *Block) bool {
	if !(WellFormed{}).Valid(b) {
		return false
	}
	if b.IsGenesis() {
		return true
	}
	_, err := DecodeTxs(b.Payload)
	return err == nil
}

// Name returns "ledger".
func (LedgerPredicate) Name() string { return "ledger" }

// RejectAll accepts nothing (except genesis, which is valid by
// assumption). Used by tests to check that append() of invalid blocks
// leaves the abstract state unchanged and returns false, as in Figure 1.
type RejectAll struct{}

// Valid returns true only for genesis.
func (RejectAll) Valid(b *Block) bool { return b != nil && b.IsGenesis() }

// Name returns "rejectall".
func (RejectAll) Name() string { return "rejectall" }

// LedgerState replays a chain's transactions to compute account balances,
// rejecting double spends. It provides the chain-contextual validity the
// protocol simulators use when *creating* blocks (the oracle only ever
// validates blocks that pass it).
type LedgerState struct {
	balances map[uint32]uint64
}

// NewLedgerState returns an empty ledger (all balances zero; account 0 is
// the mint and may always pay).
func NewLedgerState() *LedgerState {
	return &LedgerState{balances: make(map[uint32]uint64)}
}

// Balance returns the balance of an account.
func (l *LedgerState) Balance(acct uint32) uint64 { return l.balances[acct] }

// ApplyTx applies one transaction, failing on an overdraft.
func (l *LedgerState) ApplyTx(tx Tx) error {
	if tx.From != 0 {
		if l.balances[tx.From] < uint64(tx.Amount) {
			return fmt.Errorf("core: account %d overdraft: has %d, spends %d",
				tx.From, l.balances[tx.From], tx.Amount)
		}
		l.balances[tx.From] -= uint64(tx.Amount)
	}
	l.balances[tx.To] += uint64(tx.Amount)
	return nil
}

// ApplyBlock applies every transaction of the block, failing on the first
// invalid one (the block is then a double spend w.r.t. this state).
func (l *LedgerState) ApplyBlock(b *Block) error {
	if b.IsGenesis() {
		return nil
	}
	txs, err := DecodeTxs(b.Payload)
	if err != nil {
		return err
	}
	for _, tx := range txs {
		if err := l.ApplyTx(tx); err != nil {
			return err
		}
	}
	return nil
}

// Replay computes the ledger state at the head of the chain, or an error
// if any block double-spends.
func Replay(c Chain) (*LedgerState, error) {
	l := NewLedgerState()
	for _, b := range c {
		if err := l.ApplyBlock(b); err != nil {
			return nil, fmt.Errorf("core: replay %s: %w", b.ID.Short(), err)
		}
	}
	return l, nil
}

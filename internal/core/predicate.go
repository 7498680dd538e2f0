package core

import (
	"encoding/binary"
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

// Tx is one transfer of a block payload: From pays To the Amount.
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

package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"unsafe"
)

// BlockID identifies a block by the hex encoding of a content hash. Using
// a content hash (rather than an arbitrary label) gives the simulators the
// same structural property real blockchains rely on: a block commits to
// its parent, so a chain is self-certifying.
type BlockID string

// GenesisID is the identifier of the genesis block b0. It is the only
// block whose parent is the empty ID.
const GenesisID BlockID = "b0"

// Short returns an 8-character prefix of the ID for compact rendering in
// history visualizations.
func (id BlockID) Short() string {
	if len(id) <= 8 {
		return string(id)
	}
	return string(id[:8])
}

// Block is one vertex of the BlockTree. Blocks are immutable once
// created; all mutation happens at the tree level. One *Block is shared
// by every replica tree, the run's Index and the recorded history, and
// WellFormed remembers its verdict on the object: to change a field,
// change a copy (WithToken, nb := *b), which is judged afresh. Every
// block weighs one: a score or selector that weighs blocks (GHOST's
// subtree weight) counts them.
type Block struct {
	// ID is the content hash of the block (or "b0" for genesis).
	ID BlockID
	// Parent is the ID of the block this one chains to; empty for b0.
	Parent BlockID
	// Height is the distance to the root: genesis has height 0, a
	// block b_k appended to b_{k-1} has height k.
	Height int
	// Creator is the identifier of the process that produced the
	// block (the miner / proposer in protocol simulations).
	Creator int
	// Round is the protocol round or virtual time at which the block
	// was produced. Purely informational; used by visualizers.
	Round int
	// Payload is opaque application data; the validity predicate P may
	// inspect it (WellFormed hashes it into the ID).
	Payload []byte
	// Token, when non-empty, names the oracle token consumed to
	// validate this block (b^{tkn_h}_ℓ in the paper). The k-fork
	// coherence checker groups blocks by this field.
	Token string

	// valid is WellFormed's memo: the block's own address once
	// WellFormed.Valid accepted this very object, accessed atomically and
	// only there. A struct copy carries the original's address, not its
	// own, and is hashed again; a pointer (not a uintptr) keeps the
	// original alive, so its address is never a later copy's. A bare
	// unsafe.Pointer because blocks are copied by value, which vet's
	// copylocks forbids for the sync/atomic types. The codecs, JSON and
	// the digests never see it; reflect.DeepEqual does.
	valid unsafe.Pointer
}

// Genesis returns the genesis block b0. By assumption in the paper,
// b0 ∈ B′ (it is valid) and it belongs to every BlockTree.
func Genesis() *Block {
	return &Block{ID: GenesisID, Height: 0, Creator: -1}
}

// hashBlockSum computes the content hash preimage and digest on the
// stack: parent ID bytes, then creator and round as little-endian
// uint64s, then the payload — exactly the byte stream the original
// streaming implementation hashed, so IDs are unchanged.
func hashBlockSum(parent BlockID, creator, round int, payload []byte) [32]byte {
	var stack [192]byte
	buf := append(stack[:0], parent...)
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[:8], uint64(int64(creator)))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(int64(round)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	return sha256.Sum256(buf)
}

// HashBlock computes the content ID for a block chaining to parent with
// the given creator, round and payload. The hash commits to every field
// that determines the block's identity. One allocation: the ID string
// itself.
func HashBlock(parent BlockID, creator, round int, payload []byte) BlockID {
	sum := hashBlockSum(parent, creator, round, payload)
	var dst [64]byte
	hex.Encode(dst[:], sum[:])
	return BlockID(dst[:])
}

// hashMatches reports whether id equals the content hash of the given
// fields without materializing the hex string — the allocation-free
// comparison WellFormed runs once per distinct block object.
func hashMatches(id BlockID, parent BlockID, creator, round int, payload []byte) bool {
	if len(id) != 64 {
		return false
	}
	sum := hashBlockSum(parent, creator, round, payload)
	var dst [64]byte
	hex.Encode(dst[:], sum[:])
	return string(dst[:]) == string(id)
}

// NewBlock builds a block chaining to parent, computing its content ID.
// The height must be supplied by the caller (parent height + 1); the tree
// re-checks it on insertion.
func NewBlock(parent BlockID, height, creator, round int, payload []byte) *Block {
	return &Block{
		ID:      HashBlock(parent, creator, round, payload),
		Parent:  parent,
		Height:  height,
		Creator: creator,
		Round:   round,
		Payload: payload,
	}
}

// WithToken returns a copy of b carrying the consumed oracle token name.
func (b *Block) WithToken(tok string) *Block {
	nb := *b
	nb.Token = tok
	return &nb
}

// IsGenesis reports whether b is the genesis block.
func (b *Block) IsGenesis() bool { return b.ID == GenesisID }

// String renders the block compactly, e.g. "blk(3f2a9c1d h=4 by p2)".
func (b *Block) String() string {
	if b.IsGenesis() {
		return "b0"
	}
	return fmt.Sprintf("blk(%s h=%d by p%d)", b.ID.Short(), b.Height, b.Creator)
}

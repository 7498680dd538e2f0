package core

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

// TestAlwaysAndRejectAll: AlwaysValid accepts everything, and the
// reject-all predicate other packages' tests build with PredicateFunc
// accepts genesis alone (b0 ∈ B′ by assumption).
func TestAlwaysAndRejectAll(t *testing.T) {
	b := NewBlock(GenesisID, 1, 0, 0, nil)
	if !(AlwaysValid{}).Valid(b) || !(AlwaysValid{}).Valid(nil) {
		t.Error("AlwaysValid rejected something")
	}
	rejectAll := PredicateFunc("rejectall", func(b *Block) bool { return b.IsGenesis() })
	if rejectAll.Valid(b) {
		t.Error("rejectall accepted a block")
	}
	if !rejectAll.Valid(Genesis()) {
		t.Error("rejectall rejected genesis")
	}
}

func TestWellFormed(t *testing.T) {
	b := NewBlock(GenesisID, 1, 3, 4, []byte("ok"))
	if !(WellFormed{}).Valid(b) {
		t.Fatal("well-formed block rejected")
	}
	tampered := *b
	tampered.Payload = []byte("evil")
	if (WellFormed{}).Valid(&tampered) {
		t.Fatal("tampered payload accepted")
	}
	reparented := *b
	reparented.Parent = "other"
	if (WellFormed{}).Valid(&reparented) {
		t.Fatal("reparented block accepted")
	}
	if (WellFormed{}).Valid(nil) {
		t.Fatal("nil accepted")
	}
	if !(WellFormed{}).Valid(Genesis()) {
		t.Fatal("genesis rejected")
	}
}

func TestPredicateFunc(t *testing.T) {
	p := PredicateFunc("even-rounds", func(b *Block) bool { return b.Round%2 == 0 })
	if p.Name() != "even-rounds" {
		t.Errorf("name %q", p.Name())
	}
	if !p.Valid(NewBlock(GenesisID, 1, 0, 2, nil)) || p.Valid(NewBlock(GenesisID, 1, 0, 3, nil)) {
		t.Error("wrapped predicate misbehaves")
	}
}

// TestTxRoundTrip pins EncodeTxs's wire format, which every simulated
// block's payload, and so its ID, rests on: little-endian From, To,
// Amount, 12 bytes a transaction.
func TestTxRoundTrip(t *testing.T) {
	got := EncodeTxs([]Tx{{From: 0, To: 1, Amount: 50}, {From: 1, To: 2, Amount: 0x01020304}})
	want := []byte{
		0, 0, 0, 0, 1, 0, 0, 0, 50, 0, 0, 0,
		1, 0, 0, 0, 2, 0, 0, 0, 4, 3, 2, 1,
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("EncodeTxs = %v, want %v", got, want)
	}
}

// Property: reading the 12-byte records back gives the transactions
// encoded, for arbitrary tx vectors.
func TestQuickTxRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		var txs []Tx
		for i := 0; i+2 < len(raw); i += 3 {
			txs = append(txs, Tx{From: raw[i], To: raw[i+1], Amount: raw[i+2]})
		}
		p := EncodeTxs(txs)
		if len(p) != 12*len(txs) {
			return false
		}
		for i, tx := range txs {
			r := p[12*i:]
			if (Tx{binary.LittleEndian.Uint32(r), binary.LittleEndian.Uint32(r[4:]), binary.LittleEndian.Uint32(r[8:])}) != tx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

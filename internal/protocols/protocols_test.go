package protocols

import (
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/tape"
)

func TestNormDefaults(t *testing.T) {
	c := &Config{}
	m := c.Norm()
	if c.N != 4 || c.Rounds != 50 || c.ReadEvery != 10 {
		t.Fatalf("defaults %+v", c)
	}
	if len(m) != 4 {
		t.Fatalf("merits %v", m)
	}
	var sum float64
	for _, a := range m {
		sum += float64(a)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("merits not normalized: %v", m)
	}
}

func TestNormCustomMerits(t *testing.T) {
	c := &Config{N: 3, Merits: []tape.Merit{3, 1, 0}}
	m := c.Norm()
	if m[0] != 0.75 || m[1] != 0.25 || m[2] != 0 {
		t.Fatalf("normalized %v", m)
	}
}

func TestNormShortMeritVector(t *testing.T) {
	c := &Config{N: 4, Merits: []tape.Merit{1, 1}}
	m := c.Norm()
	if len(m) != 4 {
		t.Fatalf("merits %v", m)
	}
	if m[0] != 0.5 || m[1] != 0.5 {
		t.Fatalf("normalized %v", m)
	}
}

// TestCoinbasePayloadDecodes reads the payload back as EncodeTxs's
// 12-byte records: one or two mints, the first 50 units to the creator.
func TestCoinbasePayloadDecodes(t *testing.T) {
	for round := 0; round < 10; round++ {
		p, records := CoinbasePayload(2, round), 1
		if round%3 == 0 {
			records = 2
		}
		if len(p) != 12*records {
			t.Fatalf("round %d: %d bytes, want %d records", round, len(p), records)
		}
		first := core.Tx{From: binary.LittleEndian.Uint32(p), To: binary.LittleEndian.Uint32(p[4:]), Amount: binary.LittleEndian.Uint32(p[8:])}
		if first != (core.Tx{From: 0, To: 3, Amount: 50}) {
			t.Fatalf("round %d coinbase wrong: %+v", round, first)
		}
	}
}

func TestResultForkMaxAndHeights(t *testing.T) {
	tr := core.NewTree()
	g := core.Genesis()
	a := core.NewBlock(g.ID, 1, 0, 1, nil)
	b := core.NewBlock(g.ID, 1, 1, 2, nil)
	if err := tr.Attach(a); err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach(b); err != nil {
		t.Fatal(err)
	}
	r := &Result{Trees: []*core.Tree{tr, core.NewTree()}, Selector: core.LongestChain{}}
	r.computeForkMax()
	if r.MeasuredForkMax != 2 {
		t.Fatalf("fork max %d", r.MeasuredForkMax)
	}
	hs := r.FinalHeights()
	if len(hs) != 2 || hs[0] != 0 || hs[1] != 1 {
		t.Fatalf("heights %v", hs)
	}
}

package protocols

import (
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

func TestCoinbasePayloadDecodes(t *testing.T) {
	for round := 0; round < 10; round++ {
		p := CoinbasePayload(2, round)
		txs, err := core.DecodeTxs(p)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(txs) == 0 || txs[0].From != 0 || txs[0].To != 3 || txs[0].Amount != 50 {
			t.Fatalf("round %d coinbase wrong: %v", round, txs)
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

package protocols

import (
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/tape"
)

// sureFrugal is ΘF,k whose every draw with positive merit grants.
func sureFrugal(k int) *oracle.Frugal {
	return oracle.NewFrugal(k, func(a tape.Merit) float64 {
		if a <= 0 {
			return 0
		}
		return 1
	}, core.WellFormed{}, 1)
}

func TestTokenWithoutMeritDrawsNothingUnderMineCap(t *testing.T) {
	d := &Definition{MineCap: 1 << 12}
	orc := sureFrugal(1)
	b, draws := d.Token(orc, 0, core.Genesis(), 3, 0, nil)
	if gets, _, _, _ := orc.Stats(); b != nil || draws != 0 || gets != 0 {
		t.Fatalf("merit 0 under MineCap: block %v after %d draws, oracle saw %d getToken calls — want none", b, draws, gets)
	}
	// Without MineCap the same process plays the lottery once and loses.
	b, draws = (&Definition{}).Token(orc, 0, core.Genesis(), 3, 0, nil)
	if gets, _, _, _ := orc.Stats(); b != nil || draws != 1 || gets != 1 {
		t.Fatalf("merit 0, one draw: block %v after %d draws, %d getToken calls", b, draws, gets)
	}
}

func TestMintRefusesConsumedHeightToken(t *testing.T) {
	d := &Definition{MineCap: 8}
	orc := sureFrugal(1)
	g := core.Genesis()
	first := d.Mint(orc, 1, g, 0, g.Height, CoinbasePayload(0, 1))
	if first == nil || first.Parent != g.ID || first.Token != oracle.TokenName(g.ID) {
		t.Fatalf("first mint on genesis: %v", first)
	}
	if again := d.Mint(orc, 1, g, 1, g.Height, CoinbasePayload(1, 2)); again != nil {
		t.Fatalf("k=1: second mint on the consumed height returned %v", again)
	}
	if next := d.Mint(orc, 1, first, 1, first.Height, CoinbasePayload(1, 3)); next == nil {
		t.Fatal("the next height's token was refused too")
	}
	if _, _, consumed, rejected := orc.Stats(); consumed != 2 || rejected != 1 {
		t.Fatalf("oracle consumed %d, rejected %d — want 2 and 1", consumed, rejected)
	}
}

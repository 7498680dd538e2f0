package core

import (
	"testing"
	"testing/quick"
)

func TestGenesisProperties(t *testing.T) {
	g := Genesis()
	if !g.IsGenesis() {
		t.Fatal("Genesis() not genesis")
	}
	if g.ID != GenesisID || g.Height != 0 || g.Parent != "" {
		t.Fatalf("unexpected genesis: %+v", g)
	}
}

func TestHashBlockDeterministic(t *testing.T) {
	a := HashBlock(GenesisID, 1, 2, []byte("x"))
	b := HashBlock(GenesisID, 1, 2, []byte("x"))
	if a != b {
		t.Fatal("same inputs hashed differently")
	}
}

func TestHashBlockSensitivity(t *testing.T) {
	base := HashBlock(GenesisID, 1, 2, []byte("x"))
	variants := []BlockID{
		HashBlock("other", 1, 2, []byte("x")),
		HashBlock(GenesisID, 9, 2, []byte("x")),
		HashBlock(GenesisID, 1, 9, []byte("x")),
		HashBlock(GenesisID, 1, 2, []byte("y")),
	}
	for i, v := range variants {
		if v == base {
			t.Errorf("variant %d collided with base", i)
		}
	}
}

func TestNewBlockFields(t *testing.T) {
	b := NewBlock(GenesisID, 1, 3, 7, []byte("p"))
	if b.Parent != GenesisID || b.Height != 1 || b.Creator != 3 || b.Round != 7 {
		t.Fatalf("fields wrong: %+v", b)
	}
	if b.ID != HashBlock(GenesisID, 3, 7, []byte("p")) {
		t.Fatal("ID does not match content hash")
	}
}

func TestWithTokenDoesNotMutate(t *testing.T) {
	b := NewBlock(GenesisID, 1, 0, 0, nil)
	tk := b.WithToken("tkn(b0)")
	if b.Token != "" {
		t.Fatal("original block mutated")
	}
	if tk.Token != "tkn(b0)" || tk.ID != b.ID {
		t.Fatal("WithToken wrong")
	}
}

func TestBlockIDShort(t *testing.T) {
	if GenesisID.Short() != "b0" {
		t.Errorf("short of b0 = %q", GenesisID.Short())
	}
	long := BlockID("0123456789abcdef")
	if long.Short() != "01234567" {
		t.Errorf("short = %q", long.Short())
	}
}

func TestBlockString(t *testing.T) {
	if Genesis().String() != "b0" {
		t.Errorf("genesis String = %q", Genesis().String())
	}
	b := NewBlock(GenesisID, 1, 2, 0, nil)
	if s := b.String(); s == "" || s == "b0" {
		t.Errorf("block String = %q", s)
	}
}

// Property: distinct (creator, round, payload) triples never collide
// (SHA-256 collision would be required).
func TestQuickHashInjective(t *testing.T) {
	f := func(c1, c2 uint8, r1, r2 uint8, p1, p2 []byte) bool {
		if c1 == c2 && r1 == r2 && string(p1) == string(p2) {
			return true // identical inputs may (must) collide
		}
		a := HashBlock(GenesisID, int(c1), int(r1), p1)
		b := HashBlock(GenesisID, int(c2), int(r2), p2)
		return a != b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

package oracle

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/tape"
)

func TestTokenName(t *testing.T) {
	if TokenName("abc") != "tkn(abc)" {
		t.Fatalf("token name %q", TokenName("abc"))
	}
}

func TestGetTokenGrantsValidatedBlock(t *testing.T) {
	o := NewProdigal(nil, core.WellFormed{}, 1)
	g := core.Genesis()
	b, attempts := MineToken(o, 0.5, g, 3, 7, []byte("x"), 0)
	if b == nil {
		t.Fatal("no token in 2^20 attempts at p=0.5")
	}
	if attempts < 1 {
		t.Fatal("attempt count wrong")
	}
	if b.Parent != g.ID || b.Height != 1 || b.Creator != 3 || b.Round != 7 {
		t.Fatalf("validated block wrong: %+v", b)
	}
	if b.Token != TokenName(g.ID) {
		t.Fatalf("token %q", b.Token)
	}
}

func TestGetTokenRespectsMeritZero(t *testing.T) {
	o := NewProdigal(nil, core.WellFormed{}, 1)
	g := core.Genesis()
	for i := 0; i < 100; i++ {
		if _, ok := o.GetToken(0, g, 0, i, nil); ok {
			t.Fatal("merit-0 process got a token")
		}
	}
}

func TestGetTokenNilParent(t *testing.T) {
	o := NewProdigal(nil, core.AlwaysValid{}, 1)
	if _, ok := o.GetToken(1, nil, 0, 0, nil); ok {
		t.Fatal("token granted for nil parent")
	}
}

func TestGetTokenRejectsInvalidPredicate(t *testing.T) {
	o := NewProdigal(nil, core.PredicateFunc("rejectall", (*core.Block).IsGenesis), 1)
	g := core.Genesis()
	for i := 0; i < 64; i++ {
		if _, ok := o.GetToken(1, g, 0, i, nil); ok {
			t.Fatal("oracle validated a block with P(b)=false")
		}
	}
}

func TestConsumeTokenFrugalBound(t *testing.T) {
	o := NewFrugal(2, nil, core.WellFormed{}, 3)
	g := core.Genesis()
	consumed := 0
	for i := 0; i < 64; i++ {
		b, ok := o.GetToken(0.9, g, i, i, []byte{byte(i)})
		if !ok {
			continue
		}
		if _, ok := o.ConsumeToken(b); ok {
			consumed++
		}
	}
	if consumed != 2 {
		t.Fatalf("consumed %d tokens for one object at k=2", consumed)
	}
	if got := len(o.K(g.ID)); got != 2 {
		t.Fatalf("|K[b0]| = %d", got)
	}
}

func TestConsumeTokenIdempotentPerBlock(t *testing.T) {
	o := NewFrugal(4, nil, core.WellFormed{}, 5)
	g := core.Genesis()
	b, _ := MineToken(o, 0.9, g, 0, 0, []byte("once"), 0)
	if _, ok := o.ConsumeToken(b); !ok {
		t.Fatal("first consume failed")
	}
	if _, ok := o.ConsumeToken(b); ok {
		t.Fatal("a token was consumed twice")
	}
	if got := len(o.K(g.ID)); got != 1 {
		t.Fatalf("|K| = %d after double consume", got)
	}
}

func TestConsumeTokenRejectsForgery(t *testing.T) {
	o := NewFrugal(4, nil, core.WellFormed{}, 7)
	g := core.Genesis()
	// No token at all.
	plain := core.NewBlock(g.ID, 1, 0, 0, nil)
	if _, ok := o.ConsumeToken(plain); ok {
		t.Fatal("tokenless block consumed")
	}
	// Token for a different object.
	wrong := plain.WithToken(TokenName("elsewhere"))
	if _, ok := o.ConsumeToken(wrong); ok {
		t.Fatal("mismatched token consumed")
	}
	// Tampered content under WellFormed.
	forged := plain.WithToken(TokenName(g.ID))
	forged.Payload = []byte("tampered")
	if _, ok := o.ConsumeToken(forged); ok {
		t.Fatal("tampered block consumed")
	}
	if _, ok := o.ConsumeToken(nil); ok {
		t.Fatal("nil consumed")
	}
}

func TestProdigalUnbounded(t *testing.T) {
	o := NewProdigal(nil, core.WellFormed{}, 11)
	g := core.Genesis()
	consumed := 0
	for i := 0; i < 200; i++ {
		if b, ok := o.GetToken(0.9, g, i, i, []byte{byte(i)}); ok {
			if _, ok2 := o.ConsumeToken(b); ok2 {
				consumed++
			}
		}
	}
	if consumed < 150 {
		t.Fatalf("prodigal consumed only %d/200", consumed)
	}
	if o.MaxForks() != Unbounded || o.Name() != "ΘP" {
		t.Fatalf("prodigal identity wrong: %d %s", o.MaxForks(), o.Name())
	}
}

func TestFrugalName(t *testing.T) {
	if got := NewFrugal(3, nil, nil, 0).Name(); got != "ΘF,k=3" {
		t.Fatalf("name %q", got)
	}
}

func TestNewFrugalPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 accepted")
		}
	}()
	NewFrugal(0, nil, nil, 0)
}

func TestStats(t *testing.T) {
	o := NewFrugal(1, nil, core.WellFormed{}, 13)
	g := core.Genesis()
	b, attempts := MineToken(o, 0.5, g, 0, 0, nil, 0)
	o.ConsumeToken(b)
	o.ConsumeToken(b) // rejected
	gets, grants, consumed, rejected := o.Stats()
	if gets != attempts || grants != 1 || consumed != 1 || rejected != 1 {
		t.Fatalf("stats %d/%d/%d/%d (attempts %d)", gets, grants, consumed, rejected, attempts)
	}
}

func TestOracleConcurrentSafety(t *testing.T) {
	o := NewFrugal(1, nil, core.WellFormed{}, 17)
	g := core.Genesis()
	var wg sync.WaitGroup
	wins := make([]bool, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _ := MineToken(o, 0.5, g, i, i, []byte{byte(i)}, 0)
			if b == nil {
				return
			}
			_, ok := o.ConsumeToken(b)
			wins[i] = ok
		}(i)
	}
	wg.Wait()
	n := 0
	for _, w := range wins {
		if w {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d winners at k=1", n)
	}
}

func TestMachineMatchesObject(t *testing.T) {
	// The sequential machine and the concurrent object, driven with
	// the same seed and the same operation sequence, must agree on
	// every output.
	const seed = 23
	obj := NewFrugal(2, nil, core.AlwaysValid{}, seed)
	m := NewThetaMachine(2, nil, core.AlwaysValid{}, seed)
	g := core.Genesis()
	st := m.Initial()

	for i := 0; i < 40; i++ {
		in := GetTokenInput{Merit: 0.5, Parent: g, Creator: 1, Round: i, Payload: []byte{byte(i)}}
		var out any
		st, out = m.Step(st, in)
		mb := out.(TokenOutput).Block
		ob, ook := obj.GetToken(0.5, g, 1, i, []byte{byte(i)})
		if (mb == nil) != !ook {
			t.Fatalf("step %d: machine granted=%v object granted=%v", i, mb != nil, ook)
		}
		if mb != nil && ob != nil && mb.ID != ob.ID {
			t.Fatalf("step %d: machine block %s, object block %s", i, mb.ID.Short(), ob.ID.Short())
		}
		if mb != nil {
			cin := ConsumeTokenInput{Block: mb}
			var cout any
			st, cout = m.Step(st, cin)
			mset := cout.(KSetOutput).Set
			oset, _ := obj.ConsumeToken(ob)
			if len(mset) != len(oset) {
				t.Fatalf("step %d: K sizes %d vs %d", i, len(mset), len(oset))
			}
		}
	}
}

func TestMachineStepPure(t *testing.T) {
	m := NewThetaMachine(1, nil, core.AlwaysValid{}, 29)
	g := core.Genesis()
	st := m.Initial()
	in := GetTokenInput{Merit: 1, Parent: g, Creator: 0, Round: 0, Payload: nil}
	next, out := m.Step(st, in)
	if len(st.Pos) != 0 {
		t.Fatal("Step mutated input state positions")
	}
	if next.Pos[1] != 1 {
		t.Fatal("successor state did not advance the tape")
	}
	b := out.(TokenOutput).Block
	if b == nil {
		t.Fatal("p=1 tape denied a token")
	}
	// Consuming on the original state must still see an empty K.
	_, out2 := m.Step(st, ConsumeTokenInput{Block: b})
	if got := out2.(KSetOutput); len(got.Set) != 1 {
		t.Fatalf("consume on fresh state: K=%s", got.Encode())
	}
}

func TestMachineConsumeBounds(t *testing.T) {
	m := NewThetaMachine(1, nil, core.AlwaysValid{}, 31)
	g := core.Genesis()
	st := m.Initial()
	var blocks []*core.Block
	for i := 0; len(blocks) < 2 && i < 64; i++ {
		var out any
		st, out = m.Step(st, GetTokenInput{Merit: 0.8, Parent: g, Creator: i, Round: i, Payload: []byte{byte(i)}})
		if b := out.(TokenOutput).Block; b != nil {
			blocks = append(blocks, b)
		}
	}
	if len(blocks) < 2 {
		t.Fatal("not enough tokens granted")
	}
	var out any
	st, out = m.Step(st, ConsumeTokenInput{Block: blocks[0]})
	if len(out.(KSetOutput).Set) != 1 {
		t.Fatal("first consume failed")
	}
	st, out = m.Step(st, ConsumeTokenInput{Block: blocks[1]})
	if len(out.(KSetOutput).Set) != 1 {
		t.Fatal("k=1 exceeded by machine")
	}
	_ = st
}

// Property: over any getToken/consumeToken schedule at k, the number of
// consumed tokens per object never exceeds k (Theorem 3.2 sampled).
func TestQuickKForkSafety(t *testing.T) {
	f := func(kRaw uint8, seed uint64, schedule []bool) bool {
		k := int(kRaw%4) + 1
		o := NewFrugal(k, nil, core.AlwaysValid{}, seed)
		g := core.Genesis()
		var pending []*core.Block
		for i, get := range schedule {
			if get || len(pending) == 0 {
				if b, ok := o.GetToken(0.7, g, i, i, []byte{byte(i)}); ok {
					pending = append(pending, b)
				}
			} else {
				b := pending[0]
				pending = pending[1:]
				o.ConsumeToken(b)
			}
			if len(o.K(g.ID)) > k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: tapes make grant frequency track the mapped merit.
func TestGrantFrequencyTracksMerit(t *testing.T) {
	o := NewProdigal(tape.DifficultyMapping(2), core.AlwaysValid{}, 41)
	g := core.Genesis()
	grants := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if _, ok := o.GetToken(0.5, g, 0, i, nil); ok {
			grants++
		}
	}
	got := float64(grants) / n
	if got < 0.22 || got > 0.28 { // 0.5/2 = 0.25 ± noise
		t.Fatalf("grant frequency %v, want ≈ 0.25", got)
	}
}

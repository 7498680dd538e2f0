package adt

import (
	"testing"

	"repro/internal/core"
)

func appendIn(b *core.Block) Input { return AppendInput{B: b} }

func block(parent core.BlockID, h, round int) *core.Block {
	return core.NewBlock(parent, h, 0, round, []byte{byte(round)})
}

func TestBTMachineReadInitial(t *testing.T) {
	m := NewBTMachine(nil, nil)
	_, outs := m.Run([]Input{ReadInput{}})
	c := outs[0].(ChainOutput).Chain
	if c.Height() != 0 || !c.Head().IsGenesis() {
		t.Fatalf("initial read returned %v, want b0", c)
	}
}

func TestBTMachineAppendGrowsSelectedChain(t *testing.T) {
	m := NewBTMachine(core.LongestChain{}, core.AlwaysValid{})
	word := []Input{
		appendIn(block(core.GenesisID, 1, 1)),
		ReadInput{},
		appendIn(block("", 0, 2)), // unchained block: machine re-chains it
		ReadInput{},
	}
	_, outs := m.Run(word)
	if outs[0].(BoolOutput) != true {
		t.Fatal("first append rejected")
	}
	c1 := outs[1].(ChainOutput).Chain
	c2 := outs[3].(ChainOutput).Chain
	if c1.Height() != 1 || c2.Height() != 2 {
		t.Fatalf("heights %d, %d", c1.Height(), c2.Height())
	}
	if !c1.Prefix(c2) {
		t.Fatal("sequential reads not prefix-ordered")
	}
}

func TestBTMachineRejectsInvalid(t *testing.T) {
	m := NewBTMachine(nil, core.PredicateFunc("rejectall", (*core.Block).IsGenesis))
	states, outs := m.Run([]Input{appendIn(block(core.GenesisID, 1, 1)), ReadInput{}})
	if outs[0].(BoolOutput) != false {
		t.Fatal("invalid append accepted")
	}
	if states[0].Tree.Len() != 1 {
		t.Fatal("rejected append changed the state")
	}
	if c := outs[1].(ChainOutput).Chain; c.Height() != 0 {
		t.Fatalf("read after rejected append: %v", c)
	}
}

func TestBTMachineStepDoesNotMutate(t *testing.T) {
	m := NewBTMachine(nil, nil)
	st := m.Initial()
	m.Step(st, appendIn(block(core.GenesisID, 1, 1)))
	if st.Tree.Len() != 1 {
		t.Fatal("Step mutated its input state")
	}
}

func TestAdmissibleAcceptsMachineOutputs(t *testing.T) {
	m := NewBTMachine(nil, nil)
	word := []Input{
		appendIn(block(core.GenesisID, 1, 1)),
		ReadInput{},
		ReadInput{},
	}
	_, outs := m.Run(word)
	var seq []Operation[BTState]
	for i := range word {
		seq = append(seq, Operation[BTState]{In: word[i], Out: outs[i]})
	}
	if ok, at, why := m.Admissible(seq); !ok {
		t.Fatalf("machine's own run inadmissible at %d: %s", at, why)
	}
}

func TestAdmissibleRejectsWrongOutput(t *testing.T) {
	m := NewBTMachine(nil, nil)
	b := block(core.GenesisID, 1, 1)
	seq := []Operation[BTState]{
		{In: appendIn(b), Out: BoolOutput(true)},
		// A read claiming the tree is still only b0: wrong.
		{In: ReadInput{}, Out: ChainOutput{Chain: core.GenesisChain()}},
	}
	ok, at, why := m.Admissible(seq)
	if ok {
		t.Fatal("wrong read output accepted")
	}
	if at != 1 || why == "" {
		t.Fatalf("wrong diagnostics: at=%d why=%q", at, why)
	}
}

func TestAdmissibleNilOutputsConstrainOnlyState(t *testing.T) {
	m := NewBTMachine(nil, nil)
	seq := []Operation[BTState]{
		{In: appendIn(block(core.GenesisID, 1, 1))}, // no recorded output
		{In: ReadInput{}},
	}
	if ok, _, why := m.Admissible(seq); !ok {
		t.Fatalf("output-free word rejected: %s", why)
	}
}

func TestLanguageEnumeration(t *testing.T) {
	m := NewBTMachine(nil, nil)
	alphabet := []Input{ReadInput{}, appendIn(block(core.GenesisID, 1, 7))}
	words := m.Language(alphabet, 3)
	if len(words) != 8 { // |A|^n = 2^3
		t.Fatalf("language size %d, want 8", len(words))
	}
	// Every enumerated word must be admissible.
	for _, w := range words {
		if ok, _, why := m.Admissible(w); !ok {
			t.Fatalf("enumerated word inadmissible: %s", why)
		}
	}
}

func TestOperationString(t *testing.T) {
	op := Operation[BTState]{In: ReadInput{}}
	if op.String() != "read()" {
		t.Errorf("bare op string %q", op.String())
	}
	op2 := Operation[BTState]{In: ReadInput{}, Out: BoolOutput(true)}
	if op2.String() != "read()/true" {
		t.Errorf("paired op string %q", op2.String())
	}
}

func TestBTMachineDoubleAppendSameBlock(t *testing.T) {
	// Appending the same block twice: the second append re-chains it
	// under the new head, but its ID collides with the already
	// attached block → the attach fails → append returns false.
	m := NewBTMachine(nil, core.AlwaysValid{})
	b := block(core.GenesisID, 1, 1)
	_, outs := m.Run([]Input{appendIn(b), appendIn(b), ReadInput{}})
	if outs[0].(BoolOutput) != true {
		t.Fatal("first append failed")
	}
	if outs[1].(BoolOutput) != false {
		t.Fatal("duplicate append succeeded")
	}
	if c := outs[2].(ChainOutput).Chain; c.Height() != 1 {
		t.Fatalf("chain height %d after duplicate append", c.Height())
	}
}

package refine

import (
	"sync"
	"testing"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/oracle"
)

func newBT(k int, seed uint64, rec *history.Recorder) *BT {
	return New(Config{
		Oracle:   oracle.NewFrugal(k, nil, core.WellFormed{}, seed),
		Recorder: rec,
	})
}

func TestReadInitial(t *testing.T) {
	bt := newBT(1, 1, nil)
	c := bt.Read(0)
	if c.Height() != 0 || !c.Head().IsGenesis() {
		t.Fatalf("initial read %v", c)
	}
}

func TestAppendExtendsSelectedChain(t *testing.T) {
	bt := newBT(1, 2, nil)
	var prev core.Chain = bt.Read(0)
	for i := 0; i < 5; i++ {
		b, ok := bt.Append(0, 0.9, i, []byte{byte(i)})
		if !ok || b == nil {
			t.Fatalf("append %d failed", i)
		}
		cur := bt.Read(0)
		if cur.Height() != i+1 {
			t.Fatalf("height %d after %d appends", cur.Height(), i+1)
		}
		if !prev.Prefix(cur) {
			t.Fatal("chain did not extend the previous read")
		}
		prev = cur
	}
	if bt.tree.MaxForkDegree() != 1 {
		t.Fatal("sequential appends forked the tree")
	}
}

func TestAppendRecordsHistory(t *testing.T) {
	rec := history.NewRecorder(2, nil)
	bt := newBT(1, 3, rec)
	b, _ := bt.Append(0, 0.9, 1, []byte("a"))
	// The tree is built on the recorder's block index: the append
	// interns its block there, and a read is recorded by its head and
	// materializes the chain the object returned.
	if rec.Table().Block(b.ID) != b {
		t.Fatal("the recorder's index does not hold the tree's blocks")
	}
	c := bt.Read(1)
	h := rec.Snapshot()
	var aps []*history.Op
	for _, op := range h.Ops {
		if op.Kind == history.OpAppend && !op.Pending && op.OK {
			aps = append(aps, op)
		}
	}
	if len(aps) != 1 || len(h.Reads()) != 1 {
		t.Fatalf("recorded %d appends, %d reads", len(aps), len(h.Reads()))
	}
	if rd := h.Reads()[0]; rd.Head != c.Head().ID || !rd.Chain().Equal(c) {
		t.Fatalf("recorded read %s, object returned %s", rd, c)
	}
	ap := aps[0]
	if ap.Block == nil || ap.Block.ID == "pending" {
		t.Fatal("final validated block not recorded")
	}
	// Block Validity must hold on the recorded history.
	chk := consistency.NewChecker(nil, core.WellFormed{})
	if rep := chk.BlockValidity(h); !rep.OK {
		t.Fatalf("block validity: %v", rep.Violations)
	}
}

func TestAppendFailsWhenMiningBudgetExhausted(t *testing.T) {
	// Merit 0 never yields a token: the append must terminate with
	// false after MaxMine attempts.
	bt := New(Config{
		Oracle:  oracle.NewFrugal(1, nil, core.WellFormed{}, 4),
		MaxMine: 16,
	})
	b, ok := bt.Append(0, 0, 0, nil)
	if ok || b != nil {
		t.Fatal("merit-0 append succeeded")
	}
	if bt.Read(0).Height() != 0 {
		t.Fatal("failed append changed the tree")
	}
}

func TestConcurrentAppendsLinearChain(t *testing.T) {
	// With k=1 and the atomic refined append, concurrent appenders
	// always extend the selected head: the tree remains a chain.
	rec := history.NewRecorder(4, nil)
	bt := newBT(1, 5, rec)
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				bt.Append(p, 0.9, i, []byte{byte(p), byte(i)})
				bt.Read(p)
			}
		}(p)
	}
	wg.Wait()
	// One read at each process once the appends have stopped: the
	// checker's liveness window (the last max(2, procs) reads) then holds
	// only convergent reads, as its finitary reading of EverGrowingTree
	// presumes. Without them a read below a later append can sit in that
	// window — an append near the end that drew no token lets one — and
	// the checker flags it, by design.
	for p := 0; p < 4; p++ {
		bt.Read(p)
	}
	if d := bt.tree.MaxForkDegree(); d > 1 {
		t.Fatalf("fork degree %d with atomic appends", d)
	}
	h := rec.Snapshot()
	chk := consistency.NewChecker(nil, core.WellFormed{})
	sc, ec := chk.Classify(h)
	if !sc.OK || !ec.OK {
		t.Fatalf("shared-object history not SC/EC: %s %s", sc, ec)
	}
	if rep := chk.KForkCoherence(h, 1); !rep.OK {
		t.Fatalf("k=1 coherence: %v", rep.Violations)
	}
}

func TestNewPanicsWithoutOracle(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil oracle accepted")
		}
	}()
	New(Config{})
}

func TestAccessors(t *testing.T) {
	o := oracle.NewFrugal(1, nil, nil, 6)
	bt := New(Config{Oracle: o, Selector: core.GHOST{}})
	if bt.o != o {
		t.Fatal("oracle not taken from the config")
	}
	if bt.f.Name() != "ghost" {
		t.Fatal("selector not taken from the config")
	}
}

func TestHierarchyShape(t *testing.T) {
	nodes, edges := Hierarchy(3)
	if len(nodes) != 5 {
		t.Fatalf("%d nodes", len(nodes))
	}
	if len(edges) != 6 {
		t.Fatalf("%d edges", len(edges))
	}
	// Every edge endpoint is a node.
	nodeSet := map[string]bool{}
	feasible := 0
	for _, n := range nodes {
		nodeSet[n.Name()] = true
		if n.Feasible {
			feasible++
		}
	}
	if feasible != 3 {
		t.Fatalf("%d feasible nodes, want 3 (Figure 14)", feasible)
	}
	for _, e := range edges {
		if !nodeSet[e.From.Name()] || !nodeSet[e.To.Name()] {
			t.Fatalf("edge %s→%s has unknown endpoint", e.From.Name(), e.To.Name())
		}
		if e.Theorem == "" {
			t.Fatal("edge without justification")
		}
	}
	// SC edges flow into EC nodes, never the reverse.
	for _, e := range edges {
		if e.From.Criterion == "EC" && e.To.Criterion == "SC" {
			t.Fatal("EC ⊆ SC edge present")
		}
	}
}

func TestHierarchyDefaultK(t *testing.T) {
	nodes, _ := Hierarchy(0) // clamps to 2
	found := false
	for _, n := range nodes {
		if n.K == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("k>1 representative missing")
	}
}

func TestTypologyName(t *testing.T) {
	p := Typology{Criterion: "EC", K: oracle.Unbounded}
	if p.Name() != "R(BT-ADT_EC, ΘP)" {
		t.Fatalf("name %q", p.Name())
	}
	f := Typology{Criterion: "SC", K: 1}
	if f.Name() != "R(BT-ADT_SC, ΘF,k=1)" {
		t.Fatalf("name %q", f.Name())
	}
}

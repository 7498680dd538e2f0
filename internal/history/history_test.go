package history

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
)

func chainOf(n int) core.Chain {
	c := core.GenesisChain()
	for i := 1; i <= n; i++ {
		h := c.Head()
		c = c.Append(core.NewBlock(h.ID, h.Height+1, 0, i, []byte{byte(i)}))
	}
	return c
}

func TestRecorderSequentialOps(t *testing.T) {
	rec := NewRecorder(2, nil)
	a := rec.Append(0, chainOf(1).Head(), true)
	r := rec.Read(1, chainOf(1))
	h := rec.Snapshot()
	if len(h.Ops) != 2 {
		t.Fatalf("ops %d", len(h.Ops))
	}
	if !a.Before(r) {
		t.Fatal("append not before read")
	}
	if r.Before(a) {
		t.Fatal("read before append")
	}
}

func TestPendingOps(t *testing.T) {
	rec := NewRecorder(1, nil)
	op := rec.InvokeRead(0)
	h := rec.Snapshot()
	if len(h.Reads()) != 0 {
		t.Fatal("pending read counted as completed")
	}
	rec.RespondRead(op, chainOf(0))
	h = rec.Snapshot()
	if len(h.Reads()) != 1 {
		t.Fatal("completed read missing")
	}
}

func TestConcurrencyRelation(t *testing.T) {
	rec := NewRecorder(2, nil)
	// Two overlapping reads: inv0, inv1, rsp0, rsp1.
	op0 := rec.InvokeRead(0)
	op1 := rec.InvokeRead(1)
	rec.RespondRead(op0, chainOf(0))
	rec.RespondRead(op1, chainOf(0))
	if op0.Before(op1) || op1.Before(op0) {
		t.Fatal("overlapping ops not concurrent")
	}
	op2 := rec.Read(0, chainOf(1))
	if !op0.Before(op2) || !op1.Before(op2) {
		t.Fatal("later op not after both")
	}
}

// TestByProcessOrder: one process's operations are recorded in its
// program order, another's interleaved between them.
func TestByProcessOrder(t *testing.T) {
	rec := NewRecorder(2, nil)
	rec.Read(0, chainOf(0))
	rec.Read(1, chainOf(0))
	rec.Read(0, chainOf(1))
	h := rec.Snapshot()
	var ops []*Op
	for _, op := range h.Ops {
		if op.Proc == 0 {
			ops = append(ops, op)
		}
	}
	if len(ops) != 2 {
		t.Fatalf("process 0 has %d ops", len(ops))
	}
	if !ops[0].Before(ops[1]) || len(ops[1].Chain()) != 2 {
		t.Fatal("process order violated")
	}
}

func TestFaultyExclusion(t *testing.T) {
	rec := NewRecorder(2, nil)
	rec.Read(0, chainOf(1))
	rec.Read(1, chainOf(2))
	rec.MarkFaulty(1)
	h := rec.Snapshot()
	if !h.IsCorrect(0) || h.IsCorrect(1) {
		t.Fatal("correctness flags wrong")
	}
	reads := h.Reads()
	if len(reads) != 1 || reads[0].Proc != 0 {
		t.Fatalf("faulty process reads not excluded: %v", reads)
	}
}

func TestAppendsAndPurge(t *testing.T) {
	rec := NewRecorder(1, nil)
	b1 := chainOf(1).Head()
	b2 := chainOf(2).Head()
	rec.Append(0, b1, true)
	rec.Append(0, b2, false)
	h := rec.Snapshot()
	if len(h.Ops) != 2 || h.Ops[0].Kind != OpAppend || h.Ops[1].Kind != OpAppend {
		t.Fatalf("recorded %v, want both appends", h.Ops)
	}
	// Each append keeps its response, which is what a purge (Section
	// 3.4's Ĥ, without the appends answered false) goes by.
	if ok, failed := h.Ops[0], h.Ops[1]; !ok.OK || ok.Block.ID != b1.ID || failed.OK || failed.Block.ID != b2.ID {
		t.Fatalf("responses %v / %v, want %s true and %s false", ok, failed, b1.ID, b2.ID)
	}
}

func TestCommEvents(t *testing.T) {
	rec := NewRecorder(3, nil)
	rec.RecordComm(EvSend, 0, core.GenesisID, "b1")
	rec.RecordComm(EvReceive, 1, core.GenesisID, "b1")
	rec.RecordComm(EvUpdate, 1, core.GenesisID, "b1")
	h := rec.Snapshot()
	if len(h.Comm) != 3 {
		t.Fatalf("comm events %d", len(h.Comm))
	}
	if len(h.CommOf(EvSend)) != 1 || len(h.CommOf(EvReceive)) != 1 || len(h.CommOf(EvUpdate)) != 1 {
		t.Fatal("CommOf filters wrong")
	}
	if ev := slices.Collect(h.Events()); ev[0].Index >= ev[1].Index || ev[1].Index >= ev[2].Index {
		t.Fatal("comm indices not increasing")
	}
}

func TestRespondAppendReplacesBlock(t *testing.T) {
	rec := NewRecorder(1, nil)
	placeholder := &core.Block{ID: "pending"}
	op := rec.InvokeAppend(0, placeholder)
	final := chainOf(1).Head()
	rec.RespondAppend(op, true, final)
	if op.Block.ID != final.ID {
		t.Fatal("final block not recorded")
	}
}

// TestRecorderConcurrentSafety hammers the recorder from many goroutines;
// run with -race to verify the locking. Each delivery is one step: its
// receive and its update sit at consecutive indices whatever the other
// goroutines record. Half the deliveries (blocks "f…") name their block's
// Parent and are one record each; the other half (blocks "d…") name "z"
// first, so their updates are odd and each is two records.
func TestRecorderConcurrentSafety(t *testing.T) {
	rec := NewRecorder(8, nil)
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			tr := core.NewTreeOn(rec.Table())
			for i := 0; i < 100; i++ {
				op := rec.InvokeRead(p)
				rec.RespondRead(op, chainOf(i%3))
				rec.RecordComm(EvSend, p, core.GenesisID, core.BlockID("x"))
				b := &core.Block{ID: core.BlockID(fmt.Sprintf("d%d.%d", p, i)), Parent: "y"}
				parent := core.BlockID("z")
				if i%2 == 0 {
					b.ID, parent = "f"+b.ID[1:], "y"
				}
				rec.RecordDelivery(p, parent, tr.Resolve(b))
			}
		}(p)
	}
	wg.Wait()
	h := rec.Snapshot()
	if len(h.Ops) != 800 || len(h.Comm) != 2400 {
		t.Fatalf("recorded %d ops, %d comm", len(h.Ops), len(h.Comm))
	}
	fused, split := 0, 0
	ev := slices.Collect(h.Events())
	for i, e := range ev {
		if e.Kind != EvReceive {
			continue
		}
		want := core.BlockID("z")
		if e.Block[0] == 'f' {
			want = "y"
			fused++
		} else {
			split++
		}
		if e.Parent != want || i+1 == len(h.Comm) {
			t.Fatalf("receive %v: parent not %s, or last in the log", e, want)
		}
		u := ev[i+1]
		if u.Kind != EvUpdate || u.Index != e.Index+1 || u.Proc != e.Proc || u.Block != e.Block || u.Parent != "y" {
			t.Fatalf("receive %v is followed by %v, want update_%d(y, %s) @%d", e, u, e.Proc, e.Block.Short(), e.Index+1)
		}
	}
	if fused != 400 || split != 400 {
		t.Fatalf("%d + %d deliveries recorded, want 400 of each half", fused, split)
	}
	if records, _ := commRecords(rec); records != 2400-fused {
		t.Fatalf("%d events in %d records, want %d", len(h.Comm), records, 2400-fused)
	}
	// Indices are unique and each op's invocation precedes its response.
	seen := make(map[int]bool)
	for _, op := range h.Ops {
		if op.InvIndex >= op.RspIndex {
			t.Fatal("invocation not before response")
		}
		if seen[op.InvIndex] || seen[op.RspIndex] {
			t.Fatal("duplicate event index")
		}
		seen[op.InvIndex] = true
		seen[op.RspIndex] = true
	}
}

func TestOpString(t *testing.T) {
	rec := NewRecorder(1, nil)
	r := rec.Read(0, chainOf(1))
	if r.String() == "" {
		t.Fatal("empty op string")
	}
	pending := rec.InvokeRead(0)
	if pending.String() == "" {
		t.Fatal("empty pending string")
	}
	a := rec.Append(0, chainOf(1).Head(), true)
	if a.String() == "" {
		t.Fatal("empty append string")
	}
}

func TestIsCorrectBounds(t *testing.T) {
	h := &History{Procs: 2, Correct: []bool{true, false}}
	if !h.IsCorrect(0) || h.IsCorrect(1) {
		t.Fatal("IsCorrect wrong")
	}
	if !h.IsCorrect(-1) || !h.IsCorrect(99) {
		t.Fatal("out-of-range processes should default to correct")
	}
}

// TestRecorderSlabPointerStability pins the pooled-Op allocator
// contract: *Op pointers handed out (and retained by histories and
// sinks) stay valid and distinct as the slab grows through many chunk
// replacements.
func TestRecorderSlabPointerStability(t *testing.T) {
	rec := NewRecorder(1, nil)
	g := core.Genesis()
	var ptrs []*Op
	for i := 0; i < 3*opSlabChunk+7; i++ {
		op := rec.InvokeRead(0)
		rec.RespondReadHead(op, g)
		ptrs = append(ptrs, op)
	}
	seen := map[*Op]bool{}
	for i, op := range ptrs {
		if op.ID != i {
			t.Fatalf("op %d has ID %d after slab growth — pointer invalidated?", i, op.ID)
		}
		if seen[op] {
			t.Fatalf("op %d shares a pointer with an earlier op", i)
		}
		seen[op] = true
	}
	h := rec.Snapshot()
	if len(h.Ops) != len(ptrs) {
		t.Fatalf("snapshot has %d ops, want %d", len(h.Ops), len(ptrs))
	}
}

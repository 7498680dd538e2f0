package history

import (
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
)

// streamChain interns a linear chain of n blocks after genesis.
func streamChain(rec *Recorder, n int) core.Chain {
	c := core.GenesisChain()
	for i := 1; i <= n; i++ {
		h := c.Head()
		b := core.NewBlock(h.ID, h.Height+1, 0, i, []byte{byte(i)})
		rec.InternBlock(b)
		c = c.Append(b)
	}
	return c
}

type countingSink struct {
	ops, comm, faulty int
	lastID            int
}

func (s *countingSink) OpDone(op *Op)      { s.ops++; s.lastID = op.ID }
func (s *countingSink) CommDone(CommEvent) { s.comm++ }
func (s *countingSink) Faulty(int)         { s.faulty++ }

func TestSinkDeliveryOrderAndPending(t *testing.T) {
	rec := NewRecorder(2, nil)
	sink := &countingSink{}
	rec.SetSink(sink)
	c := streamChain(rec, 3)
	rec.MarkFaulty(1)
	for _, b := range c[1:] {
		rec.Append(0, b, true)
	}
	rec.ReadHead(0, c.Head())
	pend := rec.InvokeRead(0) // never responded
	rec.ReadHead(0, c.Head())

	if sink.ops != 5 {
		t.Errorf("sink saw %d completed ops, want 5", sink.ops)
	}
	if sink.faulty != 1 {
		t.Errorf("sink saw %d faulty marks, want 1", sink.faulty)
	}
	pending := rec.PendingOps()
	if len(pending) != 1 || pending[0].ID != pend.ID {
		t.Errorf("pending = %v, want exactly op %d", pending, pend.ID)
	}
	// Retention still on: snapshot has all 7 ops (5 complete + genesis-
	// free appends included + 1 pending read).
	if h := rec.Snapshot(); len(h.Ops) != 6 {
		t.Errorf("snapshot has %d ops, want 6", len(h.Ops))
	}
}

// segmentCopies keeps what a seal handler is lent the way the loan
// contract documents: by copying it inside the handler. history then
// assembles the copies into the batch History a retaining recorder's
// Snapshot would give.
type segmentCopies struct {
	ops    []*Op
	comm   []CommEvent
	faulty map[int]bool
}

// copyingSink returns a SegmentSink whose handler copies every segment.
func copyingSink(size int) (*SegmentSink, *segmentCopies) {
	c := &segmentCopies{faulty: map[int]bool{}}
	seg := NewSegmentSink(size, func(s *Segment) {
		for _, op := range s.Ops {
			cp := *op
			c.ops = append(c.ops, &cp)
		}
		c.comm = append(c.comm, s.Comm...)
	})
	seg.OnFaulty = func(p int) { c.faulty[p] = true }
	return seg, c
}

func (c *segmentCopies) history(procs int) *History {
	h := &History{Procs: procs}
	var ids commIDs
	for _, e := range c.comm {
		h.Comm = append(h.Comm, ids.pack(e))
	}
	h.tables = ids.view()
	for _, op := range c.ops {
		h.Ops = append(h.Ops, op)
		if h.Table == nil {
			h.Table = op.src // one recorder, one index
		}
	}
	// Segments hold ops in response order; the batch History contract
	// is invocation order.
	sort.Slice(h.Ops, func(i, j int) bool { return h.Ops[i].InvIndex < h.Ops[j].InvIndex })
	if len(c.faulty) > 0 {
		h.Correct = make([]bool, procs)
		for i := range h.Correct {
			h.Correct[i] = !c.faulty[i]
		}
	}
	return h
}

func TestSegmentSinkSealsAndAssemblesHistory(t *testing.T) {
	rec := NewRecorder(2, nil)
	seg, copies := copyingSink(4)
	var sealed []int // each segment's index, noted before its handler copies it
	copyOps := seg.OnSeal
	seg.OnSeal = func(s *Segment) { sealed = append(sealed, s.Index); copyOps(s) }
	rec.SetSink(seg)

	c := streamChain(rec, 5)
	rec.MarkFaulty(1)
	for _, b := range c[1:] {
		rec.Append(0, b, true)
	}
	for i := 0; i < 6; i++ {
		rec.ReadHead(0, c.Head())
	}
	seg.Seal()

	if len(copies.ops) != 11 {
		t.Fatalf("sink streamed %d ops, want 11", len(copies.ops))
	}
	if len(sealed) != seg.Sealed() || len(sealed) != 3 { // 4+4+3
		t.Fatalf("sealed %d segments (counter %d), want 3", len(sealed), seg.Sealed())
	}
	for i, index := range sealed {
		if index != i {
			t.Errorf("segment %d has index %d", i, index)
		}
	}

	// The history assembled from the copies must equal the recorder's
	// own snapshot.
	want := rec.Snapshot()
	got := copies.history(rec.Procs())
	if len(got.Ops) != len(want.Ops) {
		t.Fatalf("assembled %d ops, want %d", len(got.Ops), len(want.Ops))
	}
	for i := range got.Ops {
		if got.Ops[i].ID != want.Ops[i].ID {
			t.Fatalf("op %d: assembled ID %d, snapshot ID %d", i, got.Ops[i].ID, want.Ops[i].ID)
		}
	}
	if got.IsCorrect(1) || !got.IsCorrect(0) {
		t.Errorf("assembled Correct wrong: %v", got.Correct)
	}
	if got.Table != rec.Table() {
		t.Error("assembled history lost the block index of its interned reads")
	}
}

func TestDropModeSnapshotKeepsOnlyPending(t *testing.T) {
	rec := NewRecorder(1, nil)
	rec.SetSink(&countingSink{})
	rec.SetRetain(false)
	c := streamChain(rec, 2)
	rec.Append(0, c[1], true)
	rec.Append(0, c[2], true)
	rec.ReadHead(0, c.Head())
	pend := rec.InvokeAppend(0, core.NewBlock(c.Head().ID, c.Head().Height+1, 0, 9, nil))
	h := rec.Snapshot()
	if len(h.Ops) != 1 || h.Ops[0].ID != pend.ID {
		t.Fatalf("drop-mode snapshot = %v, want only pending op %d", h.Ops, pend.ID)
	}
}

// TestSegmentReleaseReclaimable is the satellite memory proof: in drop
// mode with a release-after-seal segment sink, the heap after GC is
// independent of how many operations streamed through — sealed
// segments (and their op records) really are reclaimed, and nothing
// (recorder, block index, sink) retains their backing arrays.
func TestSegmentReleaseReclaimable(t *testing.T) {
	heapAfter := func(reads int) uint64 {
		rec := NewRecorder(1, nil)
		sink := &countingSink{}
		seg := NewSegmentSink(256, func(s *Segment) { sink.ops += len(s.Ops) })
		rec.SetSink(seg)
		rec.SetRetain(false)
		c := streamChain(rec, 8)
		for _, b := range c[1:] {
			rec.Append(0, b, true)
		}
		for i := 0; i < reads; i++ {
			rec.ReadHead(0, c[1+i%8])
		}
		seg.Seal()
		if sink.ops != reads+8 {
			t.Fatalf("sink saw %d ops, want %d", sink.ops, reads+8)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(rec)
		return ms.HeapAlloc
	}
	small := heapAfter(2_000)
	big := heapAfter(200_000)
	// 100x the ops must not cost more than a small constant of heap.
	if big > small+512*1024 {
		t.Errorf("heap grew with stream length: %d B after 2k ops vs %d B after 200k", small, big)
	}
}

// TestStreamingSteadyStateAllocs pins the per-op allocation cost of the
// streaming path (drop mode, interned reads, direct segment sink): once
// the first segment has been handed back, a read reuses an Op and a
// slot of the segment's array.
func TestStreamingSteadyStateAllocs(t *testing.T) {
	rec := NewRecorder(1, nil)
	seg := NewSegmentSink(1024, nil)
	rec.SetSink(seg)
	rec.SetRetain(false)
	c := streamChain(rec, 4)
	for _, b := range c[1:] {
		rec.Append(0, b, true)
	}
	head := c.Head()
	// Warm up segment/pending machinery.
	for i := 0; i < 4096; i++ {
		rec.ReadHead(0, head)
	}
	avg := testing.AllocsPerRun(2000, func() {
		rec.ReadHead(0, head)
	})
	// Nothing but amortized map bookkeeping; a heap-allocated Op per read
	// is 1 alloc/op on its own and fails this.
	if avg >= 1 {
		t.Errorf("streaming read costs %.2f allocs/op, want < 1", avg)
	}
}

// TestSegmentSinkSealsAtCommBound: a segment seals at 1024 (commSeal)
// communication events even when no operation arrives, and its Comm,
// allocated at that capacity on the first event and kept by the spare,
// never grows past it.
func TestSegmentSinkSealsAtCommBound(t *testing.T) {
	fed := 0
	var at, lens []int // events fed at each seal; each segment's length
	seg := NewSegmentSink(4096, func(s *Segment) {
		at, lens = append(at, fed), append(lens, len(s.Comm))
		if len(s.Ops) != 0 {
			t.Errorf("segment %d carries %d ops, none were fed", s.Index, len(s.Ops))
		}
		if cap(s.Comm) > 1024 {
			t.Errorf("segment %d's Comm grew to capacity %d, over 1024", s.Index, cap(s.Comm))
		}
	})
	for fed < 5000 {
		fed++
		seg.CommDone(CommEvent{Kind: EvSend, Index: fed})
	}
	if want := []int{1024, 2048, 3072, 4096}; !slices.Equal(at, want) {
		t.Fatalf("sealed after %v events, want %v", at, want)
	}
	seg.Seal()
	if want := []int{1024, 1024, 1024, 1024, 904}; !slices.Equal(lens, want) {
		t.Fatalf("segments hold %v events, want %v", lens, want)
	}
}

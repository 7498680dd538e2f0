package history

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// These tests pin the streaming path's ownership rule (see stream.go): a
// sealed segment, and in drop mode behind a direct SegmentSink its ops,
// are on loan to the seal handler — and everything the rule exempts
// (keep mode, pending ops, any other sink) is never reused.

// sameOp compares everything a reader of an op can see.
func sameOp(a, b *Op) bool {
	return a.ID == b.ID && a.Kind == b.Kind && a.Proc == b.Proc && a.OK == b.OK && a.Pending == b.Pending &&
		a.InvIndex == b.InvIndex && a.RspIndex == b.RspIndex && a.String() == b.String() &&
		a.Chain().String() == b.Chain().String()
}

// loanWorkload records appends of an n-block chain, then reads cycling
// over its prefixes, from two processes.
func loanWorkload(rec *Recorder, n, reads int) {
	c := streamChain(rec, n)
	for _, b := range c[1:] {
		rec.Append(0, b, true)
	}
	for i := 0; i < reads; i++ {
		rec.ReadHead(i%2, c[1+i%n])
	}
}

// TestHandlerCopiesOutliveTheLoan: a drop-mode recorder recycles the ops
// of its direct segment sink, so the way to keep a streamed history is
// the documented one — copy inside the handler. The history assembled
// from ten segments' copies is, op for op, a retaining recorder's
// snapshot, although the lent objects were reused under it.
func TestHandlerCopiesOutliveTheLoan(t *testing.T) {
	ref := NewRecorder(2, nil)
	loanWorkload(ref, 4, 36)
	want := ref.Snapshot()

	rec := NewRecorder(2, nil)
	seg, copies := copyingSink(4)
	rec.SetSink(seg)
	rec.SetRetain(false)
	loanWorkload(rec, 4, 36)
	got := copies.history(2)

	if seg.Sealed() != 10 {
		t.Fatalf("sealed %d segments, want 10", seg.Sealed())
	}
	if len(rec.free) == 0 {
		t.Error("the recorder was handed no op back: nothing was recycled under the copies")
	}
	if len(got.Ops) != len(want.Ops) {
		t.Fatalf("copied history has %d ops, snapshot %d", len(got.Ops), len(want.Ops))
	}
	for i, op := range got.Ops {
		if !sameOp(op, want.Ops[i]) {
			t.Errorf("op %d: copied %s (id %d, [%d,%d]), recorded %s (id %d, [%d,%d])", i,
				op, op.ID, op.InvIndex, op.RspIndex, want.Ops[i], want.Ops[i].ID, want.Ops[i].InvIndex, want.Ops[i].RspIndex)
		}
	}
}

// TestPendingOpOutlivesSegments: an op pending while three segments are
// sealed, consumed and recycled is never among the reused objects —
// PendingOps keeps returning it, untouched — and reaches the handler
// intact when it completes.
func TestPendingOpOutlivesSegments(t *testing.T) {
	rec := NewRecorder(2, nil)
	var delivered []Op // copies: the originals are reused
	seg := NewSegmentSink(4, func(s *Segment) {
		for _, op := range s.Ops {
			delivered = append(delivered, *op)
		}
	})
	rec.SetSink(seg)
	rec.SetRetain(false)
	c := streamChain(rec, 3)

	pend := rec.InvokeRead(1)
	id, inv := pend.ID, pend.InvIndex
	for i := 0; i < 14; i++ { // three segments and a half
		if op := rec.ReadHead(0, c[1+i%3]); op == pend {
			t.Fatalf("read %d was recorded in the pending op's object", i)
		}
		ps := rec.PendingOps()
		if len(ps) != 1 || ps[0] != pend || !pend.Pending || pend.ID != id || pend.InvIndex != inv || pend.Proc != 1 {
			t.Fatalf("after read %d: pending = %v, want op %d untouched", i, ps, id)
		}
		for _, f := range rec.free {
			if f == pend {
				t.Fatalf("after read %d: the pending op is on the free list", i)
			}
		}
	}
	if seg.Sealed() != 3 {
		t.Fatalf("sealed %d segments while the op was pending, want 3", seg.Sealed())
	}
	rec.RespondReadHead(pend, c[2])
	rec.ReadHead(0, c[3]) // completes the fourth segment
	if len(rec.PendingOps()) != 0 {
		t.Errorf("pending = %v after the response", rec.PendingOps())
	}
	if len(delivered) != 16 {
		t.Fatalf("handler saw %d ops, want 16", len(delivered))
	}
	got := delivered[14]
	if got.ID != id || got.InvIndex != inv || got.Proc != 1 || got.Pending || got.Head != c[2].ID || got.RspIndex <= delivered[13].RspIndex {
		t.Errorf("pending op delivered as %+v, want id %d inv %d head %s", got, id, inv, c[2].ID.Short())
	}
}

// TestRecyclingBoundsLiveOps: over fifty segments a drop-mode recorder
// behind a direct segment sink owns at most a segment's worth of Op
// objects plus the pending ones — two segments' worth behind an
// overlapped sink, whose handler holds one segment while the next fills
// — and every delivered op still reads as the operation a retaining
// recorder holds.
func TestRecyclingBoundsLiveOps(t *testing.T) {
	const size, segments, longPending = 8, 50, 2
	record := func(rec *Recorder) {
		c := streamChain(rec, 4)
		for p := 0; p < longPending; p++ {
			rec.InvokeAppend(p, core.NewBlock(c.Head().ID, c.Head().Height+1, p, 9, nil))
		}
		for i := 0; i < size*segments; i++ {
			rec.ReadHead(i%2, c[1+i%4])
		}
	}
	ref := NewRecorder(2, nil)
	record(ref)
	want := ref.Snapshot().Ops

	for _, overlap := range []bool{false, true} {
		rec := NewRecorder(2, nil)
		distinct := map[*Op]bool{}
		sealed := 0
		seg := NewSegmentSink(size, func(s *Segment) {
			sealed++
			for _, op := range s.Ops {
				distinct[op] = true
				if !sameOp(op, want[op.ID]) {
					t.Errorf("overlap %v: segment %d delivers %s (id %d), recorded as %s", overlap, s.Index, op, op.ID, want[op.ID])
				}
			}
		})
		seg.Overlap = overlap
		rec.SetSink(seg)
		rec.SetRetain(false)
		record(rec)
		seg.Wait()
		for _, op := range rec.PendingOps() {
			distinct[op] = true
		}
		for _, op := range rec.free {
			distinct[op] = true
		}
		bound := size + longPending
		if overlap {
			bound += size
		}
		if sealed != segments {
			t.Fatalf("overlap %v: sealed %d segments, want %d", overlap, sealed, segments)
		}
		if len(distinct) > bound {
			t.Errorf("overlap %v: %d ops lived in %d objects, want ≤ %d", overlap, size*segments, len(distinct), bound)
		}
	}
}

// TestOverlappedLoanEndsAfterHandler: an overlapped sink's handler still
// holds segment k while the recorder fills segment k+1 almost to the
// seal, and no op of segment k is reused before the handler returns:
// each handler, released only then, finds its ops as recorded, and no
// two consecutive segments share an Op object. Under -race a reuse
// would also be a write racing the handler's reads.
func TestOverlappedLoanEndsAfterHandler(t *testing.T) {
	const size, segments = 4, 12
	ref := NewRecorder(2, nil)
	loanWorkload(ref, 4, size*segments-4)
	want := ref.Snapshot().Ops

	rec := NewRecorder(2, nil)
	proceed := make(chan struct{}, 1)
	objects := make([]map[*Op]bool, segments)
	seg := NewSegmentSink(size, func(s *Segment) {
		<-proceed
		objects[s.Index] = map[*Op]bool{}
		for _, op := range s.Ops {
			objects[s.Index][op] = true
			if !sameOp(op, want[op.ID]) {
				t.Errorf("segment %d delivers %s (id %d), recorded as %s", s.Index, op, op.ID, want[op.ID])
			}
		}
	})
	seg.Overlap = true
	rec.SetSink(seg)
	rec.SetRetain(false)
	c := streamChain(rec, 4)
	ops := 0
	record := func(op func()) {
		op()
		// Release the handler once the next segment lacks one op.
		if ops++; ops > size && ops%size == size-1 {
			proceed <- struct{}{}
		}
	}
	for _, b := range c[1:] {
		record(func() { rec.Append(0, b, true) })
	}
	for i := 0; i < size*segments-4; i++ {
		record(func() { rec.ReadHead(i%2, c[1+i%4]) })
	}
	proceed <- struct{}{}
	seg.Seal()
	if seg.Sealed() != segments {
		t.Fatalf("sealed %d segments, want %d", seg.Sealed(), segments)
	}
	for k := 1; k < segments; k++ {
		for op := range objects[k] {
			if objects[k-1][op] {
				t.Fatalf("segments %d and %d share op %d's object", k-1, k, op.ID)
			}
		}
	}
	if len(rec.free) == 0 {
		t.Error("the recorder was handed no op back")
	}
}

// TestOverlappedHandlerPanicEndsTheLoan: a panic in an overlapped
// handler does not crash the process from the handler's goroutine, and
// no wait raises it on the recording goroutine: it becomes the sink's
// Err, naming the segment, the handler sees no later segment and
// OnFaulty no later mark.
func TestOverlappedHandlerPanicEndsTheLoan(t *testing.T) {
	for _, bad := range []int{0, 1, 2} { // 2 is the last segment: MarkFaulty's wait meets it
		rec := NewRecorder(2, nil)
		var handled []int
		seg := NewSegmentSink(4, func(s *Segment) {
			handled = append(handled, s.Index)
			if s.Index == bad {
				panic("boom")
			}
		})
		seg.Overlap = true
		marked := 0
		seg.OnFaulty = func(int) { marked++ }
		rec.SetSink(seg)
		rec.SetRetain(false)
		c := streamChain(rec, 4)
		for i := 0; i < 12; i++ { // three segments
			rec.ReadHead(i%2, c[1+i%4])
		}
		rec.MarkFaulty(1)
		seg.Seal()
		seg.Seal() // a later wait
		err := seg.Err()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("segment %d panicked: boom", bad)) {
			t.Errorf("handler of segment %d: Err() = %.120q, want it named with the panic value", bad, err)
		}
		if want := bad + 1; len(handled) != want || seg.Sealed() != 3 {
			t.Errorf("handler of segment %d: handled %v of %d sealed segments, want the first %d", bad, handled, seg.Sealed(), want)
		}
		if marked != 0 {
			t.Errorf("handler of segment %d: OnFaulty ran after it failed", bad)
		}
	}
}

// TestSegmentReusedAfterHandler: without keep mode the sink refills the
// one Segment, and its Ops array, that the handler has returned from.
func TestSegmentReusedAfterHandler(t *testing.T) {
	rec := NewRecorder(2, nil)
	segs, arrays := map[*Segment]bool{}, map[**Op]bool{}
	var indices []int
	seg := NewSegmentSink(4, func(s *Segment) {
		segs[s], arrays[&s.Ops[0]] = true, true
		indices = append(indices, s.Index)
		if len(s.Ops) != 4 || cap(s.Ops) != 4 {
			t.Errorf("segment %d: %d ops in an array of %d, want 4 of 4", s.Index, len(s.Ops), cap(s.Ops))
		}
	})
	rec.SetSink(seg)
	loanWorkload(rec, 4, 36)
	if len(indices) != 10 || indices[9] != 9 {
		t.Fatalf("segment indices %v, want 0..9", indices)
	}
	if len(segs) != 1 || len(arrays) != 1 {
		t.Errorf("10 segments used %d Segment structs and %d Ops arrays, want 1 and 1", len(segs), len(arrays))
	}
	if len(rec.free) != 0 {
		t.Errorf("a retaining recorder took %d ops back", len(rec.free))
	}
}

// TestOverlappedSegmentChainRecyclesNothing is the shape of the live
// deployment's sink — a retaining recorder, its direct sink an overlapped
// SegmentSink — recorded from two goroutines: every op is delivered once,
// and none is handed back, so a handler goroutine reads ops the recorder
// never touches again (under -race a reused op would be a write racing
// that read).
func TestOverlappedSegmentChainRecyclesNothing(t *testing.T) {
	const procs, reads = 2, 400
	rec := NewRecorder(procs, nil)
	c := streamChain(rec, 4)
	var seen []*Op // handler goroutines only, in turn; read after Seal
	seg := NewSegmentSink(4, func(s *Segment) {
		for _, op := range s.Ops {
			if op.Pending || op.Kind != OpRead || op.Head != c[1+op.ID%4].ID {
				t.Errorf("delivered op %d reads %s", op.ID, op)
			}
			seen = append(seen, op)
		}
	})
	seg.Overlap = true
	rec.SetSink(seg)

	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				op := rec.InvokeRead(p)
				rec.RespondReadHead(op, c[1+op.ID%4])
			}
		}()
	}
	wg.Wait()
	seg.Seal()

	if len(seen) != procs*reads {
		t.Fatalf("handlers saw %d ops, want %d", len(seen), procs*reads)
	}
	distinct := map[*Op]bool{}
	for _, op := range seen {
		distinct[op] = true
	}
	if len(distinct) != len(seen) || len(rec.free) != 0 {
		t.Errorf("%d ops in %d objects, %d handed back: a retaining recorder reuses nothing",
			len(seen), len(distinct), len(rec.free))
	}
}

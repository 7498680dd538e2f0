package history

import (
	"slices"
	"testing"
	"unsafe"

	"repro/internal/metrics"
)

// TestOpLayout: the pending set's slot index shares a word with the
// op's kind and flags, so tracking an op costs the Op no bytes. A
// drop-mode run owns a segment's worth of ops (two behind an overlapped
// sink) plus the pending ones, and a retaining run one Op per
// operation: their size is the run's op memory.
func TestOpLayout(t *testing.T) {
	if sz := unsafe.Sizeof(Op{}); sz > 96 {
		t.Errorf("an Op is %d bytes, want ≤ 96", sz)
	}
}

// TestOpInvokedBeforeTrackingLeavesPendingInPlace: an op invoked before
// a sink is attached, or retention dropped, is pending like any other,
// and answering it afterwards takes it alone out of the pending set: the
// ops invoked since stay pending, in invocation order, in PendingOps, in
// a drop-mode snapshot and in the probe.
func TestOpInvokedBeforeTrackingLeavesPendingInPlace(t *testing.T) {
	for _, late := range []struct {
		name  string
		track func(*Recorder)
	}{
		{"SetSink", func(r *Recorder) { r.SetSink(NewSegmentSink(2, nil)) }},
		{"SetRetain(false)", func(r *Recorder) { r.SetRetain(false) }},
	} {
		t.Run(late.name, func(t *testing.T) {
			rec := NewRecorder(2, nil)
			reg := metrics.New(0)
			rec.RegisterMetrics(reg)
			c := streamChain(rec, 2)
			early := rec.InvokeRead(0)
			late.track(rec)
			a := rec.InvokeRead(1)
			b := rec.InvokeAppend(1, c[1])
			rec.RespondReadHead(early, c[2])
			want := []*Op{a, b}
			if got := rec.PendingOps(); !slices.Equal(got, want) {
				t.Errorf("PendingOps = %v, want %v", got, want)
			}
			if rec.drop {
				if got := rec.Snapshot().Ops; !slices.Equal(got, want) {
					t.Errorf("drop-mode Snapshot().Ops = %v, want %v", got, want)
				}
			}
			if n, _ := reg.Snapshot().Value("hist.pendingOps.last"); n != 2 {
				t.Errorf("hist.pendingOps = %d, want 2", n)
			}
		})
	}
}

// FuzzPendingOps holds the recorder's slot-indexed pending set to a
// plain model: the ops invoked and not yet answered, in invocation
// order. A script byte invokes a read (a%4 == 0) or an append (1) by
// process a>>2 % 3, answers the (a>>2)-th open op (2), or seals the
// current segment (3). A direct segment sink is attached before step
// sinkAt and retention dropped before step dropAt, so some ops are
// invoked before either and answered after, and in drop mode the ops of
// sealed segments are handed back and reused under the open ones. After
// every step PendingOps, a drop-mode Snapshot().Ops and the
// hist.pendingOps probe must equal the model, and every open op must
// still read as the operation it was invoked as.
func FuzzPendingOps(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{0, 1, 4, 2, 0, 6, 2, 2, 3, 2})
	f.Add(uint8(3), uint8(255), []byte{0, 5, 9, 0, 2, 1, 6, 10, 2, 3, 2})       // sink after three invocations, keep mode
	f.Add(uint8(255), uint8(2), []byte{1, 4, 0, 0, 2, 6, 10, 14, 2, 2})         // retention dropped after two, no sink
	f.Add(uint8(1), uint8(4), []byte{0, 2, 0, 4, 2, 0, 6, 2, 0, 2, 0, 2, 3, 2}) // ops recycled through size-3 segments
	f.Add(uint8(2), uint8(2), []byte{0, 1, 5, 0, 4, 8, 14, 2, 2, 22, 0, 2, 1, 2, 10, 3, 2})
	f.Fuzz(func(t *testing.T, sinkAt, dropAt uint8, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		const procs = 3
		rec := NewRecorder(procs, nil)
		reg := metrics.New(0)
		rec.RegisterMetrics(reg)
		c := streamChain(rec, 4)
		seg := NewSegmentSink(2+int(sinkAt)%3, func(s *Segment) {
			for _, op := range s.Ops {
				if op.Pending {
					t.Fatalf("sealed a pending op %v", op)
				}
			}
		})
		type entry struct {
			op         *Op
			id, inv, p int
			kind       OpKind
		}
		var open []entry // invoked, unanswered, in invocation order
		drop := false
		for step, a := range script {
			if step == int(sinkAt) {
				rec.SetSink(seg)
			}
			if step == int(dropAt) {
				rec.SetRetain(false)
				drop = true
			}
			p := int(a>>2) % procs
			switch a % 4 {
			case 0, 1:
				var op *Op
				if a%4 == 0 {
					op = rec.InvokeRead(p)
				} else {
					op = rec.InvokeAppend(p, c[1+p])
				}
				open = append(open, entry{op, op.ID, op.InvIndex, p, op.Kind})
			case 2:
				if len(open) == 0 {
					break
				}
				k := int(a>>2) % len(open)
				if e := open[k]; e.kind == OpRead {
					rec.RespondReadHead(e.op, c[len(c)-1])
				} else {
					rec.RespondAppend(e.op, true, nil)
				}
				open = slices.Delete(open, k, k+1)
			case 3:
				seg.Seal()
			}

			var want []*Op
			for _, e := range open {
				if op := e.op; !op.Pending || op.ID != e.id || op.InvIndex != e.inv || op.Proc != e.p || op.Kind != e.kind {
					t.Fatalf("step %d: open op %d (inv %d, p%d, %s) now reads %+v", step, e.id, e.inv, e.p, e.kind, *op)
				}
				want = append(want, e.op)
			}
			if got := rec.PendingOps(); !slices.Equal(got, want) {
				t.Fatalf("step %d: PendingOps = %v, want %v", step, got, want)
			}
			if drop {
				if got := rec.Snapshot().Ops; !slices.Equal(got, want) {
					t.Fatalf("step %d: drop-mode Snapshot().Ops = %v, want %v", step, got, want)
				}
			}
			if n, _ := reg.Snapshot().Value("hist.pendingOps.last"); n != int64(len(want)) {
				t.Fatalf("step %d: hist.pendingOps = %d, want %d", step, n, len(want))
			}
		}
	})
}

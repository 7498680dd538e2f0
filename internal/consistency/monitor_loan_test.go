package consistency

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
)

// These tests pin what the streaming path's ownership rule asks of the
// Monitor: a delivered op is on loan until its segment's handler returns
// (a drop-mode recorder then reuses the object), so nothing the monitor
// hands out may point at one; and Finalize merges only the score classes
// that can hold a witness.

// TestLiveWitnessesOutliveRecycledOps raises one live witness of each
// property that has them — LocalMonotonicRead, StrongPrefix,
// BlockValidity — on a drop-mode recorder streaming through 4-op
// segments, records four more segments so that every op of the
// witnessing ones has been taken back and overwritten, and requires the
// witnesses' ops to still read as the operations a retaining recorder
// holds for the same input.
func TestLiveWitnessesOutliveRecycledOps(t *testing.T) {
	base := chainN(4)
	fork := forkN(base, 1, 3)
	bad := core.NewBlock(base.Head().ID, base.Head().Height+1, 0, 77, []byte("rejected"))
	pred := countingPred{calls: new(int), invalid: map[core.BlockID]bool{bad.ID: true}}
	build := func(rec *history.Recorder) {
		for _, b := range append(append(slices.Clone(base), fork...), bad) {
			rec.InternBlock(b)
		}
		recordChain(rec, base, fork)
		rec.Append(0, bad, true)
		rec.ReadHead(0, base[4])
		rec.ReadHead(0, base[2])     // score drops: LocalMonotonicRead
		rec.ReadHead(1, fork.Head()) // incomparable with base[4]: StrongPrefix
		rec.ReadHead(1, bad)         // P(bad) = false: BlockValidity
		for i := 0; i < 16; i++ {
			rec.ReadHead(0, base[4])
		}
	}
	ref := history.NewRecorder(2, nil)
	build(ref)
	want := ref.Snapshot().Ops

	rec := history.NewRecorder(2, nil)
	var live []Witness
	var ids [][]int // each witness op's ID when the witness formed
	mon := NewMonitor(MonitorConfig{Procs: 2, P: pred, Table: rec.Table(),
		OnWitness: func(w Witness) {
			live = append(live, w)
			var at []int
			for _, op := range w.Ops {
				at = append(at, op.ID)
			}
			ids = append(ids, at)
		}})
	seg := history.NewSegmentSink(4, mon.ConsumeSegment)
	rec.SetSink(seg)
	rec.SetRetain(false)
	build(rec)
	seg.Seal()

	seen := map[string]bool{}
	for i, w := range live {
		seen[w.Property] = true
		for j, op := range w.Ops {
			o := want[ids[i][j]]
			if op.ID != o.ID || op.InvIndex != o.InvIndex || op.RspIndex != o.RspIndex ||
				op.String() != o.String() || op.Chain().String() != o.Chain().String() {
				t.Errorf("%s witness op reads %s (id %d, [%d,%d], chain %s), recorded as %s (id %d, [%d,%d], chain %s)",
					w.Property, op, op.ID, op.InvIndex, op.RspIndex, op.Chain(),
					o, o.ID, o.InvIndex, o.RspIndex, o.Chain())
			}
		}
	}
	for _, p := range []string{"LocalMonotonicRead", "StrongPrefix", "BlockValidity"} {
		if !seen[p] {
			t.Errorf("no live %s witness among %d", p, len(live))
		}
	}
}

// TestEverGrowingTreeMergesWitnessClassesOnly pins the class filter of
// finalEGT against the oracle: the final window holds scores 3 and 5, the
// retained classes are 2 to 6, and only reads of score 3 and 4 — a window
// read at or below them, another above — are witnesses. One read per
// class reports both; ten stop the enumeration at MaxViolations, where
// Checked is the stopping read's position; twenty overflow the per-class
// retention as well. Fed directly, and out of recycled segments.
func TestEverGrowingTreeMergesWitnessClassesOnly(t *testing.T) {
	c := chainN(6)
	for _, window := range [][2]int{{3, 5}, {5, 3}} {
		for _, reps := range []int{1, 10, 20} {
			build := func(rec *history.Recorder) {
				recordChain(rec, c)
				for i := 0; i < reps; i++ {
					for s := 2; s <= 6; s++ {
						rec.Read(i%2, c[:s+1])
					}
				}
				rec.Read(0, c[:window[0]+1])
				rec.Read(1, c[:window[1]+1])
			}
			var egt *Report
			for _, hn := range []monitorHarness{{horizon: 2}, {horizon: 2, segSize: 3, drop: true}} {
				mon := hn.run(t, 2, build)
				sc, _ := mon.Finalize()
				egt = sc.Reports[3]
			}
			reads, stalled := 5*reps+2, 2*reps
			wantViolations, wantChecked := min(stalled, MaxViolations), reads
			if stalled >= MaxViolations {
				// Witnesses come two to a round of five reads (scores 3
				// and 4, second and third): the 16th is the third read of
				// the eighth round.
				wantChecked = 5*(MaxViolations/2-1) + 3
			}
			if egt.Property != "EverGrowingTree" || len(egt.Violations) != wantViolations || egt.Checked != wantChecked {
				t.Errorf("window %v, %d reads per class: %s reports %d violations, checked %d; want %d, %d",
					window, reps, egt.Property, len(egt.Violations), egt.Checked, wantViolations, wantChecked)
			}
		}
	}
}

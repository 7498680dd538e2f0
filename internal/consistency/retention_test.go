package consistency

import (
	"fmt"
	"math/rand/v2"
	"regexp"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
)

// largestClass is the most records one retention class of m holds: a
// score class or a Block Validity suspect set.
func largestClass(m *Monitor) int {
	n := 0
	for _, s := range m.Classes {
		n = max(n, len(s.Recs))
	}
	for _, s := range m.BVSuspects {
		n = max(n, len(s.Recs))
	}
	return n
}

// retentionBuild records a history whose one retention class holds
// nViol violated reads of process 0, all atomic: an Ever Growing Tree
// score class (the reads stagnate at score 1 before a final window that
// grows) or a Block Validity suspect chain (the reads return a block
// whose append is invoked after they respond). With overlap, each other
// process invokes a read of the same class before them and responds
// after them, too late to be violated: a classmate invoked first that
// dominates none of process 0's reads.
func retentionBuild(egt, overlap bool, nViol, procs int) func(rec *history.Recorder) {
	return func(rec *history.Recorder) {
		c := chainN(3)
		var spans []*history.Op
		open := func() {
			for p := 1; overlap && p < procs; p++ {
				spans = append(spans, rec.InvokeRead(p))
			}
		}
		closeWith := func(ch core.Chain) {
			for _, op := range spans {
				rec.RespondRead(op, ch)
			}
		}
		if egt {
			recordChain(rec, c)
			open()
			for range nViol {
				rec.Read(0, c[:2])
			}
			rec.Read(0, c[:2]) // the final window: stagnant, then grown
			closeWith(c[:2])
			rec.Read(0, c)
			return
		}
		rec.Append(0, c[1], true)
		open()
		for range nViol {
			rec.Read(0, c[:3]) // c[2] not yet appended
		}
		rec.Append(0, c[2], true)
		rec.Append(0, c[3], true)
		closeWith(c[:3])
		rec.Read(0, c)
		rec.Read(0, c)
	}
}

// windowChecked strips the Checked counts a monitor reconstructs from
// arrival positions when completed operations overlap and arrive in
// response order: Ever Growing Tree's when its report is full, and
// Eventual Prefix's.
var windowChecked = regexp.MustCompile(`(?m)^((?:EverGrowingTree|EventualPrefix) ok=\w+) checked=\d+$`)

// TestRetentionBoundary holds the dominance rule at its threshold: a
// class with MaxViolations−1, MaxViolations, MaxViolations+1 and
// MaxViolations+procs−1 violated reads, with atomic and with overlapping
// operations, fed in invocation order (Checker's replay) and in response
// order (the recorder's sink), reports what the oracle reports — OK
// flags, witnesses and Checked — and retains exactly the reads the rule
// keeps. A threshold of MaxViolations−1 loses the last witness of a
// full class; a rule blind to the response index lets the spanning
// classmates crowd out a witness.
func TestRetentionBoundary(t *testing.T) {
	const procs, horizon = 4, 2
	for _, egt := range []bool{true, false} {
		for _, overlap := range []bool{false, true} {
			for _, nViol := range []int{MaxViolations - 1, MaxViolations, MaxViolations + 1, MaxViolations + procs - 1} {
				name := fmt.Sprintf("egt=%v/overlap=%v/violated=%d", egt, overlap, nViol)
				t.Run(name, func(t *testing.T) {
					build := retentionBuild(egt, overlap, nViol, procs)
					rec := history.NewRecorder(procs, nil)
					sink := NewMonitor(MonitorConfig{Procs: procs, Horizon: horizon, Table: rec.Table()})
					rec.SetSink(sink)
					build(rec)
					h := rec.Snapshot()
					chk := NewChecker(nil, nil)
					chk.Horizon = horizon
					osc, oec := oracleClassify(nil, nil, horizon, h)
					rep := osc.Reports[0] // BlockValidity
					if egt {
						rep = osc.Reports[3] // EverGrowingTree
					}
					if got := len(rep.Witnesses); got != min(nViol, MaxViolations) {
						t.Fatalf("fixture: the oracle reports %d witnesses, want %d:\n%s", got, min(nViol, MaxViolations), verdictDump(osc))
					}
					// Process 0's reads of the class (for Ever Growing Tree
					// the stagnant window read too), each other process's one.
					want := min(nViol, MaxViolations)
					if egt {
						want = min(nViol+1, MaxViolations)
					}
					if overlap {
						want += procs - 1
					}
					for _, feed := range []struct {
						name string
						mon  *Monitor
					}{{"invocation order", chk.replay(h)}, {"response order", sink}} {
						sc, ec := feed.mon.Finalize()
						got, wantDump := verdictDump(sc)+verdictDump(ec), verdictDump(osc)+verdictDump(oec)
						if overlap {
							// EventualPrefix.Checked assumes atomic operations.
							got, wantDump = dropEPChecked(got), dropEPChecked(wantDump)
							if feed.mon == sink {
								got, wantDump = windowChecked.ReplaceAllString(got, "$1"), windowChecked.ReplaceAllString(wantDump, "$1")
							}
						}
						if got != wantDump {
							t.Errorf("%s: the monitor departs from the oracle:\n--- oracle ---\n%s--- got ---\n%s", feed.name, wantDump, got)
						}
						if n := largestClass(feed.mon); n != want {
							t.Errorf("%s: the class retains %d reads, want %d", feed.name, n, want)
						}
					}
				})
			}
		}
	}
}

// TestRecSetFeedOrders feeds one class of overlapping reads —
// operations of sequential processes — to a recSet in invocation order
// (Checker's replay) and in response order (the recorder's sink), and
// checks the rule's invariants: no kept read has MaxViolations kept
// dominators, every read with fewer than MaxViolations dominators in the
// whole class is kept, the set stays sorted by invocation, and it holds
// at most MaxViolations+procs−1 reads.
func TestRecSetFeedOrders(t *testing.T) {
	const procs = 4
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := range 40 {
		var reads []opRec
		open := make([]*opRec, procs)
		for step := 0; len(reads) < 3*MaxViolations; step++ {
			p := rng.IntN(procs)
			if r := open[p]; r != nil {
				r.Rsp = step
				reads = append(reads, *r)
				open[p] = nil
			} else {
				open[p] = &opRec{ID: int32(step), Proc: int32(p), Kind: history.OpRead, Inv: step}
			}
		}
		dominators := func(rs []opRec, r opRec) int {
			n := 0
			for _, d := range rs {
				if d.Inv < r.Inv && d.Rsp <= r.Rsp {
					n++
				}
			}
			return n
		}
		byInv := slices.SortedFunc(slices.Values(reads), func(a, b opRec) int { return a.Inv - b.Inv })
		for k, order := range [][]opRec{byInv, reads} { // reads is in response order
			var s recSet
			for i := range order {
				s.insert(&order[i])
			}
			kept := map[int32]bool{}
			for i, r := range s.Recs {
				kept[r.ID] = true
				if i > 0 && s.Recs[i-1].Inv > r.Inv {
					t.Fatalf("trial %d order %d: not sorted by invocation at %d", trial, k, i)
				}
				if n := dominators(s.Recs, r); n >= MaxViolations {
					t.Fatalf("trial %d order %d: kept read %d has %d kept dominators", trial, k, r.ID, n)
				}
			}
			for _, r := range reads {
				if !kept[r.ID] && dominators(reads, r) < MaxViolations {
					t.Fatalf("trial %d order %d: dropped read %d has only %d dominators", trial, k, r.ID, dominators(reads, r))
				}
			}
			if len(s.Recs) > MaxViolations+procs-1 {
				t.Fatalf("trial %d order %d: %d reads kept, bound %d", trial, k, len(s.Recs), MaxViolations+procs-1)
			}
		}
	}
}

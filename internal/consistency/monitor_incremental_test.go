package consistency

import (
	"testing"

	"repro/internal/core"
	"repro/internal/history"
)

// These tests pin the incremental per-chain facts of the Monitor
// (extendFact): their cost, and their equivalence to the oracle on the
// streams built to stress them.

// countingPred counts the blocks P is asked about and rejects the listed
// ones.
type countingPred struct {
	calls   *int
	invalid map[core.BlockID]bool
}

func (p countingPred) Valid(b *core.Block) bool { *p.calls++; return !p.invalid[b.ID] }
func (countingPred) Name() string               { return "counting" }

// FuzzMonitorInternedEquivalence replays FuzzMonitorEquivalence's op
// streams — forks, stale reads, forged and never-appended blocks,
// duplicate and pending appends, reads recorded as a head or as an
// explicit chain, both interned — so that the extended facts face the
// oracle under the length score (read off the op) and chainLength (the
// same score, materialized and memoized by chain), fed directly and out
// of 2–4-op segments whose ops a drop-mode recorder takes back and
// reuses (the recycled path: a record that still pointed into a
// delivered op would render a later operation in its witness). On each
// feed the two scores' verdicts, witnesses and Checked counts must be
// equal.
func FuzzMonitorInternedEquivalence(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		const procs = 3
		build := func(rec *history.Recorder) { fuzzBuild(rec, procs, data) }
		for _, hn := range []monitorHarness{{}, {segSize: 2 + len(data)%3, drop: true}} {
			var fast string
			for _, score := range []core.Score{core.LengthScore{}, chainLength{}} {
				hn.score = score
				sc, ec := hn.run(t, procs, build).Finalize()
				got := verdictDump(sc) + verdictDump(ec)
				if fast == "" {
					fast = got
				} else if got != fast {
					t.Errorf("seg=%d: %s judges\n%s\nthe length fast path\n%s", hn.segSize, score.Name(), got, fast)
				}
			}
		}
	})
}

// TestMonitorValidatesEachBlockOnce proves the complexity claim: on a
// single-writer stream with one read per block the monitor asks P about
// each block once — 2 000 calls, where a scan per distinct chain makes
// 2 001 000 — whether the reads are recorded as heads or as explicit
// chains, also when the monitor is checkpointed and restored half way,
// and Finalize on the benign run adds none.
func TestMonitorValidatesEachBlockOnce(t *testing.T) {
	const blocks = 2000
	for _, explicit := range []bool{false, true} {
		for _, cut := range []int{-1, blocks / 2} {
			calls := 0
			rec := history.NewRecorder(1, nil)
			rec.SetRetain(false)
			cfg := MonitorConfig{Procs: 1, P: countingPred{calls: &calls}, Table: rec.Table()}
			sink := &ckptSink{t: t, mon: NewMonitor(cfg), cfg: cfg, at: 2 * cut}
			rec.SetSink(sink)

			chain := core.GenesisChain()
			for i := 1; i <= blocks; i++ {
				parent := chain.Head()
				head := core.NewBlock(parent.ID, parent.Height+1, 0, i, nil)
				chain = append(chain, head)
				rec.InternBlock(head)
				rec.Append(0, head, true)
				if explicit {
					rec.Read(0, chain)
				} else {
					rec.ReadHead(0, head)
				}
			}
			if calls != blocks {
				t.Errorf("explicit=%v cut=%d: P called %d times while streaming, want %d", explicit, cut, calls, blocks)
			}

			sc, ec := sink.mon.Finalize()
			if !sc.OK || !ec.OK {
				t.Errorf("explicit=%v cut=%d: benign stream judged SC=%v EC=%v", explicit, cut, sc.OK, ec.OK)
			}
			if got := sc.Reports[0]; got.Property != "BlockValidity" || got.Checked != blocks*(blocks+1)/2 {
				t.Errorf("explicit=%v cut=%d: %s checked %d blocks, want %d", explicit, cut, got.Property, got.Checked, blocks*(blocks+1)/2)
			}
			if calls != blocks {
				t.Errorf("explicit=%v cut=%d: P called %d times after Finalize, want %d", explicit, cut, calls, blocks)
			}
		}
	}
}

// TestMonitorAppendRecordedAfterRead is the adversarial order for the
// extended facts: block c[3] is read before its append is recorded, so
// its chain's fact is unclean for want of an append. The reads of its
// descendants must not inherit that — by then the append has arrived —
// while the early read itself stays a suspect that Finalize re-resolves
// into the "appended only later" witness the definition asks for.
func TestMonitorAppendRecordedAfterRead(t *testing.T) {
	calls, streamed := 0, 0
	c := chainN(40)
	mon := monitorHarness{pred: countingPred{calls: &calls}}.run(t, 2, func(rec *history.Recorder) {
		for _, b := range c {
			rec.InternBlock(b)
		}
		recordChain(rec, c[:3])
		rec.ReadHead(0, c[2]) // clean ancestor to extend from
		rec.ReadHead(1, c[3]) // before append(c[3]) is recorded
		rec.ReadHead(0, c[3])
		recordChain(rec, c[3:])
		for i := 4; i <= 40; i++ {
			rec.ReadHead(i%2, c[i])
		}
		streamed = calls
	})
	// c[1..2], then c[3], then c[3] again (its fact is passed over) with
	// c[4], then one block per read.
	if want := 2 + 1 + 2 + 36; streamed != want {
		t.Errorf("P called %d times while streaming, want %d", streamed, want)
	}
	if got := mon.Stats().SuspectKeys; got != 1 {
		t.Errorf("suspect chains %d, want 1 (the early read's only)", got)
	}
	if f := mon.BVFacts[chainKey{c[40].ID, 41}]; !f.Clean || f.NonGenesis != 40 {
		t.Errorf("fact of the longest chain: %+v, want clean over 40 blocks", f)
	}
}

// TestMonitorInvalidAncestorExtends: a block P rejects makes every chain
// through it unclean for good, so those facts are extended, not
// re-examined — P still sees each block once while streaming — and every
// read above it is reported exactly as the oracle reports it.
func TestMonitorInvalidAncestorExtends(t *testing.T) {
	calls, streamed := 0, 0
	c := chainN(30)
	pred := countingPred{calls: &calls, invalid: map[core.BlockID]bool{c[10].ID: true}}
	mon := monitorHarness{pred: pred}.run(t, 2, func(rec *history.Recorder) {
		for _, b := range c {
			rec.InternBlock(b)
		}
		recordChain(rec, c)
		for i := 1; i <= 30; i++ {
			rec.ReadHead(i%2, c[i])
		}
		streamed = calls
	})
	if streamed != 30 {
		t.Errorf("P called %d times while streaming, want 30", streamed)
	}
	if f := mon.BVFacts[chainKey{c[30].ID, 31}]; f.Clean || !f.HasInvalid || f.FirstInvalid != c[10].ID {
		t.Errorf("fact of the longest chain: %+v, want first invalid %s", f, c[10].ID.Short())
	}
}

// TestMonitorFactMemoKeysOnHead: consecutive reads of two chains of one
// length, the second through a block P rejects, take two facts — the
// one-entry memo in front of BVFacts matches the whole key, head and
// length — and a read of the first chain after them finds its own fact
// again. The harness holds the Block Validity report to the oracle's.
func TestMonitorFactMemoKeysOnHead(t *testing.T) {
	base := chainN(3)
	fork := forkN(base, 1, 2)
	pred := countingPred{calls: new(int), invalid: map[core.BlockID]bool{fork[3].ID: true}}
	mon := monitorHarness{pred: pred}.run(t, 2, func(rec *history.Recorder) {
		for _, b := range append(base, fork[2:]...) {
			rec.InternBlock(b)
		}
		recordChain(rec, base, fork)
		rec.ReadHead(0, base.Head())
		rec.ReadHead(1, fork.Head())
		rec.ReadHead(0, base.Head())
	})
	sc, _ := mon.Finalize()
	if bv := sc.Reports[0]; bv.Property != "BlockValidity" || bv.OK || len(bv.Violations) != 1 {
		t.Errorf("Block Validity %v with %d violations, want the fork's read alone", bv.OK, len(bv.Violations))
	}
}

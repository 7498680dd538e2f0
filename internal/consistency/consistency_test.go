package consistency

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/history"
)

// chainN builds a canonical chain of n blocks after genesis.
func chainN(n int) core.Chain {
	c := core.GenesisChain()
	for i := 1; i <= n; i++ {
		h := c.Head()
		c = c.Append(core.NewBlock(h.ID, h.Height+1, 0, i, []byte{byte(i)}))
	}
	return c
}

// forkN builds a chain diverging from base after `common` blocks with
// `extra` fresh blocks.
func forkN(base core.Chain, common, extra int) core.Chain {
	c := base[:common+1].Clone()
	for i := 0; i < extra; i++ {
		h := c.Head()
		c = c.Append(core.NewBlock(h.ID, h.Height+1, 7, 1000+i, []byte{0xBB, byte(i)}))
	}
	return c
}

// recordChain registers successful appends for every non-genesis block.
func recordChain(rec *history.Recorder, chains ...core.Chain) {
	seen := map[core.BlockID]bool{}
	for _, c := range chains {
		for _, b := range c {
			if !b.IsGenesis() && !seen[b.ID] {
				seen[b.ID] = true
				rec.Append(b.Creator, b, true)
			}
		}
	}
}

func TestBlockValidityHolds(t *testing.T) {
	rec := history.NewRecorder(1, nil)
	c := chainN(3)
	recordChain(rec, c)
	rec.Read(0, c)
	rep := NewChecker(nil, nil).BlockValidity(rec.Snapshot())
	if !rep.OK {
		t.Fatalf("violated: %v", rep.Violations)
	}
	if rep.Checked != 3 {
		t.Fatalf("checked %d blocks, want 3", rep.Checked)
	}
}

func TestBlockValidityMissingAppend(t *testing.T) {
	rec := history.NewRecorder(1, nil)
	c := chainN(2)
	// Only the first block is appended; the second appears from
	// nowhere.
	rec.Append(0, c[1], true)
	rec.Read(0, c)
	rep := NewChecker(nil, nil).BlockValidity(rec.Snapshot())
	if rep.OK {
		t.Fatal("missing append not detected")
	}
}

func TestBlockValidityAppendAfterRead(t *testing.T) {
	rec := history.NewRecorder(1, nil)
	c := chainN(1)
	rec.Read(0, c) // read before the append exists
	rec.Append(0, c[1], true)
	rep := NewChecker(nil, nil).BlockValidity(rec.Snapshot())
	if rep.OK {
		t.Fatal("read of future block not detected")
	}
}

func TestBlockValidityPredicate(t *testing.T) {
	rec := history.NewRecorder(1, nil)
	c := chainN(1)
	recordChain(rec, c)
	rec.Read(0, c)
	rep := NewChecker(nil, core.RejectAll{}).BlockValidity(rec.Snapshot())
	if rep.OK {
		t.Fatal("P(b)=false block accepted")
	}
}

func TestLocalMonotonicRead(t *testing.T) {
	rec := history.NewRecorder(2, nil)
	c := chainN(3)
	recordChain(rec, c)
	rec.Read(0, c[:3]) // score 2
	rec.Read(0, c)     // score 3: fine
	rec.Read(1, c)     // other process
	rec.Read(1, c[:2]) // score drops 3 → 1: violation
	rep := NewChecker(nil, nil).LocalMonotonicRead(rec.Snapshot())
	if rep.OK {
		t.Fatal("score drop not detected")
	}
	if rep.Checked != 2 {
		t.Fatalf("checked %d pairs, want 2", rep.Checked)
	}
}

func TestLocalMonotonicReadAllowsPlateau(t *testing.T) {
	rec := history.NewRecorder(1, nil)
	c := chainN(2)
	recordChain(rec, c)
	rec.Read(0, c)
	rec.Read(0, c) // same score: allowed (≤)
	rep := NewChecker(nil, nil).LocalMonotonicRead(rec.Snapshot())
	if !rep.OK {
		t.Fatal("plateau rejected")
	}
}

func TestLocalMonotonicReadAllowsBranchSwitchSameScore(t *testing.T) {
	rec := history.NewRecorder(1, nil)
	a := chainN(2)
	b := forkN(a, 0, 2)
	recordChain(rec, a, b)
	rec.Read(0, a)
	rec.Read(0, b) // different branch, same score
	rep := NewChecker(nil, nil).LocalMonotonicRead(rec.Snapshot())
	if !rep.OK {
		t.Fatalf("same-score branch switch rejected: %v", rep.Violations)
	}
}

func TestStrongPrefixDetectsDivergence(t *testing.T) {
	rec := history.NewRecorder(2, nil)
	a := chainN(3)
	b := forkN(a, 1, 2)
	recordChain(rec, a, b)
	rec.Read(0, a)
	rec.Read(1, b)
	chk := NewChecker(nil, nil)
	h := rec.Snapshot()
	if chk.StrongPrefix(h).OK {
		t.Fatal("divergence not detected")
	}
	if chk.property(h, "StrongPrefix").OK {
		t.Fatal("criterion report missed divergence")
	}
}

func TestStrongPrefixHoldsOnPrefixes(t *testing.T) {
	rec := history.NewRecorder(2, nil)
	c := chainN(4)
	recordChain(rec, c)
	rec.Read(0, c[:2])
	rec.Read(1, c[:4])
	rec.Read(0, c)
	chk := NewChecker(nil, nil)
	h := rec.Snapshot()
	if !chk.StrongPrefix(h).OK || !chk.property(h, "StrongPrefix").OK {
		t.Fatal("prefix-ordered reads rejected")
	}
}

func TestEverGrowingTree(t *testing.T) {
	rec := history.NewRecorder(1, nil)
	c := chainN(5)
	recordChain(rec, c)
	for i := 1; i <= 5; i++ {
		rec.Read(0, c[:i+1])
	}
	chk := NewChecker(nil, nil)
	if rep := chk.EverGrowingTree(rec.Snapshot()); !rep.OK {
		t.Fatalf("growing reads rejected: %v", rep.Violations)
	}
}

func TestEverGrowingTreeStuckProcess(t *testing.T) {
	// Process 1 keeps reading a stale *prefix* of the chain to the
	// very end while process 0's reads grow: that is persistent
	// stagnation (Ever Growing Tree violated), but NOT structural
	// divergence (the stale chain prefixes the long one, so Eventual
	// Prefix holds). Verify exactly that split.
	rec := history.NewRecorder(2, nil)
	full := chainN(6)
	recordChain(rec, full)
	rec.Read(1, full[:1]) // stuck at genesis
	rec.Read(0, full[:3])
	rec.Read(1, full[:1])
	rec.Read(0, full[:4])
	rec.Read(0, full)
	rec.Read(1, full[:1]) // still stuck in the final window
	chk := NewChecker(nil, nil)
	h := rec.Snapshot()
	if rep := chk.EverGrowingTree(h); rep.OK {
		t.Fatal("persistent stagnation not detected")
	}
	if rep := chk.EventualPrefix(h); !rep.OK {
		t.Fatalf("prefix-stuck process flagged as divergence: %v", rep.Violations)
	}
}

func TestEverGrowingTreeViolated(t *testing.T) {
	// Process 1's reads stagnate at score 1 into the final window
	// while process 0's reads grow past it.
	rec := history.NewRecorder(2, nil)
	c := chainN(4)
	recordChain(rec, c)
	rec.Read(1, c[:2]) // score 1
	rec.Read(0, c[:3]) // score 2
	rec.Read(1, c[:2]) // still 1
	rec.Read(0, c)     // score 4 — growth
	rec.Read(1, c[:2]) // stagnant in the final window
	if rep := NewChecker(nil, nil).EverGrowingTree(rec.Snapshot()); rep.OK {
		t.Fatal("stagnant reads accepted")
	}
}

func TestEverGrowingTreeFrontierExempt(t *testing.T) {
	// All final-window reads sit at the maximum score: that is the
	// truncation frontier, not stagnation.
	rec := history.NewRecorder(2, nil)
	c := chainN(3)
	recordChain(rec, c)
	rec.Read(0, c[:2])
	rec.Read(1, c[:3])
	rec.Read(0, c)
	rec.Read(1, c)
	if rep := NewChecker(nil, nil).EverGrowingTree(rec.Snapshot()); !rep.OK {
		t.Fatalf("frontier reads flagged: %v", rep.Violations)
	}
}

func TestEventualPrefixDivergenceDetected(t *testing.T) {
	// Two processes end on different branches of equal score.
	rec := history.NewRecorder(2, nil)
	a := chainN(4)
	b := forkN(a, 1, 3)
	recordChain(rec, a, b)
	rec.Read(0, a[:2])
	rec.Read(1, b[:3])
	rec.Read(0, a)
	rec.Read(1, b)
	if rep := NewChecker(nil, nil).EventualPrefix(rec.Snapshot()); rep.OK {
		t.Fatal("persistent branch divergence not detected")
	}
}

func TestEventualPrefixConvergence(t *testing.T) {
	rec := history.NewRecorder(2, nil)
	a := chainN(4)
	b := forkN(a, 1, 1)
	recordChain(rec, a, b)
	rec.Read(0, b) // diverged early read
	rec.Read(1, a[:3])
	rec.Read(0, a[:4])
	rec.Read(1, a[:4])
	rec.Read(0, a)
	rec.Read(1, a)
	rep := NewChecker(nil, nil).EventualPrefix(rec.Snapshot())
	if !rep.OK {
		t.Fatalf("converging history rejected: %v", rep.Violations)
	}
}

func TestKForkCoherence(t *testing.T) {
	rec := history.NewRecorder(2, nil)
	g := core.Genesis()
	tok := "tkn(b0)"
	b1 := core.NewBlock(g.ID, 1, 0, 1, nil).WithToken(tok)
	b2 := core.NewBlock(g.ID, 1, 1, 2, nil).WithToken(tok)
	rec.Append(0, b1, true)
	rec.Append(1, b2, true)
	chk := NewChecker(nil, nil)
	h := rec.Snapshot()
	if chk.KForkCoherence(h, 1).OK {
		t.Fatal("two tokens accepted at k=1")
	}
	if !chk.KForkCoherence(h, 2).OK {
		t.Fatal("two tokens rejected at k=2")
	}
}

func TestKForkCoherenceGroupsByParentWithoutToken(t *testing.T) {
	rec := history.NewRecorder(2, nil)
	g := core.Genesis()
	b1 := core.NewBlock(g.ID, 1, 0, 1, nil)
	b2 := core.NewBlock(g.ID, 1, 1, 2, nil)
	rec.Append(0, b1, true)
	rec.Append(1, b2, true)
	chk := NewChecker(nil, nil)
	if chk.KForkCoherence(rec.Snapshot(), 1).OK {
		t.Fatal("untokenized same-parent appends not grouped")
	}
}

func TestKForkCoherenceIgnoresFailedAppends(t *testing.T) {
	rec := history.NewRecorder(2, nil)
	g := core.Genesis()
	tok := "tkn(b0)"
	rec.Append(0, core.NewBlock(g.ID, 1, 0, 1, nil).WithToken(tok), true)
	rec.Append(1, core.NewBlock(g.ID, 1, 1, 2, nil).WithToken(tok), false)
	if !NewChecker(nil, nil).KForkCoherence(rec.Snapshot(), 1).OK {
		t.Fatal("failed append counted against k")
	}
}

func TestVerdictAggregation(t *testing.T) {
	rec := history.NewRecorder(2, nil)
	c := chainN(3)
	recordChain(rec, c)
	rec.Read(0, c[:2])
	rec.Read(1, c[:3])
	rec.Read(0, c)
	rec.Read(1, c)
	chk := NewChecker(nil, nil)
	sc, ec := chk.Classify(rec.Snapshot())
	if !sc.OK || !ec.OK {
		t.Fatalf("clean history rejected: %s / %s", sc, ec)
	}
	if sc.Criterion != "SC" || ec.Criterion != "EC" {
		t.Fatal("criterion labels wrong")
	}
	if len(sc.Failing()) != 0 {
		t.Fatal("Failing nonempty on OK verdict")
	}
	// BlockValidity, LocalMonotonicRead and EverGrowingTree are judged
	// once and shared by the two criteria.
	if sc.Reports[0] != ec.Reports[0] || sc.Reports[1] != ec.Reports[1] || sc.Reports[3] != ec.Reports[2] {
		t.Fatal("a property common to SC and EC was reported twice")
	}
}

// TestCheckerConcurrentClassify: every call replays into its own
// monitor, so one Checker serves concurrent callers without a lock —
// run under -race. The history is shared too (its memoized views are
// filled, and its block index walked, concurrently).
func TestCheckerConcurrentClassify(t *testing.T) {
	rec := history.NewRecorder(3, nil)
	fuzzBuild(rec, 3, []byte{0, 0, 2, 3, 11, 3, 2, 11, 3, 5, 45, 5, 6, 70, 6, 3, 4, 12, 20})
	h := rec.Snapshot()
	chk := NewChecker(core.WeightScore{}, nil)
	osc, oec := oracleClassify(core.WeightScore{}, nil, 0, h)
	want := verdictDump(osc) + verdictDump(oec) + reportDump(oracleKFork(h, 1))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				sc, ec := chk.Classify(h)
				if got := verdictDump(sc) + verdictDump(ec) + reportDump(chk.KForkCoherence(h, 1)); got != want {
					t.Errorf("concurrent Classify diverged from the oracle:\n--- oracle ---\n%s--- classify ---\n%s", want, got)
					return
				}
				if chk.StrongPrefix(h).OK != sc.Reports[2].OK {
					t.Error("all-pairs StrongPrefix disagrees with the criterion")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestFaultyReadsExcluded(t *testing.T) {
	rec := history.NewRecorder(2, nil)
	a := chainN(3)
	b := forkN(a, 0, 3)
	recordChain(rec, a, b)
	rec.Read(0, a)
	rec.Read(1, b) // Byzantine process reads garbage
	rec.MarkFaulty(1)
	chk := NewChecker(nil, nil)
	if !chk.StrongPrefix(rec.Snapshot()).OK {
		t.Fatal("faulty process's read affected Strong Prefix")
	}
}

// Property (Theorem 3.1 sampled): on randomly generated prefix-ordered
// histories, SC ⇒ EC.
func TestQuickSCImpliesEC(t *testing.T) {
	f := func(lens []uint8, procsRaw uint8) bool {
		procs := int(procsRaw%3) + 1
		full := chainN(12)
		rec := history.NewRecorder(procs, nil)
		recordChain(rec, full)
		last := make([]int, procs)
		for i, l := range lens {
			p := i % procs
			n := int(l % 13)
			if n < last[p] {
				n = last[p] // keep local monotonicity
			}
			last[p] = n
			rec.Read(p, full[:n+1])
		}
		h := rec.Snapshot()
		chk := NewChecker(nil, nil)
		sc, ec := chk.Classify(h)
		if sc.OK && !ec.OK {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the all-pairs Strong Prefix and the criterion's report (the
// monitor's, over the reads ordered by chain length) agree.
func TestQuickStrongPrefixVariantsAgree(t *testing.T) {
	full := chainN(10)
	alt := forkN(full, 3, 7)
	f := func(pick []bool) bool {
		rec := history.NewRecorder(2, nil)
		recordChain(rec, full, alt)
		for i, b := range pick {
			n := i%9 + 1
			if b {
				rec.Read(i%2, full[:n+1])
			} else {
				rec.Read(i%2, alt[:n+1])
			}
		}
		h := rec.Snapshot()
		chk := NewChecker(nil, nil)
		return chk.StrongPrefix(h).OK == chk.property(h, "StrongPrefix").OK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: k-fork coherence is monotone in k (Theorem 3.4's engine).
func TestQuickForkCoherenceMonotone(t *testing.T) {
	g := core.Genesis()
	f := func(count uint8, k1Raw, k2Raw uint8) bool {
		n := int(count%6) + 1
		rec := history.NewRecorder(1, nil)
		for i := 0; i < n; i++ {
			b := core.NewBlock(g.ID, 1, i, i, nil).WithToken("tkn(b0)")
			rec.Append(0, b, true)
		}
		k1 := int(k1Raw%8) + 1
		k2 := k1 + int(k2Raw%8)
		h := rec.Snapshot()
		chk := NewChecker(nil, nil)
		ok1 := chk.KForkCoherence(h, k1).OK
		ok2 := chk.KForkCoherence(h, k2).OK
		// k1 ≤ k2: coherence at k1 implies coherence at k2.
		if ok1 && !ok2 {
			return false
		}
		// Exact characterisation: coherent at k iff n ≤ k.
		return ok1 == (n <= k1) && ok2 == (n <= k2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerDefaults(t *testing.T) {
	chk := NewChecker(nil, nil)
	if chk.Score.Name() != "length" || chk.P.Name() != "always" {
		t.Fatal("defaults wrong")
	}
}

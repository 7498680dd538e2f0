package consistency

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
)

// randomHistory generates a history of reads over a two-branch tree:
// clean prefix-ordered runs and diverging runs both arise.
func randomHistory(rng *rand.Rand, procs, nReads int) *history.History {
	main := core.GenesisChain()
	for i := 1; i <= 10; i++ {
		h := main.Head()
		main = main.Append(core.NewBlock(h.ID, h.Height+1, 0, i, []byte{byte(i)}))
	}
	alt := slices.Clone(main[:1+rng.Intn(4)])
	for i := 0; i < 8; i++ {
		h := alt.Head()
		alt = alt.Append(core.NewBlock(h.ID, h.Height+1, 1, 100+i, []byte{byte(i)}))
	}
	rec := history.NewRecorder(procs, nil)
	for _, b := range main[1:] {
		rec.Append(0, b, true)
	}
	for _, b := range alt[1:] {
		rec.Append(1, b, true)
	}
	for i := 0; i < nReads; i++ {
		src := main
		if rng.Intn(3) == 0 {
			src = alt
		}
		cut := 1 + rng.Intn(len(src)-1)
		rec.Read(rng.Intn(procs), src[:cut+1])
	}
	return rec.Snapshot()
}

// TestEventualPrefixMatchesReference pins the monitor's Eventual Prefix
// (window MCPS computed once, the enumeration replayed only over the
// retained candidates) against the definition-literal enumeration on
// randomized histories.
func TestEventualPrefixMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		h := randomHistory(rng, 2+rng.Intn(3), 3+rng.Intn(12))
		chk := NewChecker(nil, nil)
		got := chk.EventualPrefix(h)
		_, oec := oracleClassify(nil, nil, 0, h)
		want := oec.Reports[3]
		if got.OK != want.OK || got.Checked != want.Checked {
			t.Fatalf("trial %d: (ok=%v checked=%d) vs reference (ok=%v checked=%d)",
				trial, got.OK, got.Checked, want.OK, want.Checked)
		}
		if fmt.Sprint(got.Violations) != fmt.Sprint(want.Violations) {
			t.Fatalf("trial %d: violations diverged:\n got %v\nwant %v", trial, got.Violations, want.Violations)
		}
	}
}

// TestSortedStrongPrefixMatchesPairwise pins the criterion-level Strong
// Prefix verdict (reads ordered by chain length) against the all-pairs
// checker on the same randomized histories.
func TestSortedStrongPrefixMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		h := randomHistory(rng, 2+rng.Intn(3), 3+rng.Intn(12))
		chk := NewChecker(nil, nil)
		pairwise := chk.StrongPrefix(h)
		sc, _ := chk.Classify(h)
		var sorted *Report
		for _, r := range sc.Reports {
			if r.Property == "StrongPrefix" {
				sorted = r
			}
		}
		if sorted == nil {
			t.Fatal("SC verdict missing StrongPrefix report")
		}
		if sorted.OK != pairwise.OK {
			t.Fatalf("trial %d: sorted verdict %v, pairwise %v", trial, sorted.OK, pairwise.OK)
		}
	}
}

// zeroScore is a degenerate (non-strictly-monotonic) score: every chain
// scores 0. The criterion-level sorted Strong Prefix must still agree
// with the exact pairwise checker under it — the sort key is chain
// length, not score.
type zeroScore struct{}

func (zeroScore) Of(core.Chain) int { return 0 }
func (zeroScore) Name() string      { return "zero" }

func TestSortedStrongPrefixDegenerateScore(t *testing.T) {
	chain := core.GenesisChain()
	h := chain.Head()
	chain = chain.Append(core.NewBlock(h.ID, h.Height+1, 0, 1, []byte{1}))

	// Comparable reads (G prefixes G⌢X), recorded longer-first so a
	// recording-order tiebreak alone would mis-order them.
	rec := history.NewRecorder(2, nil)
	rec.Append(0, chain[1], true)
	rec.Read(0, chain)
	rec.Read(1, chain[:1])
	hist := rec.Snapshot()

	chk := NewChecker(zeroScore{}, nil)
	if !chk.StrongPrefix(hist).OK {
		t.Fatal("pairwise checker rejected comparable reads")
	}
	sc, _ := chk.Classify(hist)
	for _, r := range sc.Reports {
		if r.Property == "StrongPrefix" && !r.OK {
			t.Fatalf("sorted StrongPrefix false violation under degenerate score: %v", r.Violations)
		}
	}
}

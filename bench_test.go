// Package repro's root bench harness: one testing.B benchmark per paper
// artifact (Figures 1–14, Table 1, the two theorem witnesses), each
// regenerating the artifact and failing the benchmark if it does not
// reproduce, plus the ablation benches DESIGN.md calls out:
//
//	BenchmarkAblationForkChoice      — longest vs heaviest vs GHOST on one trace
//	BenchmarkAblationFrugalK         — k = 1, 2, 4, ∞ frugal oracles
//	BenchmarkAblationSynchrony       — δ-sync vs GST vs async delivery
//	BenchmarkAblationCheckerStrategy — pairwise vs sorted Strong Prefix check
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"fmt"
	"math/rand"
	rtmetrics "runtime/metrics"
	"strings"
	"testing"
	"time"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/history"
	"repro/internal/oracle"
	"repro/internal/protocols"
	"repro/internal/protocols/algorand"
	"repro/internal/protocols/bitcoin"
	"repro/internal/protocols/byzcoin"
	"repro/internal/protocols/ethereum"
	"repro/internal/protocols/fabric"
	"repro/internal/protocols/peercensus"
	"repro/internal/protocols/redbelly"
	"repro/internal/refine"
	"repro/internal/replica"
	"repro/internal/simnet"
)

// benchExperiment wraps one experiment into a benchmark that also
// verifies reproduction.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e := experiments.ByID(id)
	if e == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		res := e.Run(42 + uint64(i%3))
		if !res.OK {
			b.Fatalf("%s did not reproduce:\n%s", res.ID, res)
		}
	}
}

func BenchmarkFigure1SequentialSpec(b *testing.B)           { benchExperiment(b, "fig1") }
func BenchmarkFigure2StrongConsistency(b *testing.B)        { benchExperiment(b, "fig2") }
func BenchmarkFigure3EventualConsistency(b *testing.B)      { benchExperiment(b, "fig3") }
func BenchmarkFigure4Violation(b *testing.B)                { benchExperiment(b, "fig4") }
func BenchmarkFigure5OracleState(b *testing.B)              { benchExperiment(b, "fig5") }
func BenchmarkFigure6OraclePath(b *testing.B)               { benchExperiment(b, "fig6") }
func BenchmarkFigure7RefinedAppend(b *testing.B)            { benchExperiment(b, "fig7") }
func BenchmarkFigure8Hierarchy(b *testing.B)                { benchExperiment(b, "fig8") }
func BenchmarkFigure9CASvsCT(b *testing.B)                  { benchExperiment(b, "fig9") }
func BenchmarkFigure10CASFromCT(b *testing.B)               { benchExperiment(b, "fig10") }
func BenchmarkFigure11Consensus(b *testing.B)               { benchExperiment(b, "fig11") }
func BenchmarkFigure12Snapshot(b *testing.B)                { benchExperiment(b, "fig12") }
func BenchmarkFigure13UpdateAgreement(b *testing.B)         { benchExperiment(b, "fig13") }
func BenchmarkFigure14MessagePassingHierarchy(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkTheoremLRCNecessity(b *testing.B)             { benchExperiment(b, "lrc") }
func BenchmarkTheorem48Impossibility(b *testing.B)          { benchExperiment(b, "thm48") }
func BenchmarkTable1Classification(b *testing.B)            { benchExperiment(b, "table1") }

// BenchmarkSimScale is the end-to-end pipeline benchmark
// (simscale_test.go): N replicas, one flooded block per tick,
// periodic read batches, a full consistency verdict, and the suite's
// self-check on every iteration. Besides wall time and -benchmem's
// B/op and allocs/op each row reports its peak live heap, so the batch
// and -stream rows — identical workloads — price retained vs. bounded
// memory directly. SCALING.md records the scaling rows:
//
//	go test -run '^$' -bench 'SimScale/N1024' -benchtime 1x -benchmem -count 10 -cpu 1,2 .
func BenchmarkSimScale(b *testing.B) {
	for _, c := range simScaleCases() {
		b.Run(strings.TrimPrefix(c.Name(), "SimScale/"), func(b *testing.B) {
			b.ReportAllocs()
			stop := samplePeakHeap()
			defer func() { b.ReportMetric(float64(stop())/1e6, "peak-heap-MB") }()
			for i := 0; i < b.N; i++ {
				st, _ := runSimScale(c)
				if err := checkSimScale(c, st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// samplePeakHeap polls the live heap until the returned stop function is
// called; stop reports the high-water mark in bytes. 2 ms sampling is
// coarse against individual spikes but faithful for the sustained
// plateaus the pipeline workloads produce.
func samplePeakHeap() (stop func() uint64) {
	quit, done := make(chan struct{}), make(chan struct{})
	var peak uint64
	go func() {
		defer close(done)
		heap := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for running := true; running; {
			select {
			case <-quit:
				running = false
			case <-tick.C:
			}
			rtmetrics.Read(heap)
			peak = max(peak, heap[0].Value.Uint64())
		}
	}()
	return func() uint64 { close(quit); <-done; return peak }
}

// powTrace runs one Bitcoin-style simulation and returns its result
// (shared input for the fork-choice ablation).
func powTrace(seed uint64) *protocols.Result {
	return bitcoin.Run(protocols.Config{N: 4, Rounds: 200, Seed: seed, ReadEvery: 10, Difficulty: 5})
}

// BenchmarkAblationForkChoice evaluates the three selection functions on
// the same final BlockTree: the selector changes which chain reads
// return (and how fast selection runs) but never the EC verdict
// (DESIGN.md ablation #1).
func BenchmarkAblationForkChoice(b *testing.B) {
	res := powTrace(1)
	tree := res.Trees[0]
	for _, f := range []core.Selector{core.LongestChain{}, core.HeaviestChain{}, core.GHOST{}} {
		b.Run(f.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := f.Select(tree)
				if c.Len() == 0 {
					b.Fatal("empty selection")
				}
			}
		})
	}
}

// BenchmarkAblationFrugalK drives the same refined-append workload
// against oracles of increasing k and reports the throughput cost of the
// fork bound (DESIGN.md ablation #2).
func BenchmarkAblationFrugalK(b *testing.B) {
	for _, k := range []int{1, 2, 4, oracle.Unbounded} {
		name := fmt.Sprintf("k=%d", k)
		if k == oracle.Unbounded {
			name = "k=inf"
		}
		b.Run(name, func(b *testing.B) {
			orc := oracle.NewFrugal(k, nil, core.WellFormed{}, 7)
			bt := refine.New(refine.Config{Oracle: orc})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bt.Append(i%4, 0.9, i, []byte{byte(i), byte(i >> 8), byte(i >> 16)})
			}
		})
	}
}

// BenchmarkAblationSynchrony floods the same block workload under the
// three timing models (DESIGN.md ablation #3): the simulator cost per
// delivered message and the convergence behaviour.
func BenchmarkAblationSynchrony(b *testing.B) {
	models := []simnet.DelayModel{
		simnet.Synchronous{Delta: 3},
		simnet.PartialSynchrony{GST: 50, DeltaBefore: 20, DeltaAfter: 3},
		simnet.Asynchronous{P: 0.3},
	}
	for _, m := range models {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim := simnet.NewSim(uint64(i))
				g := replica.NewGroup(sim, 4, m, core.LongestChain{})
				for j := 0; j < 30; j++ {
					p := j % 4
					round := j
					tt := int64(j*25 + 1)
					sim.Schedule(tt, func() {
						// Each process extends its own selected
						// head: appends never depend on in-flight
						// deliveries, whatever the delay tail.
						head := g.Procs[p].SelectedHead()
						blk := core.NewBlock(head.ID, head.Height+1, p, round, []byte{byte(round)})
						g.Procs[p].AppendLocal(blk)
					})
				}
				sim.RunUntilIdle()
				want := g.Procs[0].Tree().Len()
				for _, p := range g.Procs {
					if p.Tree().Len() != want {
						b.Fatalf("replicas diverged under %s", m.Name())
					}
				}
			}
		})
	}
}

// BenchmarkAblationCheckerStrategy compares the O(r²) all-pairs Strong
// Prefix checker against the criterion's report — the replay into the
// monitor, which orders the reads by chain length and judges the other
// four properties on the way — on a long prefix-ordered history
// (DESIGN.md ablation #4).
func BenchmarkAblationCheckerStrategy(b *testing.B) {
	chain := core.GenesisChain()
	for i := 1; i <= 400; i++ {
		h := chain.Head()
		chain = chain.Append(core.NewBlock(h.ID, h.Height+1, 0, i, []byte{byte(i)}))
	}
	rec := history.NewRecorder(4, nil)
	for _, blk := range chain[1:] {
		rec.Append(0, blk, true)
	}
	for i := 1; i <= 400; i++ {
		rec.Read(i%4, chain[:i+1])
	}
	h := rec.Snapshot()
	chk := consistency.NewChecker(nil, nil)

	b.Run("pairwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !chk.StrongPrefix(h).OK {
				b.Fatal("violation on clean history")
			}
		}
	})
	b.Run("classify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if sc, _ := chk.Classify(h); !sc.Reports[2].OK {
				b.Fatal("violation on clean history")
			}
		}
	})
}

// buildScalingTree builds an n-block tree of the given shape for the
// selector-scaling benchmarks (DESIGN.md ablation #5):
//
//   - "chainlike": 50 long competing branches extended round-robin —
//     few leaves, deep paths (height n/50), the shape of a chain with a
//     handful of long-lived forks;
//   - "forked": every block chains under a uniformly random earlier
//     block — many leaves, shallow paths, the worst case for leaf-count
//     dependent selection.
//
// Weights cycle 1..7 so heaviest-chain does real work.
func buildScalingTree(b *testing.B, n int, shape string) *core.Tree {
	b.Helper()
	tr := core.NewTree()
	attach := func(blk *core.Block) {
		if err := tr.Attach(blk); err != nil {
			b.Fatal(err)
		}
	}
	switch shape {
	case "chainlike":
		const branches = 50
		tips := make([]*core.Block, branches)
		for i := range tips {
			tips[i] = core.Genesis()
		}
		for i := 0; i < n; i++ {
			k := i % branches
			p := tips[k]
			blk := core.NewBlock(p.ID, p.Height+1, k, i, []byte{byte(i), byte(i >> 8)}).
				WithWeight(i%7 + 1)
			attach(blk)
			tips[k] = blk
		}
	case "forked":
		rng := rand.New(rand.NewSource(42))
		all := []*core.Block{core.Genesis()}
		for i := 0; i < n; i++ {
			p := all[rng.Intn(len(all))]
			blk := core.NewBlock(p.ID, p.Height+1, i%8, i, []byte{byte(i), byte(i >> 8)}).
				WithWeight(i%7 + 1)
			attach(blk)
			all = append(all, blk)
		}
	default:
		b.Fatalf("unknown shape %q", shape)
	}
	return tr
}

// BenchmarkSelectorScaling measures each selection function on 1k-, 10k-
// and 100k-block trees of both shapes (DESIGN.md ablation #5). With the
// incremental indices, selection cost depends on the leaf count and the
// winning chain's height, not the tree size — the per-op time must stay
// near-flat in n for chainlike shapes (fixed leaf count) instead of
// growing linearly (longest, ghost) or quadratically (heaviest).
func BenchmarkSelectorScaling(b *testing.B) {
	for _, shape := range []string{"chainlike", "forked"} {
		for _, n := range []int{1_000, 10_000, 100_000} {
			tree := buildScalingTree(b, n, shape)
			for _, f := range []core.Selector{core.LongestChain{}, core.HeaviestChain{}, core.GHOST{}} {
				b.Run(fmt.Sprintf("%s/%dk/%s", shape, n/1000, f.Name()), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if c := f.Select(tree); c.Len() == 0 {
							b.Fatal("empty selection")
						}
					}
				})
				b.Run(fmt.Sprintf("%s/%dk/%s-head", shape, n/1000, f.Name()), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if core.HeadOf(f, tree) == nil {
							b.Fatal("nil head")
						}
					}
				})
			}
		}
	}
}

// BenchmarkProtocolRuns measures one full simulation per system — the
// end-to-end cost of a Table 1 row.
func BenchmarkProtocolRuns(b *testing.B) {
	seeded := func(s uint64) protocols.Config { return protocols.Config{N: 4, Rounds: 30, ReadEvery: 10, Seed: s} }
	for _, run := range []struct {
		name string
		fn   func(seed uint64) *protocols.Result
	}{
		{"Bitcoin", powTrace},
		{"Ethereum", func(s uint64) *protocols.Result {
			c := seeded(s)
			c.Difficulty = 4
			return ethereum.Run(c)
		}},
		{"Algorand", func(s uint64) *protocols.Result { return algorand.Run(seeded(s)) }},
		{"ByzCoin", func(s uint64) *protocols.Result { return byzcoin.Run(seeded(s)) }},
		{"PeerCensus", func(s uint64) *protocols.Result { return peercensus.Run(seeded(s)) }},
		{"RedBelly", func(s uint64) *protocols.Result { return redbelly.Run(seeded(s)) }},
		{"Fabric", func(s uint64) *protocols.Result { return fabric.Run(fabric.Config{Config: seeded(s)}) }},
	} {
		b.Run(run.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := run.fn(uint64(i))
				if res.History == nil {
					b.Fatal("no history")
				}
			}
		})
	}
}

// BenchmarkOracleOps measures the primitive oracle operations.
func BenchmarkOracleOps(b *testing.B) {
	b.Run("getToken", func(b *testing.B) {
		orc := oracle.NewProdigal(nil, core.WellFormed{}, 3)
		g := core.Genesis()
		for i := 0; i < b.N; i++ {
			orc.GetToken(0.5, g, 0, i, nil)
		}
	})
	b.Run("consumeToken", func(b *testing.B) {
		orc := oracle.NewProdigal(nil, core.WellFormed{}, 3)
		g := core.Genesis()
		blocks := make([]*core.Block, 0, b.N)
		for len(blocks) < b.N {
			if blk, ok := orc.GetToken(0.9, g, 0, len(blocks), []byte{byte(len(blocks))}); ok {
				blocks = append(blocks, blk)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			orc.ConsumeToken(blocks[i])
		}
	})
}

// BenchmarkTreeOps measures the core data-structure operations at a
// realistic tree size.
func BenchmarkTreeOps(b *testing.B) {
	build := func(n int) *core.Tree {
		tr := core.NewTree()
		parent := core.Genesis()
		for i := 0; i < n; i++ {
			blk := core.NewBlock(parent.ID, parent.Height+1, 0, i, []byte{byte(i)})
			if err := tr.Attach(blk); err != nil {
				b.Fatal(err)
			}
			if i%3 != 0 {
				parent = blk
			}
		}
		return tr
	}
	tr := build(1000)
	b.Run("attach", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			build(100)
		}
	})
	b.Run("select-longest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.LongestChain{}.Select(tr)
		}
	})
	b.Run("select-ghost", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.GHOST{}.Select(tr)
		}
	})
}

// SimScale is the large-scale simulation→history→checker pipeline
// workload that bench_test.go wraps as BenchmarkSimScale and
// determinism_test.go pins (it was the package internal/benchsuite while
// cmd/bench also ran it; its only callers are this package's tests).
//
// SimScale drives the whole pipeline the way the protocol simulators do:
// N replicas over a FIFO synchronous simnet, one mined block per tick
// flooded to every replica, periodic read() batches at every process,
// and a consistency verdict over the recorded run. It is the workload
// behind DESIGN.md ablations #6 (closure-heap vs. flat-event scheduler),
// #7 (copied vs. interned chain reads), #8 (benign vs. adversarial), #10
// (replay vs. online checking) and #13 (instrumented vs. bare).
package repro

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/metrics"
	"repro/internal/protocols"
	"repro/internal/replica"
	"repro/internal/simnet"
)

// simVariant selects the one way a SimScale run departs from the benign
// retained-history pipeline. It is a single value, not a set of flags:
// the adversarial run is never streamed or metered, and the streamed run
// is never metered.
type simVariant int

const (
	// simBenign retains the full history and classifies it after the run.
	simBenign simVariant = iota
	// simAdversarial adds two healed partition windows (messages queue
	// across the cut and flush on heal) and an equivocating replica that
	// floods a forged sibling for every block it mines. It prices
	// fault-schedule routing on every send, fork-heavy trees and a
	// violation-bearing checker run against the benign baseline.
	simAdversarial
	// simStream checks the benign workload online: a segmented sink feeds
	// the monitor, the recorder runs in drop mode (no retained history),
	// and the verdicts come from Finalize.
	simStream
	// simMetered attaches the deterministic metrics layer to the benign
	// workload; runSimScale then also returns the metric snapshot.
	simMetered
)

// simCase is one SimScale run: a row of the case table, or a pinned
// configuration of the determinism test.
type simCase struct {
	// N is the number of replicas.
	N int
	// Blocks is the number of mined blocks (one per virtual tick, miner
	// chosen round-robin; each block floods to all N replicas). Every
	// process reads eight times over the run, once per Blocks/8 ticks.
	Blocks int
	// Seed drives the delivery-delay randomness.
	Seed    uint64
	Variant simVariant
}

// Name is the case's benchmark name:
// SimScale/N<n>-b<b>[-adv][-stream][-met].
func (c simCase) Name() string {
	name := fmt.Sprintf("SimScale/N%d-b%d", c.N, c.Blocks)
	switch c.Variant {
	case simAdversarial:
		name += "-adv"
	case simStream:
		name += "-stream"
	case simMetered:
		name += "-met"
	}
	return name
}

// simStats summarizes one SimScale run (used by checkSimScale and the
// determinism pinning test).
type simStats struct {
	Blocks    int  // blocks attached at replica 0
	Reads     int  // completed reads of correct processes
	CommEvts  int  // recorded send/receive/update events
	MaxHeight int  // height of replica 0's tree
	SCOK      bool // Strong Consistency verdict
	ECOK      bool // Eventual Consistency verdict
}

// runSimScale executes the full pipeline once: simulate, record, check. The
// workload is deterministic for a fixed case, and a simStream or simMetered
// case returns exactly the simBenign stats of the same configuration (the
// determinism suite pins both). The snapshot is nil unless the case is
// simMetered.
func runSimScale(c simCase) (simStats, *metrics.Snapshot) {
	sim := simnet.NewSim(c.Seed)
	g := replica.NewGroup(sim, c.N, simnet.Synchronous{Delta: 3}, core.LongestChain{})
	g.Net.SetFIFO(true)
	g.SetPredicate(core.WellFormed{})

	var (
		adv *adversary.Equivocator
		reg *metrics.Registry
	)
	// judge fills in what the run recorded and what the criteria say of
	// it: by default a Classify over the retained history.
	judge := func(st *simStats) (sc, ec *consistency.Verdict) {
		h := g.History()
		st.Reads, st.CommEvts = len(h.Reads()), len(h.Comm)
		return consistency.NewChecker(core.LengthScore{}, core.WellFormed{}).Classify(h)
	}
	// One post-convergence read batch is the liveness tail window. The
	// adversarial run takes two (as the protocol runs do): the
	// equivocator's reads are excluded as faulty, so a single batch would
	// leave room in the window for a pre-heal read.
	finalReads := 1
	switch c.Variant {
	case simAdversarial:
		// Two split-brain windows, each a quarter of the run long, both
		// healed well before the end so the final reads can converge.
		quarter := max(int64(c.Blocks/4), 8)
		var left []int
		for p := 0; p < c.N/2; p++ {
			left = append(left, p)
		}
		g.Net.SetSchedule(simnet.NewSchedule(
			simnet.SplitWindow(quarter/2, quarter, c.N, left),
			simnet.SplitWindow(2*quarter, 2*quarter+quarter/2, c.N, left),
		))
		adv = adversary.NewEquivocator(g.Procs[c.N-1], g.Net, adversary.Config{Strategy: adversary.Equivocate, Forks: 2})
		finalReads = 2
	case simStream:
		// The monitor checks each sealed segment off the recording hot
		// loop, on a goroutine of its own while the next one fills (an
		// overlapped sink, attached directly as btsim's streamed runs
		// attach it); the sink feeds it the segments in recording order,
		// so the verdicts are those of synchronous delivery.
		mon := consistency.NewMonitor(consistency.MonitorConfig{
			Procs: c.N,
			Score: core.LengthScore{},
			P:     core.WellFormed{},
			Table: g.Rec.Table(),
		})
		seg := history.NewSegmentSink(0, mon.ConsumeSegment)
		seg.OnFaulty = mon.Faulty
		seg.Overlap = true
		g.Rec.SetSink(seg)
		g.Rec.SetRetain(false)
		judge = func(st *simStats) (sc, ec *consistency.Verdict) {
			seg.Seal()
			o := mon.Finish(g.Rec.PendingOps(), 0, seg.Err())
			if o.MonitorErr != nil {
				panic(o.MonitorErr)
			}
			st.Reads, st.CommEvts = o.MonitorStats.Reads, o.MonitorStats.Comm
			return o.SC, o.EC
		}
	case simMetered:
		// ~64 sample rows per run regardless of horizon, so snapshot size
		// does not scale with Blocks.
		reg = metrics.New(max(int64(c.Blocks)/64, 1))
		sim.SetMetrics(reg)
		g.Net.RegisterMetrics(reg)
		g.RegisterMetrics(reg)
		g.Rec.RegisterMetrics(reg)
	}

	// Mining: the round-robin miner extends its local selected head —
	// which can lag in-flight deliveries by up to δ ticks, giving natural
	// short-lived forks as in the PoW simulators.
	for r := 0; r < c.Blocks; r++ {
		p := g.Procs[r%c.N]
		sim.Schedule(int64(r+1), func() {
			head := p.SelectedHead()
			blk := core.NewBlock(head.ID, head.Height+1, p.ID, r, protocols.CoinbasePayload(p.ID, r))
			if adv != nil && p == adv.P {
				adv.FloodSiblings(blk)
			} else {
				p.AppendLocal(blk)
			}
		})
	}
	readAll := func() {
		for _, pr := range g.Procs {
			pr.Read()
		}
	}
	readEvery := max(int64(c.Blocks/8), 1)
	for t := readEvery; t <= int64(c.Blocks); t += readEvery {
		sim.Schedule(t, readAll)
	}
	sim.RunUntilIdle()
	for i := 0; i < finalReads; i++ {
		readAll()
	}

	st := simStats{
		Blocks:    g.Procs[0].Tree().Len() - 1,
		MaxHeight: g.Procs[0].Tree().Height(),
	}
	sc, ec := judge(&st)
	st.SCOK, st.ECOK = sc.OK, ec.OK
	if reg != nil {
		return st, reg.Snapshot()
	}
	return st, nil
}

// checkSimScale is the suite's self-check, so the benchmark doubles as a
// correctness check at scale. A lossless synchronous flood with
// post-convergence reads must satisfy EC and attach every block. On the
// adversarial case the partitions and the equivocator guarantee measured
// Strong Prefix violations — the check fails if the checker still says
// SC holds, because the pipeline must witness the attack — while the
// healed cuts and the final reads keep EC intact, and replica 0 attaches
// the forged siblings on top of the mined blocks. A simStream case passing
// at all means the monitor alone carried the verdict: the recorder
// retained nothing. simMetered == bare stats is pinned by the root
// determinism test, not re-verified here: a -met row's wall time must
// price only the instrumented run.
func checkSimScale(c simCase, st simStats) error {
	if c.Variant == simAdversarial {
		if st.SCOK {
			return fmt.Errorf("%s: SC held — the attack went unmeasured", c.Name())
		}
		if !st.ECOK {
			return fmt.Errorf("%s: EC violated despite healed partitions", c.Name())
		}
		if st.Blocks < c.Blocks {
			return fmt.Errorf("%s: only %d blocks attached at replica 0, want ≥ %d", c.Name(), st.Blocks, c.Blocks)
		}
		return nil
	}
	if !st.ECOK {
		return fmt.Errorf("%s: EC violated on a lossless synchronous run", c.Name())
	}
	if st.Blocks != c.Blocks {
		return fmt.Errorf("%s: %d blocks attached, want %d", c.Name(), st.Blocks, c.Blocks)
	}
	return nil
}

// simScaleCases returns the case table, smallest first. The -adv rows track the
// attack-scenario pipeline cost beside the benign runs, the -stream row
// runs the identical workload through the online monitor so the two
// paths are priced — wall time and peak heap — on the same execution,
// and each -met row has a bare sibling for the instrumentation overhead.
func simScaleCases() []simCase {
	return []simCase{
		{N: 16, Blocks: 5_000, Seed: 42},
		{N: 16, Blocks: 5_000, Seed: 42, Variant: simAdversarial},
		{N: 64, Blocks: 5_000, Seed: 42},
		{N: 64, Blocks: 5_000, Seed: 42, Variant: simMetered},
		{N: 64, Blocks: 5_000, Seed: 42, Variant: simAdversarial},
		{N: 128, Blocks: 5_000, Seed: 42},
		{N: 64, Blocks: 20_000, Seed: 42},
		{N: 64, Blocks: 20_000, Seed: 42, Variant: simStream},
		{N: 256, Blocks: 2_500, Seed: 42},
		{N: 256, Blocks: 2_500, Seed: 42, Variant: simAdversarial},
		{N: 1024, Blocks: 1_200, Seed: 42},
		{N: 1024, Blocks: 1_200, Seed: 42, Variant: simAdversarial},
	}
}

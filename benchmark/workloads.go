package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/btsim"
	_ "repro/btsim/systems" // registers "fabric"
	"repro/internal/adversary"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/metrics"
	"repro/internal/protocols"
	"repro/internal/protocols/fabric"
	"repro/internal/replica"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// outcome is what one iteration reports besides its cost.
type outcome struct {
	// ops counts the BT-ADT operations (append and read responses)
	// recorded in the history; loadTime is the part of the iteration
	// they were issued in (zero: the whole iteration).
	ops      int
	loadTime time.Duration
	// wall is the timed region: build → simulate → snapshot → check, or
	// deploy → load → settle → finalize → teardown. The self-checks
	// that follow it are not part of it.
	wall time.Duration
	// attempted and failed count operations; a failed self-check is
	// added by the harness.
	attempted, failed int
	pin               pin
	// layer holds the counts a traced iteration reads at the layer
	// boundaries (nil when untraced).
	layer map[string]float64
}

// workload is one named set of inputs. run executes one full iteration
// (traced when tr is non-nil); warm is the untimed warm-up iteration
// that set-up ends with (nil: one untraced run).
type workload struct {
	name string
	seed uint64 // default seed; want applies at this seed only
	want *pin
	warm func(seed uint64) error
	run  func(seed uint64, tr *tracer) (outcome, error)
}

// workloads returns the five tracked workloads at their fixed sizes.
// Why each is here is recorded in BENCHMARK.json and README.md.
func workloads() []workload {
	return []workload{
		simWorkload("flood_n64", 42, &pinFloodN64, simCfg{n: 64, blocks: 5000}),
		simWorkload("adv_n512_s2", 42, &pinAdvN512, simCfg{n: 512, blocks: 1200, shards: 2, adversarial: true}),
		fabricWorkload("reads_fabric_n48", 2026, &pinReadsFabric, fabricCfg{n: 48, rounds: 3000}),
		liveWorkload("live_tcp_n16", 1, liveCfg{carrier: "tcp", n: 16, appends: 3000, warmAppends: 1000}),
		liveWorkload("live_chan_n16", 1, liveCfg{carrier: "chan", n: 16, appends: 3000, warmAppends: 1000}),
	}
}

// simCfg is the SimScale pipeline shape of internal/benchsuite: n
// replicas over a FIFO synchronous simnet, one block mined per tick
// round-robin and flooded, eight read batches plus the final ones, a
// retained history and a batch Classify.
type simCfg struct {
	n, blocks, shards int
	// adversarial adds two healed split-brain windows and an
	// equivocator at replica n-1 (the -adv shape).
	adversarial bool
}

func simWorkload(name string, seed uint64, want *pin, c simCfg) workload {
	return workload{name: name, seed: seed, want: want, run: c.run}
}

func (c simCfg) run(seed uint64, tr *tracer) (outcome, error) {
	var p *probes
	var reg *metrics.Registry
	if tr != nil {
		p = &probes{}
		reg = metrics.New(0)
	}
	pred := p.predicate(core.WellFormed{})
	t0 := now()
	root := tr.begin("iteration")
	g := c.simulate(seed, tr, p, pred, reg)

	snap := tr.begin("history.snapshot")
	h := g.History()
	tr.end(snap, p)

	classify := tr.begin("consistency.classify")
	sc, ec := consistency.NewChecker(core.LengthScore{}, pred).Classify(h)
	tr.end(classify, p)
	tr.end(root, p)
	wall := now() - t0

	tree := g.Procs[0].Tree()
	out := outcome{
		wall:      wall,
		ops:       len(h.Ops),
		attempted: len(h.Ops),
		pin: pin{
			Blocks: tree.Len() - 1, Reads: len(h.Reads()), Ops: len(h.Ops), Comm: len(h.Comm),
			Height: tree.Height(), SC: sc.OK, EC: ec.OK,
		},
	}
	for _, op := range h.Ops {
		if op.Pending {
			out.failed++
		}
	}
	if reg != nil {
		out.layer = simLayer(reg.Snapshot())
		out.layer["history.ops"] = float64(len(h.Ops))
		out.layer["history.comm_events"] = float64(len(h.Comm))
		out.layer["consistency.witnesses"] = float64(len(sc.Witnesses()) + len(ec.Witnesses()))
	}
	var err error
	switch {
	case !ec.OK:
		err = fmt.Errorf("EC violated on a run that loses no message")
	case c.adversarial && sc.OK:
		err = fmt.Errorf("SC held: the attack went unmeasured")
	case tree.Len()-1 < c.blocks:
		err = fmt.Errorf("%d blocks attached at replica 0, want >= %d", tree.Len()-1, c.blocks)
	}
	return out, err
}

// simulate builds the replica group, schedules the workload and runs it
// to quiescence, final read batches included. tr, p and reg are nil on
// an untraced run.
func (c simCfg) simulate(seed uint64, tr *tracer, p *probes, pred core.Predicate, reg *metrics.Registry) *replica.Group {
	build := tr.begin("replica.build")
	sim := simnet.NewSim(seed)
	g := replica.NewGroup(sim, c.n, simnet.Synchronous{Delta: 3}, p.selector(core.LongestChain{}))
	g.Net.SetFIFO(true)
	g.SetPredicate(pred)
	var adv *adversary.Equivocator
	if c.adversarial {
		quarter := max(int64(c.blocks/4), 8)
		left := make([]int, c.n/2)
		for i := range left {
			left[i] = i
		}
		g.Net.SetSchedule(simnet.NewSchedule(
			simnet.SplitWindow(quarter/2, quarter, c.n, left),
			simnet.SplitWindow(2*quarter, 2*quarter+quarter/2, c.n, left),
		))
		adv = adversary.NewEquivocator(g.Procs[c.n-1], g.Net, adversary.Config{Strategy: adversary.Equivocate, Forks: 2})
	}
	if c.shards > 1 {
		g.EnableSharding(c.shards)
	}
	if reg != nil {
		sim.SetMetrics(reg)
		g.Net.RegisterMetrics(reg)
		g.RegisterMetrics(reg)
		g.Rec.RegisterMetrics(reg)
	}
	for r := 0; r < c.blocks; r++ {
		pr := g.Procs[r%c.n]
		sim.Schedule(int64(r+1), func() {
			head := pr.SelectedHead()
			blk := core.NewBlock(head.ID, head.Height+1, pr.ID, r, protocols.CoinbasePayload(pr.ID, r))
			if adv != nil && pr == adv.P {
				adv.FloodSiblings(blk)
			} else {
				pr.AppendLocal(blk)
			}
		})
	}
	readAll := func() {
		for _, pr := range g.Procs {
			pr.Read()
		}
	}
	every := max(int64(c.blocks/8), 1)
	for t := every; t <= int64(c.blocks); t += every {
		sim.Schedule(t, readAll)
	}
	tr.end(build, p)

	run := tr.begin("simnet.run")
	sim.RunUntilIdle()
	tr.end(run, p)
	// Post-convergence reads: the liveness tail window. The equivocator's
	// reads are excluded as faulty, so the adversarial shape takes two.
	readAll()
	if c.adversarial {
		readAll()
	}
	return g
}

// simLayer reads the simulator-side counts out of the metrics snapshot
// the repository's own instrumentation fills.
func simLayer(s *metrics.Snapshot) map[string]float64 {
	val := func(name string) float64 { v, _ := s.Value(name); return float64(v) }
	out := map[string]float64{
		"simnet.steps":             val("sim.steps.last"),
		"simnet.delivered":         val("net.delivered.last"),
		"simnet.queue_peak":        val("sim.queue.peak"),
		"replica.blocks_attached":  val("replica.blocks.last"),
		"replica.orphans_buffered": val("replica.orphanBuffered"),
	}
	for _, t := range s.Timing {
		if t.Name == "merge.stall.ns" {
			out["simnet.merge_stall_s"] = float64(t.Value) / 1e9
		}
	}
	return out
}

// fabricCfg is the LongRun shape: the fabric simulator with a read at
// every process every virtual-time unit, streamed through sealed
// segments into the online monitor with nothing retained.
type fabricCfg struct {
	n, rounds int
}

func fabricWorkload(name string, seed uint64, want *pin, c fabricCfg) workload {
	return workload{name: name, seed: seed, want: want, run: c.run}
}

func (c fabricCfg) run(seed uint64, tr *tracer) (outcome, error) {
	var (
		ops, segments int
		sc, ec        *consistency.Verdict
		layer         map[string]float64
	)
	t0 := now()
	if tr == nil {
		res, err := btsim.Run("fabric", btsim.WithN(c.n), btsim.WithRounds(c.rounds),
			btsim.WithSeed(seed), btsim.WithReadEvery(1), btsim.WithStreaming(0))
		if err != nil {
			return outcome{}, err
		}
		ops, segments, sc, ec = res.Stream.Ops, res.Stream.Segments, res.Stream.SC, res.Stream.EC
	} else {
		ops, segments, sc, ec, layer = c.runTraced(seed, tr)
	}
	out := outcome{wall: now() - t0, ops: ops, attempted: ops, pin: pin{Ops: ops, Segments: segments, SC: sc.OK, EC: ec.OK}, layer: layer}
	var err error
	switch {
	case !sc.OK || !ec.OK:
		err = fmt.Errorf("verdicts SC=%v EC=%v on a benign fabric run", sc.OK, ec.OK)
	case segments < 2:
		err = fmt.Errorf("only %d segments sealed", segments)
	}
	return out, err
}

// runTraced is the same run with the sink decorated. btsim.Run exposes
// no seam for that, so the traced pass calls the fabric runner with its
// own Stream hook, wired the way btsim.WithStreaming wires it; the
// harness checks that both paths pin the same outcome.
func (c fabricCfg) runTraced(seed uint64, tr *tracer) (ops, segments int, sc, ec *consistency.Verdict, layer map[string]float64) {
	p := &probes{}
	reg := metrics.New(0)
	var (
		rec *history.Recorder
		mon *consistency.Monitor
		seg *history.SegmentSink
	)
	cfg := fabric.Config{Config: protocols.Config{
		N: c.n, Rounds: c.rounds, Seed: seed, ReadEvery: 1, Metrics: reg,
		Stream: func(r *history.Recorder, score core.Score) {
			rec = r
			mon = consistency.NewMonitor(consistency.MonitorConfig{
				Procs: r.Procs(), Score: score, P: core.WellFormed{}, Table: r.Table(),
			})
			seg = history.NewSegmentSink(0, mon.ConsumeSegment)
			seg.OnFaulty = mon.Faulty
			r.SetSink(p.sinkOf(seg))
			r.SetRetain(false)
			reg.Probe("mon.retained", func() int64 { return int64(mon.Stats().Retained) })
		},
	}}
	root := tr.begin("iteration")
	run := tr.begin("protocols.run")
	fabric.Run(cfg)
	tr.end(run, p)
	seg.Seal()
	for _, op := range rec.PendingOps() {
		mon.OpPending(op)
	}
	sc, ec = mon.Finalize()
	tr.end(root, p)

	snap := reg.Snapshot()
	st := mon.Stats()
	layer = simLayer(snap)
	peak, _ := snap.Value("mon.retained.peak")
	layer["history.ops"] = float64(st.Ops)
	layer["history.comm_events"] = float64(st.Comm)
	layer["history.segments"] = float64(seg.Sealed())
	layer["consistency.monitor_ops"] = float64(st.Ops)
	layer["consistency.monitor_retained_peak"] = float64(peak)
	layer["consistency.witnesses"] = float64(mon.LiveWitnesses())
	return st.Ops, seg.Sealed(), sc, ec, layer
}

// liveCfg is a real deployment of the fabric profile: n nodes over a
// live carrier, two closed-loop clients appending through node 0 with
// two reads per append, the online monitor attached. The load is
// bounded in granted appends, not wall time, because throughput falls
// with chain height and duration-bounded runs are not comparable.
type liveCfg struct {
	carrier              string
	n                    int
	appends, warmAppends int64
}

func liveWorkload(name string, seed uint64, c liveCfg) workload {
	w := workload{name: name, seed: seed}
	w.run = func(seed uint64, tr *tracer) (outcome, error) { return c.run(seed, tr, c.appends) }
	w.warm = func(seed uint64) error { _, err := c.run(seed, nil, c.warmAppends); return err }
	return w
}

func (c liveCfg) run(seed uint64, tr *tracer, appends int64) (outcome, error) {
	var p *probes
	if tr != nil {
		p = &probes{}
	}
	baseline := runtime.NumGoroutine()
	prof := fabric.LiveProfile(fabric.Config{Config: protocols.Config{N: c.n, Seed: seed}})
	prof.Selector = p.selector(prof.Selector)
	prof.Predicate = p.predicate(prof.Predicate)
	prof.Mint = p.mintOf(prof.Mint)

	root := tr.begin("iteration")
	t0 := now()
	lr, err := transport.Run(transport.LiveConfig{
		Transport: c.carrier, N: c.n, Seed: seed, Clients: 2, MaxAppends: appends,
	}, prof)
	wall := now() - t0
	tr.end(root, p)
	if err != nil {
		return outcome{}, err
	}

	readsTried := int(lr.ReadLatUS.N)
	out := outcome{
		wall:      wall,
		ops:       int(lr.AppendsOK + lr.Reads),
		loadTime:  lr.Elapsed,
		attempted: int(lr.Attempts) + readsTried,
		// The fabric oracle never loses the lottery, so an append that
		// was not granted failed; so did a read that returned nothing.
		failed: int(lr.Attempts-lr.AppendsOK) + readsTried - int(lr.Reads),
	}
	if tr != nil {
		out.layer = map[string]float64{
			"transport.load_s":                  lr.Elapsed.Seconds(),
			"transport.settle_s":                lr.Settle.Seconds(),
			"transport.overhead_s":              (wall - lr.Elapsed - lr.Settle).Seconds(),
			"transport.frames_sent":             float64(lr.Sent),
			"transport.frames_per_append":       float64(lr.Sent) / float64(max(lr.AppendsOK, 1)),
			"transport.append_lat_p50_us":       float64(lr.AppendLatUS.Quantile(0.50)),
			"transport.append_lat_p99_us":       float64(lr.AppendLatUS.Quantile(0.99)),
			"transport.read_lat_p50_us":         float64(lr.ReadLatUS.Quantile(0.50)),
			"transport.read_lat_p99_us":         float64(lr.ReadLatUS.Quantile(0.99)),
			"history.ops":                       float64(len(lr.History.Ops)),
			"history.comm_events":               float64(len(lr.History.Comm)),
			"consistency.monitor_ops":           float64(lr.MonitorStats.Ops),
			"consistency.monitor_retained_peak": float64(lr.MonitorStats.Retained),
			"consistency.witnesses":             float64(lr.LiveWitnesses),
			"replica.blocks_attached":           float64(treeBlocks(lr.Trees)),
		}
	}
	switch {
	case lr.AppendsOK < appends:
		err = fmt.Errorf("%d appends granted, budget %d", lr.AppendsOK, appends)
	case !lr.Converged:
		err = fmt.Errorf("replicas did not converge")
	case len(lr.Violated()) > 0:
		err = fmt.Errorf("violated %v on a benign single-writer run", lr.Violated())
	case lr.MonitorErr != nil:
		err = fmt.Errorf("online monitor: %w", lr.MonitorErr)
	case !goroutinesBack(baseline):
		err = fmt.Errorf("%d goroutines after teardown, %d before", runtime.NumGoroutine(), baseline)
	}
	return out, err
}

func treeBlocks(trees []*core.Tree) int {
	n := 0
	for _, t := range trees {
		n += t.Len()
	}
	return n
}

// goroutinesBack waits up to a second for the goroutine count to fall
// back to the pre-deployment baseline (socket readers exit on their own
// schedule after Close).
func goroutinesBack(baseline int) bool {
	for deadline := time.Now().Add(time.Second); ; time.Sleep(5 * time.Millisecond) {
		if runtime.NumGoroutine() <= baseline {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

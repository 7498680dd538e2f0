package transport

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/metrics"
	"repro/internal/replica"
)

// Profile is how one registered system produces blocks in a live
// deployment: the selector/score/predicate triple its replicas run and
// the oracle-backed mint that turns an append attempt into a block (or
// a lost lottery). It is built in one
// place, protocols.Definition.Profile, from the same definition the
// simulated run starts from, so the live path reuses the exact oracle,
// scores and validity the simulated path measures.
type Profile struct {
	System    string
	Selector  core.Selector
	Score     core.Score
	Predicate core.Predicate
	// Sequencer routes every append through node 0 — the
	// ordering-service shape of the frugal k=1 family (Fabric's
	// orderer, the BFT-chain leader, Algorand's per-height proposer
	// collapse onto the one node that may consume the height token).
	Sequencer bool
	// Mint runs the oracle lottery for an append attempt at proc on
	// parent; seq is a globally unique attempt number (the live
	// equivalent of the mining round). nil means the lottery was lost:
	// the attempt failed before any operation began, so nothing is
	// recorded — exactly a getToken miss in the simulators.
	Mint func(proc int, parent *core.Block, seq int) *core.Block
}

// LiveConfig parameterizes a deployment run.
type LiveConfig struct {
	// Transport names the carrier: "chan" (default) or "tcp".
	Transport string
	// N is the node count (≥ 1); Seed drives the oracle and load shuffling.
	N    int
	Seed uint64
	// Addrs are carrier addresses (tcp; empty = loopback auto-ports).
	Addrs []string

	// Clients is the number of concurrent load generators (default 2).
	Clients int
	// Rate is the per-client target append rate per second; 0 means
	// closed-loop (each client submits as soon as the last completes).
	Rate float64
	// Duration bounds the load phase in wall time; MaxAppends bounds
	// it in granted appends. The phase ends at whichever comes first;
	// at least one must be set.
	Duration   time.Duration
	MaxAppends int64
	// Spray round-robins append attempts across all nodes instead of
	// the default single-writer policy (node 0). Spraying a prodigal
	// system creates real fork pressure: concurrent miners extend
	// concurrent parents, so StrongPrefix may genuinely break — the
	// same reason the paper classifies those systems EC, not SC.
	Spray bool

	// Crashes take nodes down during the load: Start and End count
	// Ticks from load start, and every window heals (btsim's knob table
	// is the check). Windows of one node that overlap or touch form one
	// down-span, as in simulation (replica.ArmCrashes). Durable restarts
	// a node from its crash-time snapshot; false means amnesia.
	Crashes []replica.CrashWindow
	Durable bool

	// K, when > 0, adds the k-Fork Coherence report to the result.
	K int
	// OnWitness streams every live violation witness as the monitor
	// forms it (called from the monitor consumer goroutine).
	OnWitness func(consistency.Witness)
}

// The deployment's fixed shape: what every caller ran with.
const (
	// readsPerAppend is how many reads each client issues, rotating
	// across nodes, after every append attempt.
	readsPerAppend = 2
	// aePeriod is the anti-entropy advertise interval in Ticks (250 ms).
	aePeriod = 20
	// settleTimeout caps the post-load convergence wait.
	settleTimeout = 10 * time.Second
)

func (c *LiveConfig) norm() error {
	if c.N <= 0 {
		// The run defaults are protocols' (Config.Norm, which RunLive
		// applies first); this package cannot import it.
		return fmt.Errorf("transport: a live run needs N ≥ 1 nodes, got %d", c.N)
	}
	if c.Clients <= 0 {
		c.Clients = 2
	}
	if c.Duration <= 0 && c.MaxAppends <= 0 {
		return fmt.Errorf("transport: a live run needs its load bounded, by a duration or by an appends budget")
	}
	return nil
}

// LiveResult is what a deployment run measures: sustained throughput,
// client-observed latency quantiles, the online monitor and its
// verdicts, and the raw material (history, trees) the renderers consume
// — so everything that works on a simulated result works on a live one.
type LiveResult struct {
	System    string
	Transport string
	N         int

	// Elapsed is the measured load-phase wall time; Settle the
	// post-load convergence wait.
	Elapsed time.Duration
	Settle  time.Duration

	// Attempts counts append submissions; AppendsOK the granted ones
	// (attempts minus lost lotteries minus submissions at a crashed
	// node); Reads the completed read operations.
	Attempts  int64
	AppendsOK int64
	Reads     int64
	// AppendsPerSec / ReadsPerSec are sustained over Elapsed.
	AppendsPerSec float64
	ReadsPerSec   float64

	// AppendLatUS / ReadLatUS are client-observed operation latencies
	// in microseconds (submit → response through the node event loop).
	AppendLatUS metrics.HistSnapshot
	ReadLatUS   metrics.HistSnapshot
	// Metrics is the live registry snapshot (counters, histograms,
	// wall-clock timing section).
	Metrics *metrics.Snapshot

	// Verdicts are the online monitor's finalized SC/EC verdicts and
	// the optional k-fork coherence report (with Violated());
	// LiveWitnesses counts witnesses streamed while the run was still
	// going. Monitor is that monitor, finalized and handed over: the
	// reports beyond Verdicts (any k-Fork bound, Update Agreement, LRC,
	// Monotonic Prefix) are asked of it.
	consistency.Verdicts
	LiveWitnesses int
	MonitorStats  consistency.MonitorStats
	Monitor       *consistency.Monitor
	// MonitorErr is non-nil when the online monitor's consumer failed
	// mid-run (AsyncSink panic recovery); the verdicts are then not
	// trustworthy.
	MonitorErr error

	// Recovery carries the crash/rejoin counters when Crashes ran.
	Recovery *replica.RecoveryStats

	// Sent/Delivered are carrier frame counters; DroppedDown counts
	// deliveries dropped at crashed nodes; Converged reports whether
	// every replica reached the same tree size before settleTimeout.
	Sent, Delivered int64
	DroppedDown     int64
	Converged       bool

	// History and Trees mirror a protocols.Result's evidence. Trees are
	// the stopped nodes' own trees, handed over, not copies: nothing else
	// holds them once Run returns, and every reader in the repository
	// (selectors, Len, heights, renderers) only reads them.
	History *history.History
	Trees   []*core.Tree
}

// statser is the carrier-side counter pair both carriers expose.
type statser interface {
	Stats() (sent, delivered int64)
}

// Run deploys N nodes of the profiled system over the configured
// carrier, drives the client load with the online monitor attached,
// waits for convergence, and finalizes.
func Run(cfg LiveConfig, prof Profile) (*LiveResult, error) {
	if err := cfg.norm(); err != nil {
		return nil, err
	}
	start := time.Now()
	clock := func() int64 { return time.Since(start).Microseconds() }

	// The shared recorder is the sequencing collector: every node
	// records into it, its mutex totally orders the op feed, and the
	// AsyncSink replays that order into the monitor off the hot path.
	// Its block index is the one every tree is built on, which the
	// carrier decodes against.
	rec := history.NewRecorder(cfg.N, clock)
	roster := NewRoster(cfg.N, nil, cfg.Addrs)
	tr, err := newCarrier(cfg.Transport, roster, rec.Table())
	if err != nil {
		return nil, err
	}
	mon := consistency.NewMonitor(consistency.MonitorConfig{
		Procs:     cfg.N,
		Score:     prof.Score,
		P:         prof.Predicate,
		K:         cfg.K,
		Table:     rec.Table(),
		OnWitness: cfg.OnWitness,
	})
	async := history.NewAsyncSink(mon, 0)
	rec.SetSink(async)

	mreg := metrics.New(0)
	mreg.SetClock(clock)
	latBounds := []int64{2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000,
		5000, 10000, 20000, 50000, 100000, 200000, 500000, 1000000,
		2000000, 5000000}
	appendHist := mreg.Histogram("live.append.us", latBounds...)
	readHist := mreg.Histogram("live.read.us", latBounds...)
	cAttempts := mreg.Counter("live.append.attempts")
	cGrants := mreg.Counter("live.append.granted")
	cReads := mreg.Counter("live.reads")

	// One teardown for the success path and every error return from here
	// on: stop the loops (cancelling wall-clock timers), close the
	// carrier, then drain the monitor queue. Nodes that never listened or
	// started stop trivially.
	nodes := make([]*Node, 0, cfg.N)
	teardown := func() error {
		for _, n := range nodes {
			n.Stop()
		}
		tr.Close()
		return async.Drain()
	}
	fail := func(err error) (*LiveResult, error) {
		_ = teardown() // err is what went wrong; a monitor failure behind it is a consequence
		return nil, err
	}

	// Build the nodes: listen, host a process, start its anti-entropy
	// loop, dial the mesh, arm the crash windows, then start the event
	// loops.
	for i := 0; i < cfg.N; i++ {
		n, err := NewNode(i, tr)
		if err != nil {
			return fail(err)
		}
		proc := replica.NewProcess(i, n, prof.Selector, rec)
		if prof.Predicate != nil {
			proc.P = prof.Predicate
		}
		proc.AntiEntropy(aePeriod, 0) // advertises until Stop cancels its timer
		n.Proc = proc
		nodes = append(nodes, n)
	}
	for i := range nodes {
		if err := tr.Dial(i); err != nil {
			return fail(err)
		}
	}
	// The crash windows ride alongside the load, armed on the nodes' own
	// timers before their loops start. Each crashed node counts its own
	// recovery — the counters are written on its event loop — and the sum
	// is taken once the loops have stopped.
	var (
		recs      = make([]*replica.CrashRecovery, cfg.N)
		perNode   []*replica.RecoveryStats
		rejoining atomic.Int32
		rejoined  = make(chan struct{})
		lastEnd   int64
	)
	for _, w := range cfg.Crashes {
		lastEnd = max(lastEnd, w.End)
		if recs[w.Proc] != nil {
			continue
		}
		stats := &replica.RecoveryStats{}
		perNode = append(perNode, stats)
		rejoining.Add(1)
		recs[w.Proc] = replica.NewCrashRecovery(nodes[w.Proc].Proc, cfg.Durable, stats, func() {
			if rejoining.Add(-1) == 0 {
				close(rejoined)
			}
		})
	}
	replica.ArmCrashes(cfg.Crashes, recs)
	for _, n := range nodes {
		n.Start()
	}

	lg := newLoadGen(cfg, prof, nodes, loadInstruments{
		appendHist: appendHist, readHist: readHist,
	})
	loadStart := time.Now()
	lg.run()
	elapsed := time.Since(loadStart)
	if len(perNode) > 0 {
		// A window may outlast a short load phase; rejoin must complete
		// before convergence is meaningful.
		select {
		case <-rejoined:
		case <-time.After(settleTimeout + time.Duration(lastEnd)*Tick):
			return fail(fmt.Errorf("transport: crash/restart did not complete"))
		}
	}

	// Settle: every replica at the same tree size, all inboxes empty,
	// nothing in flight — twice in a row.
	settleStart := time.Now()
	converged := settle(nodes, tr)
	settleDur := time.Since(settleStart)

	// Final convergent reads (two rounds, as the simulators take).
	for round := 0; round < 2; round++ {
		for _, n := range nodes {
			n.Do(func() { n.Proc.Read() })
		}
	}

	monErr := teardown()
	var recovery *replica.RecoveryStats
	if len(perNode) > 0 {
		recovery = &replica.RecoveryStats{}
		for _, stats := range perNode {
			recovery.Add(stats)
		}
	}
	for _, op := range rec.PendingOps() {
		mon.OpPending(op)
	}
	sc, ec := mon.Finalize()

	res := &LiveResult{
		System:    prof.System,
		Transport: tr.Name(),
		N:         cfg.N,
		Elapsed:   elapsed,
		Settle:    settleDur,
		Verdicts:  consistency.Verdicts{SC: sc, EC: ec},
		Converged: converged,
		Recovery:  recovery,
		History:   rec.Snapshot(),
		Monitor:   mon,
	}
	if cfg.K > 0 {
		res.KFork = mon.KForkReport(cfg.K)
	}
	res.LiveWitnesses = mon.LiveWitnesses()
	res.MonitorStats = mon.Stats()
	res.MonitorErr = monErr
	res.Attempts, res.AppendsOK, res.Reads = lg.totals()
	cAttempts.Add(res.Attempts)
	cGrants.Add(res.AppendsOK)
	cReads.Add(res.Reads)
	if s := elapsed.Seconds(); s > 0 {
		res.AppendsPerSec = float64(res.AppendsOK) / s
		res.ReadsPerSec = float64(res.Reads) / s
	}
	if st, ok := tr.(statser); ok {
		res.Sent, res.Delivered = st.Stats()
	}
	for _, n := range nodes {
		res.DroppedDown += n.droppedDown
		res.Trees = append(res.Trees, n.Proc.Tree()) // loops joined, timers cancelled: teardown ran
	}
	mreg.AddTiming("live.elapsed.us", elapsed.Microseconds())
	mreg.AddTiming("live.settle.us", settleDur.Microseconds())
	high, blocked, _ := async.QueueStats()
	mreg.AddTiming("live.monitor.queue.highwater", int64(high))
	mreg.AddTiming("live.monitor.queue.blocked", blocked)
	res.Metrics = mreg.Snapshot()
	for _, h := range res.Metrics.Hists {
		switch h.Name {
		case "live.append.us":
			res.AppendLatUS = h
		case "live.read.us":
			res.ReadLatUS = h
		}
	}
	return res, nil
}

// Tick is the wall-clock unit of Node.After, the replica.Net timer: every
// timer above the carrier counts in it (catch-up's first backoff,
// replica.CatchUpBackoff ticks, is 100 ms; the advertise period 250 ms).
const Tick = 12500 * time.Microsecond

// settle polls until every node reports the same tree size with empty
// inboxes and an idle carrier, twice in a row, or the timeout passes. The
// poll backs off from 1 ms to 20 ms: a deployment that is already quiet
// is found so in a millisecond, not in two fixed 20 ms steps.
func settle(nodes []*Node, tr Transport) bool {
	deadline := time.Now().Add(settleTimeout)
	stable := 0
	for wait := time.Millisecond; time.Now().Before(deadline); wait = min(2*wait, 20*time.Millisecond) {
		if deploymentQuiesced(nodes, tr) {
			stable++
			if stable >= 2 {
				return true
			}
		} else {
			stable = 0
		}
		time.Sleep(wait)
	}
	return false
}

// deploymentQuiesced reports one idle-and-converged observation.
func deploymentQuiesced(nodes []*Node, tr Transport) bool {
	if st, ok := tr.(statser); ok {
		sent, delivered := st.Stats()
		if sent != delivered {
			return false
		}
	}
	size := -1
	for _, n := range nodes {
		if n.q.depth() > 0 {
			return false
		}
		var l int
		if !n.Do(func() { l = n.Proc.Tree().Len() }) {
			return false
		}
		if size == -1 {
			size = l
		} else if l != size {
			return false
		}
	}
	return true
}

// Package protocols holds what the seven blockchain systems of Section 5
// (Bitcoin, Ethereum, ByzCoin, Algorand, PeerCensus, Red Belly,
// Hyperledger Fabric) share: the Definition — one executable Table 1
// row per system, written once — and the two drivers that run it. Start
// builds a deterministic discrete-event execution on internal/simnet
// (Harness), producing a recorded history plus the per-process replica
// trees; Profile/RunLive deploy the same definition on internal/transport.
// The classifier in internal/experiments then derives the system's
// Table 1 row — which oracle it implements (measured fork degree) and
// which consistency criterion its histories satisfy — instead of
// asserting it.
package protocols

import (
	"fmt"
	"sort"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/simnet"
	"repro/internal/tape"
	"repro/internal/trace"
	"repro/internal/transport"
)

// The run defaults Norm fills in; btsim reads them from here.
const (
	DefaultN      = 4
	DefaultRounds = 50
)

// Config is the one knob set every system runs from; no protocol
// package declares knobs of its own.
type Config struct {
	// N is the number of processes (0 means DefaultN).
	N int
	// Rounds is the number of protocol rounds — ticks / heights (0 means
	// DefaultRounds).
	Rounds int
	// Seed drives all randomness.
	Seed uint64
	// ReadEvery schedules a read() at every process each ReadEvery
	// virtual-time units (0 means 10).
	ReadEvery int64
	// Delta is the synchronous network delay bound δ (0 means the
	// definition's Delta).
	Delta int64
	// Difficulty divides the PoW lottery's per-tick success
	// probability: higher means rarer blocks and fewer natural forks
	// (0 means the system's default). Only bitcoin and ethereum read it.
	Difficulty float64
	// Drop optionally injects message loss (the Theorem 4.6/4.7
	// experiments). Nil means lossless.
	Drop simnet.DropRule
	// Merits are the α_p values (hashing power / stake); nil means
	// uniform 1/N.
	Merits []tape.Merit
	// Faults optionally installs a deterministic partition/fault
	// schedule on the run's network (see simnet.Schedule): messages
	// crossing an active cut are deferred to the heal time, or lost
	// under a permanent cut. Nil means a fault-free network.
	Faults *simnet.Schedule
	// Crashes optionally takes individual processes down on a
	// deterministic schedule (see replica.CrashWindow): deliveries to a
	// down process are lost, it neither mines nor reads, and at the
	// window end it restarts and catches up through the anti-entropy
	// layer. Nil means no crashes. Instants are virtual time in
	// simulation and multiples of transport.Tick after load start live.
	Crashes []replica.CrashWindow
	// Durable selects the recovery discipline when Crashes is set: a
	// durable replica restores its snapshotted tree on restart and only
	// fetches what it missed; otherwise it rejoins from genesis
	// (amnesia) and must resynchronize everything.
	Durable bool
	// Adversary configures a process-level adversarial strategy
	// (selfish mining, equivocation, withholding). The zero value is
	// benign. Protocol simulators that support adversaries wire it
	// (Harness.LotteryRounds, Harness.Equivocator); the others ignore
	// it, and their Result says so.
	Adversary adversary.Config
	// Observer, when set, is invoked once per protocol round (tick /
	// height) before the round's block production; returning false
	// stops further production (the run still drains in-flight
	// messages and takes its final reads). The public btsim layer
	// wires per-round progress/early-stop callbacks through it.
	Observer func(round int, now int64) bool
	// Stream, when set, is invoked once right after the run's replica
	// group (and with it the Recorder) is built, before any operation
	// is recorded — the attachment point for streaming history sinks
	// and online consistency monitors (history.Sink). The score is the
	// one the run's batch classification uses, so a monitor can match
	// it.
	Stream func(rec *history.Recorder, score core.Score)
	// Metrics, when set, is the registry every layer of the run hangs
	// its deterministic counters and virtual-time-sampled gauges on.
	// Attaching it never changes the run's digest.
	Metrics *metrics.Registry
	// Trace, when set, collects structured scheduler events (sends,
	// deliveries, timers, faults, crashes) with deterministic
	// sequence-number sampling.
	Trace *trace.Tracer
	// Live, when set, switches the run from a deterministic simulation
	// to a real concurrent deployment over internal/transport: N nodes
	// on wall-clock timers, concurrent client load, and an online
	// consistency monitor attached over the shared recorder. The
	// registration table dispatches to RunLive instead of the system's
	// simulated runner when it is set. N, Seed, Merits, Crashes and
	// Durable are taken from this Config, not from the LiveConfig.
	Live *transport.LiveConfig

	// halted latches a false Observer return so every later round is
	// skipped without consulting the observer again.
	halted bool
}

// Tick reports whether the run should produce blocks for this round:
// it invokes the Observer (if any) and latches a false return. Every
// protocol runner calls it at the top of its per-round work.
func (c *Config) Tick(round int, now int64) bool {
	if c.halted {
		return false
	}
	if c.Observer != nil && !c.Observer(round, now) {
		c.halted = true
		return false
	}
	return true
}

// Norm fills defaults and returns the per-process merits normalized so
// that Σ α_p = 1 (the convention every Section 5 mapping states).
func (c *Config) Norm() []tape.Merit {
	if c.N <= 0 {
		c.N = DefaultN
	}
	if c.Rounds <= 0 {
		c.Rounds = DefaultRounds
	}
	if c.ReadEvery <= 0 {
		c.ReadEvery = 10
	}
	m := c.Merits
	if len(m) == 0 {
		m = make([]tape.Merit, c.N)
		for i := range m {
			m[i] = 1
		}
	}
	var sum float64
	for _, a := range m {
		sum += float64(a)
	}
	out := make([]tape.Merit, c.N)
	for i := range out {
		if i < len(m) && sum > 0 {
			out[i] = tape.Merit(float64(m[i]) / sum)
		} else {
			out[i] = tape.Merit(1 / float64(c.N))
		}
	}
	return out
}

// Result is what every protocol run returns.
type Result struct {
	// System names the protocol ("Bitcoin", ...).
	System string
	// History is the recorded concurrent history.
	History *history.History
	// Trees are the final per-process replicas: the processes' own
	// trees, handed over once the run is over (nothing attaches to
	// them after), not copies. A reader only reads them.
	Trees []*core.Tree
	// Selector and Score are the f and score the system uses, which
	// the classifier must use too.
	Selector core.Selector
	Score    core.Score
	// OracleClaim is the oracle the protocol *should* map to per the
	// paper ("ΘP", "ΘF,k=1"); MeasuredForkMax is the observed maximal
	// fork degree across replicas, the empirical check of the claim.
	OracleClaim     string
	MeasuredForkMax int
	// PaperCriterion is Table 1's expected consistency class ("EC",
	// "SC", "SC w.h.p.").
	PaperCriterion string
	// Stats carries protocol-specific counters for reports.
	Stats map[string]int
	// FaultEvents is the run's recorded fault/adversary event log
	// (drops, partition cuts and heals, withhold/release decisions);
	// recorded when Faults, Crashes or an adversary is set, empty
	// otherwise.
	FaultEvents []simnet.FaultEvent
	// AdversaryName labels the adversarial strategy that ran ("—" when
	// benign, or when the system wires no such strategy), for scenario
	// matrices.
	AdversaryName string
	// Recovery carries the crash–recovery counters when the run had a
	// crash schedule (nil otherwise).
	Recovery *replica.RecoveryStats
}

// exportRecovery folds the recovery counters into the stats map and
// records them on the result (nil-safe).
func (r *Result) exportRecovery(rs *replica.RecoveryStats) {
	if rs == nil {
		return
	}
	r.Recovery = rs
	r.Stats["crashes"] = rs.Crashes
	r.Stats["restarts"] = rs.Restarts
	r.Stats["durableRestores"] = rs.DurableRestores
	r.Stats["amnesiaResets"] = rs.AmnesiaResets
	r.Stats["resyncBlocks"] = rs.ResyncBlocks
	r.Stats["solicits"] = rs.Solicits
	r.Stats["solicitRetries"] = rs.Retries
}

// computeForkMax fills MeasuredForkMax from the replica trees.
func (r *Result) computeForkMax() {
	max := 0
	for _, t := range r.Trees {
		if d := t.MaxForkDegree(); d > max {
			max = d
		}
	}
	r.MeasuredForkMax = max
}

// FinalHeights returns the sorted final selected-chain heights across
// replicas (diagnostics: convergence means the spread is small).
func (r *Result) FinalHeights() []int {
	out := make([]int, 0, len(r.Trees))
	for _, t := range r.Trees {
		out = append(out, core.HeadOf(r.Selector, t).Height)
	}
	sort.Ints(out)
	return out
}

// String summarizes the run.
func (r *Result) String() string {
	return fmt.Sprintf("%s: %s, forks≤%d, heights=%v",
		r.System, r.History, r.MeasuredForkMax, r.FinalHeights())
}

// CoinbasePayload builds the payload every simulator uses for its
// blocks: a coinbase transaction minting 50 units to the creator, plus a
// second mint every third round. It only makes blocks of one creator
// and round differ in content; no predicate parses it.
func CoinbasePayload(creator int, round int) []byte {
	txs := []core.Tx{
		{From: 0, To: uint32(creator + 1), Amount: 50},
	}
	if round%3 == 0 {
		txs = append(txs, core.Tx{From: 0, To: uint32(creator%7 + 1), Amount: uint32(round%17 + 1)})
	}
	return core.EncodeTxs(txs)
}

package btsim

import (
	"fmt"
	"io"
	"time"

	"repro/internal/adversary"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/protocols"
	"repro/internal/simnet"
	"repro/internal/tape"
	"repro/internal/transport"
)

// NoHeal, as a Fault.End value, makes the cut permanent: messages
// crossing it are lost instead of deferred (mirrors simnet.NoHeal).
const NoHeal int64 = -1

// The process-level adversarial strategies (Adversary.Strategy). The
// empty string is benign.
const (
	// Selfish is withhold-and-release selfish mining: mine privately,
	// publish when the honest chain gets within Lead of the private tip.
	Selfish = "selfish"
	// Withhold is pure block withholding: mine privately, publish only
	// at the end of the run — the maximal-reorg variant of Selfish.
	Withhold = "withhold"
	// Equivocate is fork flooding: every block the adversary produces
	// is accompanied by forged siblings reusing the same oracle token.
	Equivocate = "equivocate"
)

// Adversary declares a process-level adversarial strategy for a run.
// The zero value is benign. Systems that support adversaries wire it
// (the PoW miners and fabric's orderer); the others ignore it.
type Adversary struct {
	// Strategy is one of Selfish, Withhold, Equivocate or "" (benign).
	Strategy string
	// Proc is the adversarial process id; 0 or out of range means the
	// last process. Systems with a distinguished role (fabric's
	// orderer) pin the id themselves.
	Proc int
	// Lead is the selfish-mining release threshold (0 means 1).
	Lead int
	// Forks is the equivocation width (0 means 2).
	Forks int
	// ReleaseAtEnd flushes a still-withheld private chain after the
	// last round, before the final read batch.
	ReleaseAtEnd bool
}

// Fault declares one network partition window without committing to a
// process count; it is resolved against the run's N at start time.
type Fault struct {
	// Kind is "split" (Left vs. the rest; the default) or "eclipse"
	// (Left[0] cut off alone).
	Kind string
	// Start and End bound the window; End == NoHeal makes the cut
	// permanent (cross-cut messages are lost, not deferred).
	Start, End int64
	// Left is the cut-off side: the split's side-0 members, or the
	// eclipse victim as Left[0].
	Left []int
}

// window resolves the fault for an n-process run.
func (f Fault) window(n int) simnet.Window {
	switch f.Kind {
	case "eclipse":
		victim := 0
		if len(f.Left) > 0 {
			victim = f.Left[0]
		}
		return simnet.EclipseWindow(f.Start, f.End, n, victim)
	default:
		return simnet.SplitWindow(f.Start, f.End, n, f.Left)
	}
}

// String renders e.g. "split[0 1][50,200)" or "eclipse[2][100,∞)".
func (f Fault) String() string {
	end := fmt.Sprint(f.End)
	if f.End == NoHeal {
		end = "∞"
	}
	kind := f.Kind
	if kind == "" {
		kind = "split"
	}
	return fmt.Sprintf("%s%v[%d,%s)", kind, f.Left, f.Start, end)
}

// Crash declares one crash window: process Proc is down during
// [Start, End). While down it neither mines, reads nor receives —
// deliveries to it are lost, not deferred. End == NoHeal makes the
// crash permanent (crash-stop); otherwise the process restarts at End
// and catches up through the anti-entropy layer, restoring its durable
// snapshot first when WithDurability(true) is set.
type Crash struct {
	Proc       int
	Start, End int64
}

// String renders e.g. "crash[2][30,60)" or "crash[1][40,∞)".
func (cw Crash) String() string {
	end := fmt.Sprint(cw.End)
	if cw.End == NoHeal {
		end = "∞"
	}
	return fmt.Sprintf("crash[%d][%d,%s)", cw.Proc, cw.Start, end)
}

// Drop declares deterministic message loss: the Nth message (0-based)
// addressed to process To is dropped; To < 0 matches every message.
// This is the paper's Theorem 4.6/4.7 instrument — even a single lost
// update message breaks Eventual Prefix.
type Drop struct {
	Nth, To int
}

// Progress is what a WithObserver callback sees once per protocol
// round, before the round's block production.
type Progress struct {
	// System is the registered system name.
	System string
	// Round is the current protocol round (tick / height); Rounds is
	// the effective total (the default is substituted when the run
	// was configured with 0), so p.Round/p.Rounds is always sound.
	Round, Rounds int
	// Now is the simulator's virtual time.
	Now int64
	// VirtualTime is the simulator's virtual time — the same value as
	// Now under its canonical name, matching Result.Metrics series
	// timestamps and trace event times.
	VirtualTime int64
	// LiveWitnesses counts the violation witnesses the run's online
	// monitor has emitted so far (0 when no monitor is attached) — the
	// live-verdict feed of WithMonitor/WithStreaming runs.
	LiveWitnesses int
}

// Config is the uniform knob set every registered system runs under,
// normally assembled through the With* functional options. Knobs a
// system has no use for are ignored (difficulty on a BFT chain, say);
// the conformance suite pins which knobs are observable where.
type Config struct {
	// N is the number of processes (0 means 4).
	N int
	// Rounds is the number of protocol rounds — ticks or heights
	// (0 means 50).
	Rounds int
	// Seed drives all randomness; identical (system, Config) pairs
	// replay identical runs.
	Seed uint64
	// ReadEvery schedules a read() at every process each ReadEvery
	// virtual-time units (0 means 10).
	ReadEvery int64
	// Delta is the synchronous network delay bound δ (0 = the
	// system's default).
	Delta int64
	// Difficulty is the PoW difficulty knob of the prodigal-oracle
	// miners (0 = the system's default).
	Difficulty float64
	// Merits are the per-process α_p values — hashing power or stake,
	// normalized by the run so Σ α_p = 1. Nil means uniform.
	Merits []float64
	// Faults are network-level partition/eclipse windows. Churn is a
	// special case: a process leaving and rejoining is exactly an
	// eclipse window that heals.
	Faults []Fault
	// Adversary is the process-level strategy (zero value = benign).
	Adversary Adversary
	// Crashes are the run's crash–recovery windows; every system wires
	// them (the decided blocks all travel the replica flooding layer).
	Crashes []Crash
	// Durable selects snapshot/restore recovery for crashed processes;
	// false means amnesia (rejoin from genesis).
	Durable bool
	// Drop optionally injects deterministic message loss (PoW systems).
	Drop *Drop
	// Observer, when set, is called once per protocol round; returning
	// false stops block production early (the run still drains in-flight
	// messages and takes its final reads).
	Observer func(Progress) bool
	// FaultLog forces the network fault-event log on even for benign
	// runs (it is implied whenever Faults or an Adversary is set).
	FaultLog bool
	// Monitor attaches an online consistency monitor to the run
	// (history still retained; Result.Stream carries the online
	// verdicts next to Check()'s replay). See WithMonitor.
	Monitor bool
	// MonitorK, when > 0, additionally tracks k-Fork Coherence online,
	// with live witnesses at the (k+1)-th token reuse. Implies Monitor.
	MonitorK int
	// MonitorCheckpoint, when > 0, checkpoint-cycles the online monitor
	// roughly every MonitorCheckpoint consumed operations: the monitor
	// serializes its bounded retained state, a fresh monitor is
	// restored from the bytes, and the run continues on the restored
	// one. The cycles are specified to be invisible — the finalized
	// verdicts are byte-identical to an uninterrupted monitor's — which
	// is the restart-safety claim of the crash–recovery model, and the
	// catalogue test pins it on every scenario. Implies Monitor.
	MonitorCheckpoint int
	// OnWitness receives each violation witness the moment it forms
	// (requires Monitor). It is called from inside the recording path:
	// keep it fast and do not call back into the run.
	OnWitness func(consistency.Witness)
	// Streaming switches the run to bounded-memory recording: history
	// is streamed through sealed segments into the monitor and
	// released, never retained. Result.History then holds only the
	// still-pending operations — Result.Stream is the verdict. Implies
	// Monitor. See WithStreaming.
	Streaming bool
	// StreamSegment is the streaming segment size in operations
	// (0 means history.DefaultSegmentSize).
	StreamSegment int
	// Shards runs the simulation on a sharded deterministic scheduler
	// with that many worker shards; 0 or 1 is the serial scheduler.
	// Sharding is purely a wall-clock knob: any shard count is
	// specified to produce byte-identical histories, fault logs and
	// digests. See WithShards.
	Shards int
	// Metrics attaches the deterministic metrics layer: every layer of
	// the run registers zero-alloc counters and virtual-time-sampled
	// gauges, and Result.Metrics carries the typed snapshot. Attaching
	// metrics is specified to leave the run's digest byte-identical,
	// and the snapshot itself is identical across shard counts. See
	// WithMetrics.
	Metrics bool
	// MetricsEvery is the virtual-time sampling interval of the gauge
	// series (0 means metrics.DefaultSampleEvery). Implies Metrics.
	MetricsEvery int64
	// TraceW, when set, receives the run's structured scheduler trace
	// after the run — Chrome trace-event JSON by default (Perfetto /
	// chrome://tracing loadable), JSON-lines with TraceOpts.JSONL.
	// Implies Metrics. See WithTrace.
	TraceW io.Writer
	// TraceOpts tunes the trace (sampling, retention cap, format).
	TraceOpts TraceOptions
	// Live switches the run from a deterministic simulation to a real
	// concurrent deployment: N nodes hosting the system's replicas over
	// a live carrier, wall-clock timers, concurrent client load, and an
	// online consistency monitor attached over the totally ordered op
	// feed. The run is NOT deterministic (no replay digest pinning);
	// Result.Live carries the measured throughput, latency quantiles
	// and finalized online verdicts. See WithLive.
	Live bool
	// LiveTransport names the live carrier: "chan" (in-process,
	// default) or "tcp" (length-prefixed frames over loopback TCP).
	LiveTransport string
	// LiveClients / LiveRate shape the client load: concurrent
	// generators (0 means 2) and per-client target appends/sec (0 means
	// closed-loop). See WithLoad.
	LiveClients int
	LiveRate    float64
	// LiveDuration bounds the load phase in wall time; LiveAppends in
	// granted appends. At least one must be set for a live run.
	LiveDuration time.Duration
	LiveAppends  int64
	// LiveSpray round-robins appends across all nodes instead of the
	// single-writer default (prodigal systems only get real fork
	// pressure this way; sequencer systems pin node 0 regardless).
	LiveSpray bool
	// LiveCrash schedules one crash/restart during the live load.
	LiveCrash *LiveCrash

	// system is stamped by System.Run before the adapter sees the
	// Config, so Base can label Progress events.
	system string
	// monrun is the run's streaming state, created by System.Run when
	// Monitor/Streaming is on. Config travels by value; the shared
	// pointer is how Base's hook and the post-run finisher meet.
	monrun *monitorRun
	// obsrun is the run's observability state (metrics + trace),
	// created by System.Run when Metrics is on — same pattern as
	// monrun.
	obsrun *obsRun
}

// LiveCrash schedules one crash/restart during a live run: the node
// goes down After into the load for Downtime, then restarts — from its
// durable snapshot when Durable, from genesis (amnesia) otherwise —
// and catches up through the anti-entropy layer.
type LiveCrash struct {
	Node            int
	After, Downtime time.Duration
	Durable         bool
}

// Option mutates a Config; build one with NewConfig or pass options
// directly to Run.
type Option func(*Config)

// NewConfig assembles a Config from functional options.
func NewConfig(opts ...Option) Config {
	var c Config
	for _, opt := range opts {
		if opt != nil {
			opt(&c)
		}
	}
	return c
}

// WithN sets the number of processes.
func WithN(n int) Option { return func(c *Config) { c.N = n } }

// WithRounds sets the number of protocol rounds (ticks / heights).
func WithRounds(r int) Option { return func(c *Config) { c.Rounds = r } }

// WithSeed sets the seed driving all randomness.
func WithSeed(seed uint64) Option { return func(c *Config) { c.Seed = seed } }

// WithReadEvery sets the periodic read interval in virtual time.
func WithReadEvery(every int64) Option { return func(c *Config) { c.ReadEvery = every } }

// WithDelta sets the synchronous delay bound δ.
func WithDelta(delta int64) Option { return func(c *Config) { c.Delta = delta } }

// WithDifficulty sets the PoW difficulty of the prodigal-oracle miners.
func WithDifficulty(d float64) Option { return func(c *Config) { c.Difficulty = d } }

// WithMerits sets the per-process merit vector (hashing power / stake).
func WithMerits(merits ...float64) Option {
	return func(c *Config) { c.Merits = merits }
}

// WithFaults installs the run's network partition/eclipse windows.
// Like every other option it is last-wins: a later WithFaults replaces
// an earlier one (pass all windows in one call).
func WithFaults(faults ...Fault) Option {
	return func(c *Config) { c.Faults = faults }
}

// WithAdversary installs a process-level adversarial strategy.
func WithAdversary(a Adversary) Option { return func(c *Config) { c.Adversary = a } }

// WithCrashes installs the run's crash–recovery windows (last-wins,
// like WithFaults: pass all windows in one call). Use End == NoHeal for
// a crash-stop. Pair with WithDurability to pick the recovery
// discipline.
func WithCrashes(crashes ...Crash) Option {
	return func(c *Config) { c.Crashes = crashes }
}

// WithDurability selects how crashed processes recover: true restores
// the replica's durable snapshot at restart (it only fetches what it
// missed while down); false — the default — is amnesia: the replica
// rejoins from genesis and must resynchronize the whole tree.
func WithDurability(durable bool) Option {
	return func(c *Config) { c.Durable = durable }
}

// WithDropNth drops the nth message (0-based) addressed to process to;
// to < 0 drops the nth message overall.
func WithDropNth(nth, to int) Option {
	return func(c *Config) { c.Drop = &Drop{Nth: nth, To: to} }
}

// WithObserver installs a per-round progress callback; returning false
// stops block production early.
func WithObserver(fn func(Progress) bool) Option { return func(c *Config) { c.Observer = fn } }

// WithFaultLog forces the fault-event log on (implied by WithFaults and
// WithAdversary).
func WithFaultLog(on bool) Option { return func(c *Config) { c.FaultLog = on } }

// WithMonitor attaches an online consistency monitor: the run's history
// is checked incrementally as it is recorded, violation witnesses are
// delivered to onWitness (may be nil) the moment they form, and
// Result.Stream carries the finalized online verdicts alongside the
// history, which is still retained — Check() replays it into a second
// monitor and, on a simulated run, reports the same. A live run always
// has its monitor attached; there the
// option only installs onWitness (called from the monitor's consumer
// goroutine; keep it fast) and the verdicts are in Result.Live.
func WithMonitor(onWitness func(consistency.Witness)) Option {
	return func(c *Config) {
		c.Monitor = true
		c.OnWitness = onWitness
	}
}

// WithMonitorK additionally tracks k-Fork Coherence online with the
// given bound (live witnesses at the (k+1)-th token reuse). Implies
// WithMonitor. On a live run the report is Result.Live.KFork.
func WithMonitorK(k int) Option {
	return func(c *Config) {
		c.Monitor = true
		c.MonitorK = k
	}
}

// WithMonitorCheckpoint checkpoint-cycles the online monitor every
// `every` consumed operations (serialize → restore → continue), proving
// mid-run that online checking is restart-safe: the cycles must not
// change any finalized verdict. Result.Stream.Checkpoints counts the
// cycles. Implies WithMonitor.
func WithMonitorCheckpoint(every int) Option {
	return func(c *Config) {
		c.Monitor = true
		c.MonitorCheckpoint = every
	}
}

// WithStreaming runs in bounded-memory mode: operations stream through
// sealed fixed-size segments (segment ≤ 0 means the default size) into
// the online monitor and are released — resident memory is independent
// of run length, which is what makes ≥1M-op runs checkable at all. The
// trade: Result.History holds only the still-pending operations, so
// Check() and Digest() see an empty run; Result.Stream is the verdict.
// Implies WithMonitor.
func WithStreaming(segment int) Option {
	return func(c *Config) {
		c.Monitor = true
		c.Streaming = true
		c.StreamSegment = segment
	}
}

// WithShards runs the simulation on a sharded deterministic scheduler:
// the event heap is partitioned across k worker shards by replica
// group, independent same-timestamp deliveries are processed
// concurrently, and every order-sensitive effect (message sends, RNG
// delay draws, history recording, fault-log appends) is staged and
// committed at a merge barrier in exactly the serial execution order.
// The result — history, digest, fault log, verdicts — is specified to
// be byte-identical for every k, so sharding is purely a wall-clock
// knob; the catalogue-wide digest-diff test pins it. k ≤ 1 (the
// default) is the plain serial scheduler. Consensus-style systems
// whose handlers are not shard-safe run serially regardless — still
// correct, just not accelerated.
func WithShards(k int) Option { return func(c *Config) { c.Shards = k } }

// WithMetrics attaches the deterministic metrics layer: counters,
// gauges and histograms across the scheduler, network, replica,
// history and monitor layers, sampled against virtual time.
// Result.Metrics carries the typed snapshot; its digest-relevant
// sections are identical across shard counts, and attaching metrics
// never changes the run's replay digest.
func WithMetrics() Option { return func(c *Config) { c.Metrics = true } }

// WithMetricsInterval sets the virtual-time sampling interval of the
// metric gauge series (every ≤ 0 means the default). Implies
// WithMetrics.
func WithMetricsInterval(every int64) Option {
	return func(c *Config) {
		c.Metrics = true
		c.MetricsEvery = every
	}
}

// WithTrace streams the run's structured scheduler trace — sends,
// deliveries, timers, faults, crashes, shard epochs, merge stalls and
// monitor witnesses — to w when the run finishes: Chrome trace-event
// JSON by default (load in Perfetto or chrome://tracing), JSON-lines
// with opts.JSONL. Sampling is deterministic (by scheduler sequence
// number) and attaching a trace never changes the run's digest.
// Implies WithMetrics.
func WithTrace(w io.Writer, opts TraceOptions) Option {
	return func(c *Config) {
		c.Metrics = true
		c.TraceW = w
		c.TraceOpts = opts
	}
}

// WithLive switches the run to a real concurrent deployment over the
// named carrier — "chan" (in-process channels, the fast default) or
// "tcp" (length-prefixed frames over loopback TCP). Live runs host N
// replica nodes on wall-clock timers, drive them with concurrent client
// load (WithLoad), attach the online consistency monitor over the
// totally ordered operation feed, and report throughput, latency
// quantiles and the finalized verdicts in Result.Live. Bound the load
// with WithLiveDuration and/or WithLiveAppends (at least one is
// required). Live runs are not deterministic — the simulation-only
// knobs (faults, crash windows, adversaries, drops, sharding, streaming,
// monitor checkpoints, metrics, trace, observer) are rejected;
// WithMonitor and WithMonitorK configure the deployment's own monitor.
func WithLive(carrier string) Option {
	return func(c *Config) {
		c.Live = true
		c.LiveTransport = carrier
	}
}

// WithLoad shapes a live run's client load: `clients` concurrent
// generators (0 means 2) each targeting `rate` appends/sec (0 means
// closed-loop: submit as soon as the last operation completes).
func WithLoad(clients int, rate float64) Option {
	return func(c *Config) {
		c.LiveClients = clients
		c.LiveRate = rate
	}
}

// WithLiveDuration bounds a live run's load phase in wall time.
func WithLiveDuration(d time.Duration) Option {
	return func(c *Config) { c.LiveDuration = d }
}

// WithLiveAppends bounds a live run's load phase in granted appends —
// the deterministic-progress bound tests use.
func WithLiveAppends(max int64) Option {
	return func(c *Config) { c.LiveAppends = max }
}

// WithLiveSpray round-robins live appends across all nodes instead of
// the single-writer default.
func WithLiveSpray() Option {
	return func(c *Config) { c.LiveSpray = true }
}

// WithLiveCrash schedules one crash/restart during the live load.
func WithLiveCrash(crash LiveCrash) Option {
	return func(c *Config) { c.LiveCrash = &crash }
}

// validate rejects configurations no system can run.
func (c Config) validate() error {
	if c.N < 0 {
		return fmt.Errorf("negative N %d", c.N)
	}
	if c.Rounds < 0 {
		return fmt.Errorf("negative Rounds %d", c.Rounds)
	}
	switch c.Adversary.Strategy {
	case "", Selfish, Withhold, Equivocate:
	default:
		return fmt.Errorf("unknown adversary strategy %q (known: %s, %s, %s)",
			c.Adversary.Strategy, Selfish, Withhold, Equivocate)
	}
	for _, m := range c.Merits {
		if m < 0 {
			return fmt.Errorf("negative merit %v", m)
		}
	}
	for _, f := range c.Faults {
		switch f.Kind {
		case "", "split", "eclipse":
		default:
			return fmt.Errorf("unknown fault kind %q (known: split, eclipse)", f.Kind)
		}
		if f.End != NoHeal && f.End < f.Start {
			return fmt.Errorf("fault %s ends before it starts", f)
		}
	}
	for _, cw := range c.Crashes {
		if cw.Proc < 0 {
			return fmt.Errorf("crash window %s names a negative process", cw)
		}
		if cw.End != NoHeal && cw.End <= cw.Start {
			return fmt.Errorf("crash window %s ends before it starts", cw)
		}
	}
	if c.MonitorK < 0 {
		return fmt.Errorf("negative MonitorK %d", c.MonitorK)
	}
	if c.MonitorCheckpoint < 0 {
		return fmt.Errorf("negative MonitorCheckpoint %d", c.MonitorCheckpoint)
	}
	if c.OnWitness != nil && !c.Monitor {
		return fmt.Errorf("OnWitness requires the monitor (use WithMonitor)")
	}
	if c.Shards < 0 {
		return fmt.Errorf("negative Shards %d", c.Shards)
	}
	if c.MetricsEvery < 0 {
		return fmt.Errorf("negative MetricsEvery %d", c.MetricsEvery)
	}
	if c.TraceOpts.SampleEvery < 0 {
		return fmt.Errorf("negative trace SampleEvery %d", c.TraceOpts.SampleEvery)
	}
	if c.TraceOpts.Limit < 0 {
		return fmt.Errorf("negative trace Limit %d", c.TraceOpts.Limit)
	}
	if c.Live {
		switch c.LiveTransport {
		case "", "chan", "tcp":
		default:
			return fmt.Errorf("unknown live transport %q (known: chan, tcp)", c.LiveTransport)
		}
		if c.LiveDuration <= 0 && c.LiveAppends <= 0 {
			return fmt.Errorf("live run needs WithLiveDuration or WithLiveAppends")
		}
		// A live run owns its monitor and its metrics, and nothing about
		// it is deterministic — every simulation-only knob is rejected so
		// a caller cannot silently get a run that ignores half its options.
		switch {
		case c.Streaming || c.MonitorCheckpoint > 0:
			return fmt.Errorf("live runs attach their own online monitor (drop WithStreaming/WithMonitorCheckpoint; WithMonitor and WithMonitorK configure it)")
		case c.Metrics || c.MetricsEvery > 0 || c.TraceW != nil:
			return fmt.Errorf("live runs measure their own metrics (drop WithMetrics/WithTrace; see Result.Live)")
		case len(c.Faults) > 0 || len(c.Crashes) > 0 || c.Drop != nil:
			return fmt.Errorf("live runs take no simulated fault schedule (use WithLiveCrash)")
		case c.Adversary.Strategy != "":
			return fmt.Errorf("live runs do not support adversaries")
		case c.Observer != nil:
			return fmt.Errorf("live runs do not support WithObserver (use WithMonitor)")
		case c.Shards > 1:
			return fmt.Errorf("live runs are already concurrent (drop WithShards)")
		}
		if c.LiveCrash != nil {
			n := c.N
			if n <= 0 {
				n = 4
			}
			if c.LiveCrash.Node < 0 || c.LiveCrash.Node >= n {
				return fmt.Errorf("live crash node %d out of range [0,%d)", c.LiveCrash.Node, n)
			}
		}
	} else if c.LiveTransport != "" || c.LiveClients > 0 || c.LiveRate > 0 ||
		c.LiveDuration > 0 || c.LiveAppends > 0 || c.LiveSpray ||
		c.LiveCrash != nil {
		return fmt.Errorf("live load options require WithLive")
	}
	return nil
}

// Base lowers the public knob set onto the shared internal protocol
// config. The rows of the registration table (btsim/systems) call it
// when they lower a Config; it has already been validated by System.Run.
func (c Config) Base() protocols.Config {
	pc := protocols.Config{
		N:            c.N,
		Rounds:       c.Rounds,
		Seed:         c.Seed,
		ReadEvery:    c.ReadEvery,
		RecordFaults: c.FaultLog,
		Durable:      c.Durable,
		Shards:       c.Shards,
		Adversary: adversary.Config{
			Strategy:     adversary.Strategy(c.Adversary.Strategy),
			Proc:         c.Adversary.Proc,
			Lead:         c.Adversary.Lead,
			Forks:        c.Adversary.Forks,
			ReleaseAtEnd: c.Adversary.ReleaseAtEnd,
		},
	}
	if len(c.Merits) > 0 {
		pc.Merits = make([]tape.Merit, len(c.Merits))
		for i, m := range c.Merits {
			pc.Merits[i] = tape.Merit(m)
		}
	}
	if len(c.Faults) > 0 {
		n := c.N
		if n <= 0 {
			n = 4 // protocols.Config.Norm's default
		}
		sched := &simnet.Schedule{}
		for _, f := range c.Faults {
			sched.Windows = append(sched.Windows, f.window(n))
		}
		pc.Faults = sched
	}
	for _, cw := range c.Crashes {
		pc.Crashes = append(pc.Crashes, simnet.CrashWindow{Proc: cw.Proc, Start: cw.Start, End: cw.End})
	}
	if c.Observer != nil {
		obs, system, mr := c.Observer, c.system, c.monrun
		// Progress reports the effective round count: 0 means the
		// shared default (protocols.Config.Norm), so observers can
		// guard on p.Round < p.Rounds and compute percentages.
		rounds := c.Rounds
		if rounds <= 0 {
			rounds = 50
		}
		pc.Observer = func(round int, now int64) bool {
			return obs(Progress{
				System: system, Round: round, Rounds: rounds,
				Now: now, VirtualTime: now,
				LiveWitnesses: mr.liveWitnesses(),
			})
		}
	}
	if c.monrun != nil || c.obsrun != nil {
		mr, or := c.monrun, c.obsrun
		pc.Stream = func(rec *history.Recorder, score core.Score) {
			if mr != nil {
				mr.bind(rec, score)
			}
			if or != nil {
				or.bind(rec, mr)
			}
		}
	}
	if c.obsrun != nil {
		pc.Metrics = c.obsrun.reg
		pc.Trace = c.obsrun.tr
	}
	if c.Live {
		lc := &transport.LiveConfig{
			Transport:  c.LiveTransport,
			Clients:    c.LiveClients,
			Rate:       c.LiveRate,
			Duration:   c.LiveDuration,
			MaxAppends: c.LiveAppends,
			Spray:      c.LiveSpray,
			K:          c.MonitorK,
			OnWitness:  c.OnWitness,
		}
		if c.LiveCrash != nil {
			lc.Crash = &transport.CrashSpec{
				Node:     c.LiveCrash.Node,
				After:    c.LiveCrash.After,
				Downtime: c.LiveCrash.Downtime,
				Durable:  c.LiveCrash.Durable,
			}
		}
		pc.Live = lc
	}
	return pc
}

// DropRule lowers the Drop spec to the simnet rule the PoW rows pass
// on (nil when no loss is configured).
func (c Config) DropRule() simnet.DropRule {
	if c.Drop == nil {
		return nil
	}
	inner := simnet.DropRule(nil)
	if c.Drop.To >= 0 {
		inner = simnet.DropToProcess(c.Drop.To)
	}
	return simnet.DropNth(c.Drop.Nth, inner)
}

package btsim

import (
	"fmt"
	"io"
	"reflect"
	"slices"
	"time"

	"repro/internal/adversary"
	"repro/internal/consistency"
	"repro/internal/history"
	"repro/internal/protocols"
	"repro/internal/replica"
	"repro/internal/simnet"
	"repro/internal/tape"
	"repro/internal/transport"
)

// NoHeal, as a Fault.End or Crash.End value, makes the cut or the crash
// permanent: messages crossing a permanent cut are lost instead of
// deferred, a process crashed for good never restarts.
const NoHeal = simnet.NoHeal

// The process-level adversarial strategies (Adversary.Strategy). The
// empty string is benign.
const (
	// Selfish is withhold-and-release selfish mining: mine privately,
	// publish when the honest chain gets within Lead of the private tip.
	Selfish = adversary.Selfish
	// Withhold is pure block withholding: mine privately, publish only
	// at the end of the run — the maximal-reorg variant of Selfish.
	Withhold = adversary.Withhold
	// Equivocate is fork flooding: every block the adversary produces
	// is accompanied by forged siblings reusing the same oracle token.
	Equivocate = adversary.Equivocate
)

// Adversary declares a process-level adversarial strategy for a run:
// Strategy (Selfish, Withhold, Equivocate or "" for benign), the
// adversarial Proc (0 or out of range means the last process; systems
// with a distinguished role, such as fabric's orderer, pin it
// themselves), the selfish-mining release threshold Lead (0 means 1),
// the equivocation width Forks (0 means 2) and ReleaseAtEnd, which
// flushes a still-withheld private chain after the last round. The zero
// value is benign. A system takes the strategies its Info.Adversaries
// lists (all three on the PoW miners, Equivocate on fabric's orderer,
// none on the others); Run refuses any other, naming both.
type Adversary = adversary.Config

// Fault declares one network partition window without committing to a
// process count; it is resolved against the run's N at start time.
type Fault struct {
	// Kind is "split" (Left vs. the rest; the default) or "eclipse"
	// (the one process in Left cut off alone).
	Kind string
	// Start and End bound the window; End == NoHeal makes the cut
	// permanent (cross-cut messages are lost, not deferred).
	Start, End int64
	// Left is the cut-off side: the split's side-0 members (at least
	// one, and not every process), or the eclipse victim alone.
	Left []int
}

// window resolves the fault for an n-process run.
func (f Fault) window(n int) simnet.Window {
	switch f.Kind {
	case "eclipse":
		return simnet.EclipseWindow(f.Start, f.End, n, f.Left[0])
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
// [Start, End). While down it neither appends, reads nor receives —
// deliveries to it are lost, not deferred. At End the process restarts
// and catches up through the anti-entropy layer, restoring its durable
// snapshot first when WithDurability(true) is set. The instants are
// virtual time in simulation and, under WithLive, replica ticks
// (transport.Tick, 12.5 ms) after the start of the load. End == NoHeal
// makes the crash permanent (crash-stop) — in simulation only: a
// deployment waits for every node to converge. Under either driver the
// windows of one process that overlap or touch are one down-span, with
// one crash and one restart.
type Crash = replica.CrashWindow

// Drop declares deterministic message loss: the Nth message (0-based)
// addressed to process To is dropped; To < 0 matches every message.
// This is the paper's Theorem 4.6/4.7 instrument — even a single lost
// update message breaks Eventual Prefix.
type Drop struct {
	Nth, To int
}

// Load shapes the client load of a live run (WithLoad). Duration and
// Appends bound the load phase, in wall time and in granted appends;
// the phase ends at whichever comes first and at least one must be set.
type Load struct {
	// Clients is the number of concurrent generators (0 means 2).
	Clients int
	// Rate is the per-client target in appends/sec; 0 means closed-loop
	// (submit as soon as the last operation completes).
	Rate     float64
	Duration time.Duration
	// Appends is the deterministic-progress bound tests use.
	Appends int64
	// Spray round-robins appends across all nodes instead of the
	// single-writer default (prodigal systems only get real fork
	// pressure this way; sequencer systems pin node 0 regardless).
	Spray bool
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
	// VirtualTime is the simulator's virtual time, as in Result.Metrics
	// series timestamps and trace event times.
	VirtualTime int64
	// LiveWitnesses counts the violation witnesses the run's online
	// monitor has emitted so far. A WithStreaming run counts those of
	// the segments whose check has returned: the segment still in check
	// on its own goroutine is not waited for.
	LiveWitnesses int
}

// Config is the uniform knob set every registered system runs under,
// normally assembled through the With* functional options. Knobs a
// system has no use for are ignored (difficulty on a BFT chain, say);
// the conformance suite pins which knobs are observable where. Knobs a
// driver has no use for are rejected: the knobs table below says, field
// by field, whether the simulation, a WithLive deployment or both take
// it.
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
	// Crashes are the run's crash–recovery windows, under either driver;
	// every system wires them (the decided blocks all travel the replica
	// flooding layer).
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
	// MonitorK > 0 adds k-Fork Coherence to what the run's online
	// monitor reports; OnWitness receives each violation witness as it
	// forms. See WithMonitorK, WithMonitor.
	MonitorK  int
	OnWitness func(consistency.Witness)
	// Streaming records in bounded memory, StreamSegment operations per
	// sealed segment (0 means history.DefaultSegmentSize). See
	// WithStreaming.
	Streaming     bool
	StreamSegment int
	// Metrics attaches the deterministic metrics layer (WithMetrics).
	// TraceW, when set, receives the run's scheduler trace as TraceOpts
	// shapes it, and implies Metrics (WithTrace).
	Metrics   bool
	TraceW    io.Writer
	TraceOpts TraceOptions
	// Live runs a real concurrent deployment instead of the simulation,
	// over the carrier LiveTransport names: "chan" (in-process, the
	// default) or "tcp" (loopback sockets). See WithLive.
	Live          bool
	LiveTransport string
	// Load is the live run's client load and its bound. See WithLoad.
	Load Load
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
// like WithFaults: pass all windows in one call), in simulation and
// under WithLive alike. Use End == NoHeal for a simulated crash-stop.
// Pair with WithDurability to pick the recovery discipline.
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

// WithMonitor delivers the violation witnesses of the run's online
// monitor to onWitness the moment they form. Every run, under either
// driver, is checked by that monitor and has its verdicts in
// Result.Stream; this option only installs the callback. It is called
// where the monitor runs — the monitor's consumer goroutine live, the
// goroutine checking a sealed segment under WithStreaming, the
// simulation's otherwise — so keep it fast, and share nothing with an
// observer or other callbacks without a lock; every call has returned
// when the run does.
func WithMonitor(onWitness func(consistency.Witness)) Option {
	return func(c *Config) { c.OnWitness = onWitness }
}

// WithMonitorK additionally tracks k-Fork Coherence online with the
// given bound (live witnesses at the (k+1)-th token reuse). The report
// is Result.Stream.KFork under either driver.
func WithMonitorK(k int) Option { return func(c *Config) { c.MonitorK = k } }

// WithStreaming runs in bounded-memory mode: operations stream through
// sealed fixed-size segments (segment ≤ 0 means the default size) into
// the online monitor and are released — resident memory is independent
// of run length, which is what makes ≥1M-op runs checkable at all. The
// monitor checks each sealed segment on a goroutine of its own while the
// simulation records the next; verdicts, metrics and traces are those
// of a run checked in line. The trade: Result.History holds only the
// still-pending operations, so Digest() and the history readers
// (UpdateAgreement, MonotonicPrefix) see an empty run; Check() and
// KFork() answer from the monitor.
func WithStreaming(segment int) Option {
	return func(c *Config) {
		c.Streaming = true
		c.StreamSegment = segment
	}
}

// WithMetrics attaches the deterministic metrics layer: counters,
// gauges and histograms across the scheduler, network, replica,
// history and monitor layers, sampled against virtual time.
// Result.Metrics carries the typed snapshot; its digest-relevant
// sections are deterministic, and attaching metrics never changes the
// run's replay digest.
func WithMetrics() Option { return func(c *Config) { c.Metrics = true } }

// WithTrace streams the run's structured scheduler trace — sends,
// deliveries, timers, faults, crashes and monitor witnesses — to w when
// the run finishes: Chrome trace-event JSON by default (load in Perfetto
// or chrome://tracing), JSON-lines with opts.JSONL. Sampling is
// deterministic (by scheduler sequence number), the same run writes the
// same bytes, and attaching a trace never changes the run's digest.
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
// load (WithLoad, which also bounds the run), attach the online
// consistency monitor over the totally ordered operation feed, and
// report throughput and latency quantiles in Result.Live and the
// finalized online verdicts in Result.Stream, where a simulated run's
// are. WithCrashes and WithDurability take nodes down and back
// during the load; WithMonitor and WithMonitorK configure the
// deployment's own monitor. Live runs are not deterministic, and every
// option the deployment has no use for is rejected by name rather than
// ignored (the knobs table).
func WithLive(carrier string) Option {
	return func(c *Config) {
		c.Live = true
		c.LiveTransport = carrier
	}
}

// WithLoad shapes and bounds a live run's client load.
func WithLoad(load Load) Option { return func(c *Config) { c.Load = load } }

// driver says which of the two drivers takes a knob.
type driver uint8

const (
	both driver = iota
	simOnly
	liveOnly
)

func (d driver) String() string {
	return [...]string{both: "either", simOnly: "simulation", liveOnly: "live"}[d]
}

// knob is one row of the knobs table.
type knob struct {
	// field is the Config field, option the With* function that sets it
	// — the name an error uses.
	field, option string
	takes         driver
	// check, when non-nil, range-checks the field (v is its value) in a
	// run whose driver takes the knob.
	check func(c *Config, v reflect.Value) error
}

// knobs has one row per exported Config field — a test walks the struct
// to prove it, so a knob cannot be added without deciding which driver
// takes it. A knob set under a driver that cannot take it is an error
// naming the option: no run silently ignores half its options.
var knobs = []knob{
	{"N", "WithN", both, func(c *Config, v reflect.Value) error {
		if c.N > history.MaxProcs {
			return fmt.Errorf("%d processes, a run's history names at most %d", c.N, history.MaxProcs)
		}
		return nonNegative(c, v)
	}},
	{"Rounds", "WithRounds", simOnly, nonNegative},
	{"Seed", "WithSeed", both, nil},
	{"ReadEvery", "WithReadEvery", simOnly, nonNegative},
	{"Delta", "WithDelta", simOnly, nonNegative},
	{"Difficulty", "WithDifficulty", both, nonNegative},
	{"Merits", "WithMerits", both, func(c *Config, _ reflect.Value) error {
		for _, m := range c.Merits {
			if m < 0 {
				return fmt.Errorf("negative merit %v", m)
			}
		}
		return nil
	}},
	{"Faults", "WithFaults", simOnly, func(c *Config, _ reflect.Value) error {
		for _, f := range c.Faults {
			switch f.Kind {
			case "", "split", "eclipse":
			default:
				return fmt.Errorf("unknown fault kind %q (known: split, eclipse)", f.Kind)
			}
			switch {
			case f.Start < 0:
				return fmt.Errorf("fault %s starts before time 0", f)
			case f.End != NoHeal && f.End < f.Start:
				return fmt.Errorf("fault %s ends before it starts", f)
			case slices.ContainsFunc(f.Left, func(p int) bool { return p < 0 || p >= c.procs() }):
				return fmt.Errorf("fault %s names a process out of range [0,%d)", f, c.procs())
			case f.Kind == "eclipse" && len(f.Left) != 1:
				return fmt.Errorf("fault %s: an eclipse names exactly one process", f)
			case f.Kind != "eclipse" && (len(f.Left) == 0 || len(slices.Compact(slices.Sorted(slices.Values(f.Left)))) == c.procs()):
				return fmt.Errorf("fault %s: a split's side must name a process and leave one out", f)
			}
		}
		return nil
	}},
	{"Adversary", "WithAdversary", simOnly, nil}, // System.Run holds it to Info.Adversaries
	{"Crashes", "WithCrashes", both, checkCrashes},
	{"Durable", "WithDurability", both, nil},
	{"Drop", "WithDropNth", simOnly, func(c *Config, _ reflect.Value) error {
		if d := c.Drop; d != nil && (d.Nth < 0 || d.To >= c.procs()) {
			return fmt.Errorf("message %d to process %d: want an index ≥ 0 and a process below %d", d.Nth, d.To, c.procs())
		}
		return nil
	}},
	{"Observer", "WithObserver", simOnly, nil},
	{"MonitorK", "WithMonitorK", both, nonNegative},
	{"OnWitness", "WithMonitor", both, nil},
	{"Streaming", "WithStreaming", simOnly, nil},
	{"StreamSegment", "WithStreaming", simOnly, nil},
	{"Metrics", "WithMetrics", simOnly, nil},
	{"TraceW", "WithTrace", simOnly, nil},
	{"TraceOpts", "WithTrace", simOnly, func(c *Config, _ reflect.Value) error {
		if c.TraceOpts.SampleEvery < 0 || c.TraceOpts.Limit < 0 {
			return fmt.Errorf("negative SampleEvery %d or Limit %d", c.TraceOpts.SampleEvery, c.TraceOpts.Limit)
		}
		return nil
	}},
	{"Live", "WithLive", both, nil},
	// transport.Run knows the carriers and asks for a bounded load.
	{"LiveTransport", "WithLive", liveOnly, nil},
	{"Load", "WithLoad", liveOnly, func(_ *Config, v reflect.Value) error {
		for i := 0; i < v.NumField(); i++ {
			if err := nonNegative(nil, v.Field(i)); err != nil {
				return fmt.Errorf("%s: %w", v.Type().Field(i).Name, err)
			}
		}
		return nil
	}},
}

// nonNegative is the range check of the numeric knobs; it passes any
// other kind.
func nonNegative(_ *Config, v reflect.Value) error {
	switch {
	case v.CanInt() && v.Int() < 0:
		return fmt.Errorf("negative value %d", v.Int())
	case v.CanFloat() && v.Float() < 0:
		return fmt.Errorf("negative value %v", v.Float())
	}
	return nil
}

// checkCrashes holds every window to the run's process range under
// either driver, and under WithLive to what the deployment can run: its
// settle phase waits for every node, so each window must heal.
func checkCrashes(c *Config, _ reflect.Value) error {
	for _, w := range c.Crashes {
		switch {
		case w.Proc < 0 || w.Proc >= c.procs():
			return fmt.Errorf("%s: process out of range [0,%d)", w, c.procs())
		case w.Start < 0:
			return fmt.Errorf("%s starts before time 0", w)
		case w.End != NoHeal && w.End <= w.Start:
			return fmt.Errorf("%s ends before it starts", w)
		case !c.Live:
			continue
		case w.End == NoHeal:
			return fmt.Errorf("%s: a live deployment has no crash-stop (it waits for every node to converge)", w)
		}
	}
	return nil
}

// procs is the run's process count: N, or the shared default when N is
// unset.
func (c Config) procs() int {
	if c.N <= 0 {
		return protocols.DefaultN
	}
	return c.N
}

// validate walks the knobs table once: a knob that is set under a driver
// that does not take it is rejected by name; every knob the driver does
// take is range-checked.
func (c Config) validate() error {
	run := simOnly // the driver this run is under
	if c.Live {
		run = liveOnly
	}
	cv := reflect.ValueOf(c)
	for _, k := range knobs {
		v := cv.FieldByName(k.field)
		switch taken := k.takes == both || k.takes == run; {
		case !taken && !v.IsZero() && (v.Kind() != reflect.Slice || v.Len() > 0): // set; an empty slice is not
			return fmt.Errorf("%s is %s-only: a %s run cannot take it", k.option, k.takes, run)
		case taken && k.check != nil:
			if err := k.check(&c, v); err != nil {
				return fmt.Errorf("%s: %w", k.option, err)
			}
		}
	}
	return nil
}

// Base lowers the public knob set, all but Drop (see DropRule), onto
// the shared internal protocol config. System.Run lowers a validated
// Config with it, attaches the run's monitor, metrics and Progress hooks,
// and hands the result to the system's RunFunc.
func (c Config) Base() protocols.Config {
	pc := protocols.Config{
		N:          c.N,
		Rounds:     c.Rounds,
		Seed:       c.Seed,
		ReadEvery:  c.ReadEvery,
		Delta:      c.Delta,
		Difficulty: c.Difficulty,
		Crashes:    c.Crashes,
		Durable:    c.Durable,
		Adversary:  c.Adversary,
	}
	if len(c.Merits) > 0 {
		pc.Merits = make([]tape.Merit, len(c.Merits))
		for i, m := range c.Merits {
			pc.Merits[i] = tape.Merit(m)
		}
	}
	if len(c.Faults) > 0 {
		sched := &simnet.Schedule{}
		for _, f := range c.Faults {
			sched.Windows = append(sched.Windows, f.window(c.procs()))
		}
		pc.Faults = sched
	}
	if c.Live {
		pc.Live = &transport.LiveConfig{
			Transport:  c.LiveTransport,
			Clients:    c.Load.Clients,
			Rate:       c.Load.Rate,
			Duration:   c.Load.Duration,
			MaxAppends: c.Load.Appends,
			Spray:      c.Load.Spray,
			K:          c.MonitorK,
			OnWitness:  c.OnWitness,
		}
	}
	return pc
}

// DropRule lowers the Drop spec to a simnet rule (nil when no loss is
// configured). Base leaves it out: the bitcoin and ethereum rows of
// btsim/systems set it as protocols.Config.Drop, and the other five
// systems run lossless whatever Drop says.
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

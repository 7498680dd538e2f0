// Package btsim is the public face of the repository: one uniform way
// to run, observe and check every blockchain system the paper's Section
// 5 maps onto the BlockTree abstract data type.
//
// The paper's whole point is that Bitcoin, Ethereum, ByzCoin, Algorand,
// PeerCensus, Red Belly and Hyperledger Fabric are instances of *one*
// abstraction — a BT-ADT refined by a token oracle — so the API treats
// them as instances of one interface:
//
//   - System is a registered protocol: a Name, an Info describing the
//     oracle family and consistency criterion the paper claims for it,
//     and a Run that executes it under one of two drivers — a
//     deterministic discrete-event simulation (the default) or, with
//     WithLive, a real concurrent deployment — and returns the recorded
//     Result.
//   - Systems, Names and Lookup expose the registry. Importing
//     repro/btsim/systems for side effects registers the built-in seven
//     from one table: a row names the system and lowers a Config onto
//     its package's knobs; the oracle, selector, score, predicate and
//     the paper's claims are stated once, in the package's definition,
//     and both drivers and the Info read them from there.
//   - Run options are functional: WithN, WithRounds, WithSeed,
//     WithDelta, WithDifficulty, WithMerits, WithFaults, WithAdversary,
//     WithCrashes, WithObserver and friends replace the per-protocol
//     config structs. Every run is checked by an online consistency
//     monitor; WithMonitor/WithMonitorK take its live witnesses and
//     k-Fork bound, WithStreaming runs it in bounded memory. WithLive
//     and WithLoad deploy and drive the system for real. There is one
//     knob set, Config, under both drivers: a table (options.go) says
//     which driver takes which field, and an option set where its
//     driver is not is an error naming it.
//   - A simulated run executes on one goroutine, scheduler, replicas
//     and monitor alike. A live run gives each node its own event loop;
//     the nodes share only the block index and the recorder, both safe
//     for concurrent use, and the recorder feeds the monitor on a
//     goroutine of its own.
//   - Result carries the recorded history, the per-process replica
//     trees and the fault/adversary event log, the monitor's verdicts
//     (Stream, which Check reads) and a replay Digest: identical
//     (system, options, seed) triples produce identical digests. The
//     same monitor answers every other property the paper defines on a
//     run — KFork, UpdateAgreement and LRC (Definitions 4.3 and 4.4),
//     and MonotonicPrefix — with or without WithStreaming.
//
// A minimal run:
//
//	res, err := btsim.Run("bitcoin",
//		btsim.WithN(4), btsim.WithRounds(300), btsim.WithSeed(42),
//		btsim.WithDifficulty(10))
//	if err != nil { ... }
//	sc, ec := res.Check()
//	fmt.Println(res, sc, ec)
//
// Adding a new system to the whole stack — scenarios, experiments,
// Table 1, the cmd tools, live deployment — is one package exporting a
// definition and a simulated runner, plus one row in btsim/systems.
package btsim

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/adversary"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/protocols"
)

// Info describes a registered system: the paper's claims, which the
// checkers then measure rather than assume.
type Info struct {
	// Name is the registry key, lower-case ("bitcoin", "fabric", ...).
	Name string
	// Section is the paper section the mapping comes from ("5.1"…);
	// Systems() lists in section order.
	Section string
	// Oracle is the claimed oracle family ("ΘP", "ΘF,k=1", ...).
	Oracle string
	// K is the claimed oracle fork bound: 0 means unbounded (the
	// prodigal oracle ΘP), k ≥ 1 means the frugal oracle ΘF,k.
	K int
	// Criterion is the paper's Table 1 consistency class for the
	// system: "EC", "SC" or "SC w.h.p.".
	Criterion string
	// Synopsis is a one-line description for listings.
	Synopsis string
	// Adversaries are the strategies the system wires: WithAdversary
	// takes no other.
	Adversaries []adversary.Strategy
}

// System is one runnable protocol simulator.
type System interface {
	// Name returns the registry key.
	Name() string
	// Info returns the system descriptor (oracle family, claimed
	// criterion, paper section).
	Info() Info
	// Run executes one deterministic simulation under the given
	// configuration and returns the fully recorded result.
	Run(cfg Config) (*Result, error)
}

// RunFunc is the adapter a system is registered with: it lowers the
// public Config onto the system's own knobs and executes the run. pc is
// cfg lowered by Config.Base, with the run's monitor, metrics and
// Progress hooks attached; an adapter builds its system's config from
// pc and reads cfg only for what Base leaves out (Drop, Live).
type RunFunc func(cfg Config, pc protocols.Config) (*Result, error)

// sysFunc is the System implementation NewSystem returns.
type sysFunc struct {
	info Info
	run  RunFunc
}

func (s *sysFunc) Name() string { return s.info.Name }
func (s *sysFunc) Info() Info   { return s.info }

func (s *sysFunc) Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("btsim: %s: %w", s.info.Name, err)
	}
	if a := cfg.Adversary.Strategy; a != "" && !slices.Contains(s.info.Adversaries, a) {
		return nil, fmt.Errorf("btsim: %s wires no %q adversary (WithAdversary; it wires %v)", s.info.Name, a, s.info.Adversaries)
	}
	// Keep the first liveKeep witnesses under either driver (live or
	// streamed, on the goroutine the monitor runs on, which the run joins
	// before it returns).
	var live []consistency.Witness
	onWitness := cfg.OnWitness
	cfg.OnWitness = func(w consistency.Witness) {
		if len(live) < liveKeep {
			live = append(live, w)
		}
		if onWitness != nil {
			onWitness(w)
		}
	}
	pc := cfg.Base()
	// Every run is judged by the monitor that watched it. A live run owns
	// its monitor: the monitor options reach it through Base. The
	// observer, metrics and trace are simulation-only knobs.
	var mr *monitorRun
	var or *obsRun
	if !cfg.Live {
		mr = &monitorRun{
			k:         cfg.MonitorK,
			streaming: cfg.Streaming,
			segSize:   cfg.StreamSegment,
			onWitness: cfg.OnWitness,
		}
		if cfg.Metrics || cfg.TraceW != nil {
			or = newObsRun(&cfg)
			mr.obs = or
			pc.Metrics, pc.Trace = or.reg, or.tr
		}
		pc.Stream = func(rec *history.Recorder, score core.Score) {
			mr.bind(rec, score)
			if or != nil {
				or.bind(mr)
			}
		}
		if obs := cfg.Observer; obs != nil {
			// Progress reports the effective round count (an unset one is
			// the shared default), so observers can guard on p.Round <
			// p.Rounds and compute percentages.
			rounds := cmp.Or(cfg.Rounds, protocols.DefaultRounds)
			pc.Observer = func(round int, now int64) bool {
				return obs(Progress{
					System: s.info.Name, Round: round, Rounds: rounds,
					VirtualTime: now, LiveWitnesses: mr.seen,
				})
			}
		}
	}
	res, err := s.run(cfg, pc)
	if err != nil {
		return nil, fmt.Errorf("btsim: %s: %w", s.info.Name, err)
	}
	res.Info = s.info
	if lr := res.Live; lr != nil {
		if res.Metrics == nil {
			res.Metrics = lr.Metrics
		}
		// The deployment's monitor is the run's online monitor: its
		// outcome goes where a simulated run's goes.
		res.Stream = &StreamOutcome{Outcome: lr.Outcome, Ops: lr.MonitorStats.Ops}
	}
	if mr != nil {
		mr.finish(res)
	}
	if res.Stream != nil {
		if err := res.Stream.MonitorErr; err != nil {
			return nil, fmt.Errorf("btsim: %s: the online monitor failed: %w", s.info.Name, err)
		}
		res.Stream.Live = live
	}
	if or != nil {
		if err := or.finish(res); err != nil {
			return res, fmt.Errorf("btsim: %s: %w", s.info.Name, err)
		}
	}
	return res, nil
}

// NewSystem builds a System from a descriptor and a run adapter (the
// registration table in btsim/systems does, once per row). The returned
// system validates the Config before invoking run and stamps the Info
// onto the Result after it.
func NewSystem(info Info, run RunFunc) System {
	return &sysFunc{info: info, run: run}
}

// Run looks up a registered system by name and runs it — the one-call
// entry point. Unknown names return an error listing the registered
// options.
func Run(system string, opts ...Option) (*Result, error) {
	sys, err := Get(system)
	if err != nil {
		return nil, err
	}
	return sys.Run(NewConfig(opts...))
}

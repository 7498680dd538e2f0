package protocols

import (
	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/replica"
	"repro/internal/simnet"
	"repro/internal/tape"
)

// Harness is one simulated run of a Definition in progress: the
// simulator, the replica group with every common Config knob applied,
// the run's oracle and its stats map. A runner adds its production
// schedule on top (LotteryRounds, or its own message-level protocol),
// schedules reads with ReadsEvery and returns Finish().
type Harness struct {
	Def    *Definition
	Sim    *simnet.Sim
	Group  *replica.Group
	Oracle *oracle.Frugal
	// Merits is the normalized α_p column (Σ α_p = 1).
	Merits []tape.Merit
	// Stats carries protocol-specific counters into the Result.
	Stats map[string]int

	cfg      *Config
	recovery *replica.RecoveryStats
	// lottery is set by LotteryRounds: Finish then exports the oracle
	// counters under the flooding systems' stat names.
	lottery bool
	// The adversarial strategy a runner actually wired (advID -1 and
	// both nil on a benign run, and on a system that has no use for
	// cfg.Adversary).
	advID   int
	selfish *adversary.SelfishMiner
	equiv   *adversary.Equivocator
}

// Start builds the simulated run: a replica group of cfg.N processes
// running the definition's selector and predicate over a synchronous
// network with delay bound cfg.Delta, with the common knobs applied once
// for every system — stream sinks bound before the first operation,
// message loss, FIFO, the partition schedule, the trace, the crash
// windows armed on the processes' ports with crash recovery wired
// (before any runner schedules, so each edge precedes its same-time
// deliveries), then metrics. cfg is normalized in place, a zero Delta
// becoming the definition's, and stays the runner's: Tick latches on it.
func (d *Definition) Start(cfg *Config) *Harness {
	merits := cfg.Norm()
	if cfg.Delta <= 0 {
		cfg.Delta = d.Delta
	}
	sim := simnet.NewSim(cfg.Seed)
	group := replica.NewGroup(sim, cfg.N, simnet.Synchronous{Delta: cfg.Delta}, d.Selector)
	if cfg.Stream != nil {
		cfg.Stream(group.Rec, d.Score)
	}
	if cfg.Drop != nil {
		group.Net.SetDrop(cfg.Drop)
	}
	group.Net.SetFIFO(d.FIFO)

	if cfg.Faults != nil || cfg.Adversary.Active() || len(cfg.Crashes) > 0 {
		group.Net.RecordFaults(true)
	}
	if cfg.Faults != nil {
		group.Net.SetSchedule(cfg.Faults)
	}
	if cfg.Trace != nil {
		sim.SetTrace(cfg.Trace)
	}
	var recovery *replica.RecoveryStats
	if len(cfg.Crashes) > 0 {
		recovery = group.EnableCrashRecovery(cfg.Durable, cfg.Crashes)
	}
	if cfg.Metrics != nil {
		sim.SetMetrics(cfg.Metrics)
		group.Net.RegisterMetrics(cfg.Metrics)
		group.RegisterMetrics(cfg.Metrics)
		group.Rec.RegisterMetrics(cfg.Metrics)
	}
	group.SetPredicate(d.Predicate)
	return &Harness{
		Def: d, cfg: cfg, Sim: sim, Group: group, Merits: merits,
		Oracle: d.Oracle(cfg.Seed), Stats: map[string]int{},
		recovery: recovery, advID: -1,
	}
}

// Merit is proc's α in this run: the definition's rule, or the
// normalized column.
func (h *Harness) Merit(proc int) tape.Merit { return h.Def.merit(h.Merits, proc) }

// Equivocator wires the Equivocate strategy at proc and returns it, or
// nil when the run is configured with any other strategy. A system
// whose adversary has a distinguished role (Fabric's orderer) pins proc
// itself.
func (h *Harness) Equivocator(proc int) *adversary.Equivocator {
	if h.cfg.Adversary.Strategy == adversary.Equivocate {
		h.advID = proc
		h.equiv = adversary.NewEquivocator(h.Group.Procs[proc], h.Group.Net, h.cfg.Adversary)
	}
	return h.equiv
}

// LotteryRounds schedules the production of the flooding systems: at
// every tick each process that is up makes one Mint attempt on its
// selected head; a granted block is appended locally then flooded
// (update_i + send_i). One process may run a selfish-mining /
// withholding / equivocation strategy instead; its reads are excluded
// from the criteria (it is Byzantine), and what the checkers then
// measure is the damage inflicted on the correct processes.
func (h *Harness) LotteryRounds() {
	h.lottery = true
	adv := h.cfg.Adversary
	switch adv.Strategy {
	case adversary.Selfish, adversary.Withhold:
		h.advID = adv.ProcID(h.cfg.N)
		h.selfish = adversary.NewSelfishMiner(h.Group.Procs[h.advID], h.Group.Net, adv)
	case adversary.Equivocate:
		h.Equivocator(adv.ProcID(h.cfg.N))
	}
	h.Sim.Every(1, 1, h.cfg.Rounds, func(round int) {
		if !h.cfg.Tick(round, h.Sim.Now()) {
			return
		}
		for _, p := range h.Group.Procs {
			h.mineTick(p, func(parent *core.Block) *core.Block {
				b := h.Def.Mint(h.Oracle, h.Merit(p.ID), parent, p.ID, round, CoinbasePayload(p.ID, round))
				if b != nil {
					h.Stats["mined"]++
				}
				return b
			})
		}
	})
}

// mineTick runs process p's tick under the wired strategy: the selfish
// miner steps on its private tip, the equivocator floods forged
// siblings of its mined block, and every other process appends
// honestly.
func (h *Harness) mineTick(p *replica.Process, mint adversary.Mint) {
	if p.Down() {
		return // a crashed process does not even run the lottery
	}
	if h.selfish != nil && p.ID == h.advID {
		h.selfish.Step(mint)
		return
	}
	b := mint(p.SelectedHead())
	if b == nil {
		return
	}
	if h.equiv != nil && p.ID == h.advID {
		h.equiv.FloodSiblings(b)
		return
	}
	p.AppendLocal(b)
}

// ReadsEvery schedules a read() at every process from cfg.ReadEvery on,
// each step units of virtual time, up to until.
func (h *Harness) ReadsEvery(step, until int64) {
	first := h.cfg.ReadEvery
	if first > until {
		return
	}
	h.Sim.Every(first, step, int((until-first)/step)+1, func(int) { h.Group.ReadAll() })
}

// Finish drains the run and returns its Result: in-flight messages are
// delivered, a withholding adversary's private branch (the Withhold
// strategy or ReleaseAtEnd) is published and left to propagate — one
// maximal reorg — and every process takes the two final convergent
// reads. The run is labelled with the strategy a runner wired, "—" when
// none did, whatever cfg.Adversary asked for. The Result takes the
// processes' trees themselves: the run is over once Finish returns.
func (h *Harness) Finish() *Result {
	h.Sim.RunUntilIdle()
	adv := h.cfg.Adversary
	if h.selfish != nil && (adv.ReleaseAtEnd || adv.Strategy == adversary.Withhold) {
		h.selfish.Flush()
		h.Sim.RunUntilIdle()
	}
	h.Group.ReadAll()
	h.Group.ReadAll()

	res := h.Def.result()
	res.History = h.Group.History()
	res.Stats = h.Stats
	res.FaultEvents = h.Group.Net.FaultEvents()
	if h.advID >= 0 {
		res.AdversaryName = adv.Name()
	}
	if h.selfish != nil {
		h.Stats["withheld"] = h.selfish.Withheld
		h.Stats["releases"] = h.selfish.Releases
		h.Stats["abandoned"] = h.selfish.Abandoned
	}
	if h.equiv != nil {
		h.Stats["forged"] = h.equiv.Forged
	}
	if h.lottery {
		gets, grants, consumed, rejected := h.Oracle.Stats()
		h.Stats["getToken"] = gets
		h.Stats["grants"] = grants
		h.Stats["consumed"] = consumed
		h.Stats["rejected"] = rejected
	}
	res.exportRecovery(h.recovery)
	for _, p := range h.Group.Procs {
		res.Trees = append(res.Trees, p.Tree())
	}
	res.computeForkMax()
	return res
}

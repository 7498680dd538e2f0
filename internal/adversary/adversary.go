// Package adversary implements the adversarial strategies that turn the
// consistency checkers into a two-sided instrument. Every simulation the
// repository ran before this package was benign, so the checkers had only
// ever said "holds"; the strategies here drive the existing
// simnet/replica substrate into the executions the paper's hierarchy
// predicts are *impossible* to keep consistent, and the checkers measure
// the violation with a concrete counterexample witness:
//
//   - SelfishMiner: the withhold-and-release attack. A miner keeps its
//     blocks private (replica.Process.Mute) and floods the private chain
//     only when the honest chain threatens to catch up, forcing reorgs —
//     Strong Prefix violations observed by honest reads.
//   - Equivocator: fork flooding / token reuse. A Byzantine process
//     chains several sibling blocks under one parent (reusing the same
//     oracle token name) and floods them all — under a frugal oracle
//     Θ_F,k this is exactly a k-Fork Coherence violation, and under the
//     prodigal oracle it widens the fork window the Eventual/Strong
//     Prefix checkers watch.
//
// Network-level faults (partitions, eclipses, GST shifts) are not
// strategies of a process but of the environment: they live in
// internal/simnet's fault schedules (simnet.Schedule) and compose freely
// with the process-level strategies here via internal/scenario.
package adversary

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/simnet"
)

// Strategy names the process-level adversarial behaviours.
type Strategy string

// The built-in strategies. None is the benign zero value.
const (
	None Strategy = ""
	// Selfish is withhold-and-release selfish mining: mine privately,
	// publish when the honest chain gets within Lead of the private tip.
	Selfish Strategy = "selfish"
	// Withhold is pure block withholding: mine privately and publish
	// only at the end of the run (ReleaseAtEnd), the maximal-reorg
	// variant of Selfish.
	Withhold Strategy = "withhold"
	// Equivocate is fork flooding: every block the adversary produces
	// is accompanied by Forks-1 forged siblings under the same parent
	// carrying the same token name.
	Equivocate Strategy = "equivocate"
)

// Config declares an adversarial strategy for one process of a run. The
// zero value is benign. Protocol simulators that support adversaries
// embed it in their configs; internal/scenario builds it declaratively.
type Config struct {
	Strategy Strategy
	// Proc is the adversarial process id; 0 (the zero value) or an
	// out-of-range id means the last process, N-1. Protocols with a
	// distinguished process-0 role (fabric's orderer) pin the id
	// themselves.
	Proc int
	// Lead is the selfish-mining release threshold: publish the private
	// chain when the honest height reaches privateTip - Lead. 0 means 1
	// (the classic "honest is one behind" trigger).
	Lead int
	// Forks is the equivocation width: total sibling blocks flooded per
	// block-production opportunity. 0 means 2.
	Forks int
	// ReleaseAtEnd flushes any still-withheld private chain after the
	// last round (before the final read batch), turning withholding
	// into a maximal late reorg.
	ReleaseAtEnd bool
}

// Active reports whether an adversarial strategy is configured.
func (c Config) Active() bool { return c.Strategy != None }

// ProcID resolves the adversarial process id for an n-process run.
func (c Config) ProcID(n int) int {
	if c.Proc > 0 && c.Proc < n {
		return c.Proc
	}
	return n - 1
}

// Name renders the strategy for scenario matrices, e.g. "selfish(lead=1)".
func (c Config) Name() string {
	switch c.Strategy {
	case None:
		return "—"
	case Selfish:
		return fmt.Sprintf("selfish(lead=%d)", c.lead())
	case Withhold:
		return "withhold(release-at-end)"
	case Equivocate:
		return fmt.Sprintf("equivocate(forks=%d)", c.forks())
	default:
		return string(c.Strategy)
	}
}

func (c Config) lead() int {
	if c.Lead <= 0 {
		return 1
	}
	return c.Lead
}

func (c Config) forks() int {
	if c.Forks < 2 {
		return 2
	}
	return c.Forks
}

// Mint is the one protocol hook a strategy needs: attempt to produce a
// validated block chained to parent (the oracle lottery — getToken +
// consumeToken), returning nil when the attempt fails. The protocol
// keeps full control of merits, oracles and payloads.
type Mint func(parent *core.Block) *core.Block

// note records a strategy decision on the network's fault log (shown by
// cmd/historyviz and scenario reports).
func note(nw *simnet.Network, kind string, proc int, detail string) {
	nw.NoteFault(simnet.FaultEvent{Kind: kind, From: proc, To: -1, Detail: detail})
}

// markFaulty is shared wiring: the adversarial process is Byzantine, so
// its own reads are excluded from the criteria (Definition 4.2) — the
// violations the checkers measure are those inflicted on *correct*
// processes.
func markFaulty(p *replica.Process) {
	p.Rec.MarkFaulty(p.ID)
}

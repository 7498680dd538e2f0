// Package systems is the registration table of the built-in protocol
// simulators — the seven blockchain systems of the paper's Section 5.
// Import it for side effects:
//
//	import _ "repro/btsim/systems"
//
// After the import, btsim.Systems() lists all seven and btsim.Run can
// execute any of them by name.
//
// A system is stated once, as a protocols.Definition (oracle, selector,
// score, predicate, the paper's claims) built by its package from the
// one internal knob set, protocols.Config. A row of the table (init,
// below) adds what only the registry knows — name, paper section,
// synopsis — and how the config btsim.System.Run lowers reaches it:
// every row takes that lowered protocols.Config, and the bitcoin and
// ethereum rows alone also take message loss (lossy). register
// derives the rest: Info.Oracle, Info.Criterion and Info.K are read off
// the definition, and the one sim/live dispatch of the module runs
// either the package's simulated runner or protocols.RunLive on the same
// definition. Adding a system is one package exporting Definition and
// Run plus one row here (toy_test.go does it in a test).
package systems

import (
	"repro/btsim"
	"repro/internal/oracle"
	"repro/internal/protocols"
	"repro/internal/protocols/algorand"
	"repro/internal/protocols/bitcoin"
	"repro/internal/protocols/byzcoin"
	"repro/internal/protocols/ethereum"
	"repro/internal/protocols/fabric"
	"repro/internal/protocols/peercensus"
	"repro/internal/protocols/redbelly"
)

// register adds one row of the table to the btsim registry: def and run
// are the package's Definition and simulated runner, lower maps the
// lowered config (with the public knob set, for what Base leaves out)
// onto the config type C they take.
func register[C any](name, section, synopsis string,
	def func(C) *protocols.Definition, run func(C) *protocols.Result, lower func(btsim.Config, protocols.Config) C) {
	d := def(lower(btsim.Config{}, protocols.Config{}))
	k := d.Oracle(0).MaxForks()
	if k == oracle.Unbounded {
		k = 0 // Info.K's spelling of the prodigal oracle
	}
	info := btsim.Info{
		Name: name, Section: section, Synopsis: synopsis,
		Oracle: d.OracleClaim, K: k, Criterion: d.PaperCriterion,
	}
	btsim.Register(btsim.NewSystem(info, func(cfg btsim.Config, pc protocols.Config) (*btsim.Result, error) {
		c := lower(cfg, pc)
		if !cfg.Live {
			return &btsim.Result{Result: run(c)}, nil
		}
		res, lr, err := protocols.RunLive(pc, def(c))
		if err != nil {
			return nil, err
		}
		return &btsim.Result{Result: res, Live: lr}, nil
	}))
}

// lowered is the row of a system that takes the lowered config as it is.
func lowered(_ btsim.Config, pc protocols.Config) protocols.Config { return pc }

// lossy adds the message loss Base leaves out: only the bitcoin and
// ethereum rows take it.
func lossy(c btsim.Config, pc protocols.Config) protocols.Config {
	pc.Drop = c.DropRule()
	return pc
}

func init() {
	register("bitcoin", "5.1", "permissionless PoW, flooding, longest-chain selection",
		bitcoin.Definition, bitcoin.Run, lossy)
	register("ethereum", "5.2", "fast-block PoW, flooding, GHOST heaviest-subtree selection",
		ethereum.Definition, ethereum.Run, lossy)
	register("byzcoin", "5.3", "PoW-elected leader, PBFT commit of one key block per height",
		byzcoin.Definition, byzcoin.Run, lowered)
	register("algorand", "5.4", "stake-weighted sortition, BA* committee agreement per round",
		algorand.Definition, algorand.Run, lowered)
	register("peercensus", "5.5", "PoW identities, committee consensus anchored on prior creators",
		peercensus.Definition, peercensus.Run, lowered)
	register("redbelly", "5.6", "consortium proposers, Byzantine consensus decides each height",
		redbelly.Definition, redbelly.Run, lowered)
	register("fabric", "5.7", "permissioned: endorsement, ordering service, block cutting",
		fabric.Definition, fabric.Run, func(_ btsim.Config, pc protocols.Config) fabric.Config { return fabric.Config{Config: pc} })
}

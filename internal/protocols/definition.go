package protocols

import (
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/tape"
	"repro/internal/transport"
)

// Definition is one executable Table 1 row: the tuple the paper maps a
// system onto — oracle Θ, selection function f, score, predicate P —
// the criterion Table 1 claims for it, and the three facts a driver
// needs to produce blocks with it. It is the only place a system's row
// is written: Start runs it on the simulated network, Profile deploys
// it, and the registration table reads Info.Oracle/Criterion off it.
// A Definition is a description, not a configuration surface; each
// protocol package builds one from its own Config.
type Definition struct {
	// System names the protocol ("Bitcoin", ...).
	System string
	// Selector and Score are f and the score the replicas and the
	// checkers both use; Predicate is the validity predicate P.
	Selector  core.Selector
	Score     core.Score
	Predicate core.Predicate
	// OracleClaim is the oracle the paper maps the system to ("ΘP",
	// "ΘF,k=1"); PaperCriterion is Table 1's consistency class ("EC",
	// "SC", "SC w.h.p."). Runs measure both rather than assume them.
	OracleClaim    string
	PaperCriterion string
	// Oracle builds the run's Θ from the run seed.
	Oracle func(seed uint64) *oracle.Frugal
	// MineCap is the getToken discipline: 0 is one lottery draw per
	// attempt (a miss is a lost tick, the PoW miners); > 0 repeats
	// getToken until it grants, at most MineCap times — the τ_b ∘ τ_a*
	// step of Definition 3.7, for systems whose proposer is chosen
	// before it validates its block.
	MineCap int
	// Sequencer says one process consumes the token of each height
	// (Fabric's orderer, the BFT-chain leader, Algorand's proposer).
	// Live, the agreement collapses onto node 0: every append routes
	// through it and the parent's height is the oracle round. This is
	// sound because the frugal oracle with k = 1 admits one block per
	// height whoever asks — the consumed token is the decision.
	Sequencer bool
	// FIFO asks for reliable FIFO channels (Sections 5.1/5.2).
	FIFO bool
	// MeritOf overrides the run's normalized merit column (nil keeps
	// it): Red Belly's consortium rule, Fabric's merit-free cut.
	MeritOf func(proc int) tape.Merit
}

// merit is proc's α under the definition.
func (d *Definition) merit(merits []tape.Merit, proc int) tape.Merit {
	if d.MeritOf != nil {
		return d.MeritOf(proc)
	}
	return merits[proc]
}

// Token is the getToken step of an append by proc on parent. It returns
// the validated block (nil when no token was granted) and the number of
// oracle draws made. Under MineCap a process without merit is outside M
// and draws nothing.
func (d *Definition) Token(orc *oracle.Frugal, m tape.Merit, parent *core.Block, proc, round int, payload []byte) (*core.Block, int) {
	if d.MineCap == 0 {
		b, _ := orc.GetToken(m, parent, proc, round, payload)
		return b, 1
	}
	if m <= 0 {
		return nil, 0
	}
	return oracle.MineToken(orc, m, parent, proc, round, payload, d.MineCap)
}

// Mint is getToken followed by consumeToken: the block a successful
// append chains to parent, or nil when the lottery was lost or the
// oracle refused the token (k already consumed for parent).
func (d *Definition) Mint(orc *oracle.Frugal, m tape.Merit, parent *core.Block, proc, round int, payload []byte) *core.Block {
	b, _ := d.Token(orc, m, parent, proc, round, payload)
	if b == nil {
		return nil
	}
	if _, consumed := orc.ConsumeToken(b); !consumed {
		return nil
	}
	return b
}

// Profile lowers the definition onto the live driver: the same oracle,
// selector, score and predicate the simulation runs, with Mint as the
// block source. N, Seed and Merits come from cfg. The globally unique
// attempt sequence stands in for the mining round, except under
// Sequencer, where the round is the height. The oracle is mutex-guarded,
// so concurrent mints from sprayed append targets are safe.
func (d *Definition) Profile(cfg Config) transport.Profile {
	merits := cfg.Norm()
	orc := d.Oracle(cfg.Seed)
	return transport.Profile{
		System:    d.System,
		Selector:  d.Selector,
		Score:     d.Score,
		Predicate: d.Predicate,
		Sequencer: d.Sequencer,
		Mint: func(proc int, parent *core.Block, seq int) *core.Block {
			round := seq
			if d.Sequencer {
				round = parent.Height
			}
			return d.Mint(orc, d.merit(merits, proc), parent, proc, round, CoinbasePayload(proc, seq))
		},
	}
}

// RunLive executes the defined system as a live deployment — N
// concurrent nodes over a real carrier, client load, online monitor —
// and lowers the outcome into the same Result shape Finish returns, so
// the classifier, renderers and scenario layers work on a live run
// unchanged. The companion LiveResult carries what only a deployment
// measures: throughput, latency quantiles, the finalized online
// verdicts and the carrier counters.
//
// N, Seed, the normalized merit column and the crash schedule with its
// recovery discipline come from cfg (the common knob set); cfg.Live
// supplies the deployment shape (carrier, load).
func RunLive(cfg Config, def *Definition) (*Result, *transport.LiveResult, error) {
	merits := cfg.Norm()
	lc := *cfg.Live
	lc.N = cfg.N
	lc.Seed = cfg.Seed
	lc.Merits = merits
	lc.Crashes, lc.Durable = cfg.Crashes, cfg.Durable

	lr, err := transport.Run(lc, def.Profile(cfg))
	if err != nil {
		return nil, nil, err
	}
	res := def.result()
	res.History = lr.History
	res.Trees = lr.Trees
	res.Stats = map[string]int{
		"liveAttempts": int(lr.Attempts),
		"liveAppends":  int(lr.AppendsOK),
		"liveReads":    int(lr.Reads),
	}
	res.exportRecovery(lr.Recovery)
	res.computeForkMax()
	return res, lr, nil
}

// result starts a run's Result with the definition's row.
func (d *Definition) result() *Result {
	return &Result{
		System:         d.System,
		Selector:       d.Selector,
		Score:          d.Score,
		OracleClaim:    d.OracleClaim,
		PaperCriterion: d.PaperCriterion,
		AdversaryName:  "—",
	}
}

// Package consensus provides the agreement substrate used by the
// strong-prefix protocol family of Section 5 (ByzCoin, PeerCensus, Red
// Belly, Hyperledger Fabric): a PBFT-style three-phase Byzantine
// consensus engine (pre-prepare / prepare / commit, tolerating f < n/3
// Byzantine processes, with view change on leader timeout) and a
// sequencer-based total-order broadcast, both written once over one
// replica.Net per process — its messages and timers — so they run on the
// simulated network and on live transport nodes alike. A crashed process
// is one its carrier reports down (and drops the traffic of).
//
// In the paper's terms this substrate is what implements the frugal
// oracle with k = 1: exactly one proposed block per height has its token
// consumed — the decided one — so the replicated BlockTree never forks
// and Strong Prefix holds (Corollary 4.8.2: consensus is necessary for
// BT Strong Consistency, and this is the sufficient half in practice).
package consensus

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/simnet"
)

// Message kinds of the PBFT engine.
type (
	// PrePrepare is the leader's proposal for a height/view.
	PrePrepare struct {
		Height, View int
		Block        *core.Block
	}
	// Prepare echoes the proposal digest.
	Prepare struct {
		Height, View int
		ID           core.BlockID
	}
	// Commit votes to decide the digest.
	Commit struct {
		Height, View int
		ID           core.BlockID
	}
	// ViewChange asks to replace the current leader at a height.
	ViewChange struct {
		Height, NewView int
	}
)

// Behavior configures per-process fault injection.
type Behavior int

// The fault behaviors supported by the engine.
const (
	// Honest follows the protocol.
	Honest Behavior = iota
	// EquivocatingLeader proposes two different blocks to the two
	// halves of the process set when it leads.
	EquivocatingLeader
)

// Config parameterizes an Engine.
type Config struct {
	// Timeout is the view-change timeout in ticks of the carrier's timer.
	Timeout int64
	// Behaviors maps process → fault behavior (nil: all honest).
	Behaviors map[int]Behavior
	// OnDecide runs at each process when it decides a height. The
	// engine guarantees agreement: all correct processes receive the
	// same block per height.
	OnDecide func(proc, height int, b *core.Block)
	// Propose supplies process p's proposal for a height when p leads
	// (required).
	Propose func(proc, height int) *core.Block
	// LeaderFn, if non-nil, overrides the round-robin leader policy:
	// it returns the leader of (height, view). ByzCoin uses the PoW
	// winner, PeerCensus the creator of the previous key block, Red
	// Belly a rotation within the consortium set M.
	LeaderFn func(height, view int) int
	// MaxViews bounds view changes per height (default 16): when a
	// quorum is unreachable (more than f faults) the processes stop
	// re-arming their timers after this many views, so a simulation
	// run always terminates. Safety is unaffected — the bound only
	// concedes liveness, which is unattainable in that regime anyway.
	MaxViews int
}

// Engine runs an unbounded sequence of PBFT instances (one per height)
// over n processes, tolerating f < n/3. Heights are started explicitly
// with Start.
type Engine struct {
	cfg   Config
	nodes []*node
	f     int
}

// node is the per-process PBFT state machine; it touches only its own
// state and sends only as itself, on its own carrier.
type node struct {
	eng  *Engine
	id   int
	nw   replica.Net
	beh  Behavior
	inst map[int]*instance // height → state
}

// instance is one height's state at one node.
type instance struct {
	view        int
	proposal    *core.Block
	prepares    map[int]map[core.BlockID]map[int]bool // view → id → senders
	commits     map[int]map[core.BlockID]map[int]bool
	viewchanges map[int]map[int]bool // newView → senders
	prepared    bool
	committed   bool
	committedID core.BlockID
	decided     bool
	timerView   int
	timeouts    int
	blocks      map[core.BlockID]*core.Block
}

func newInstance() *instance {
	return &instance{
		prepares:    make(map[int]map[core.BlockID]map[int]bool),
		commits:     make(map[int]map[core.BlockID]map[int]bool),
		viewchanges: make(map[int]map[int]bool),
		blocks:      make(map[core.BlockID]*core.Block),
	}
}

// NewEngine builds the engine over one carrier per process: process p
// registers its handler on, sends on and arms its timers on nets[p].
func NewEngine(nets []replica.Net, cfg Config) (*Engine, error) {
	if cfg.Propose == nil {
		return nil, fmt.Errorf("consensus: Propose callback required")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 50
	}
	if cfg.MaxViews <= 0 {
		cfg.MaxViews = 16
	}
	e := &Engine{cfg: cfg, f: (len(nets) - 1) / 3}
	for i, nw := range nets {
		nd := &node{eng: e, id: i, nw: nw, beh: cfg.Behaviors[i], inst: make(map[int]*instance)}
		e.nodes = append(e.nodes, nd)
		nw.AddHandler(nd.onMessage)
	}
	return e, nil
}

// Leader returns the leader of (height, view): the configured policy, or
// round-robin by default.
func (e *Engine) Leader(height, view int) int {
	if e.cfg.LeaderFn != nil {
		return e.cfg.LeaderFn(height, view) % len(e.nodes)
	}
	return (height + view) % len(e.nodes)
}

// Quorum returns the 2f+1 quorum size.
func (e *Engine) Quorum() int { return 2*e.f + 1 }

// Start launches the instance for height at process p: p arms its
// view-change timer and proposes if it leads. Call it for every process,
// on the event loop that runs p's handlers.
func (e *Engine) Start(p, height int) { e.nodes[p].start(height) }

func (nd *node) get(h int) *instance {
	in, ok := nd.inst[h]
	if !ok {
		in = newInstance()
		nd.inst[h] = in
	}
	return in
}

func (nd *node) start(height int) {
	in := nd.get(height)
	nd.armTimer(height, in.view)
	leader := nd.eng.Leader(height, in.view)
	if leader == nd.id {
		nd.lead(height, in.view)
	}
}

func (nd *node) lead(height, view int) {
	b := nd.eng.cfg.Propose(nd.id, height)
	if b == nil {
		return
	}
	if nd.beh == EquivocatingLeader {
		// Two conflicting proposals, one per half. Safety must
		// still hold (no two correct processes decide differently);
		// liveness recovers via view change.
		alt := core.NewBlock(b.Parent, b.Height, nd.id, b.Round+1_000_000, b.Payload)
		alt = alt.WithToken(b.Token)
		for to := range nd.eng.nodes {
			prop := b
			if to%2 == 1 {
				prop = alt
			}
			nd.nw.Send(to, PrePrepare{Height: height, View: view, Block: prop})
		}
		return
	}
	nd.nw.Broadcast(PrePrepare{Height: height, View: view, Block: b})
}

func (nd *node) armTimer(height, view int) {
	in := nd.get(height)
	in.timerView = view
	nd.nw.After(nd.eng.cfg.Timeout, func() {
		nd.onTimeout(height, view)
	})
}

func (nd *node) onTimeout(height, view int) {
	in := nd.get(height)
	if in.decided || in.view != view {
		return
	}
	in.timeouts++
	if in.timeouts > nd.eng.cfg.MaxViews {
		return // give up on liveness for this height (quorum unreachable)
	}
	// Ask to move to view+1.
	nd.nw.Broadcast(ViewChange{Height: height, NewView: view + 1})
	nd.armTimer(height, view)
}

func (nd *node) onMessage(m simnet.Message) {
	switch msg := m.Payload.(type) {
	case PrePrepare:
		nd.onPrePrepare(m.From, msg)
	case Prepare:
		nd.onVote(m.From, msg.Height, msg.View, msg.ID, true)
	case Commit:
		nd.onVote(m.From, msg.Height, msg.View, msg.ID, false)
	case ViewChange:
		nd.onViewChange(m.From, msg)
	}
}

func (nd *node) onPrePrepare(from int, msg PrePrepare) {
	in := nd.get(msg.Height)
	if in.decided || msg.View != in.view || from != nd.eng.Leader(msg.Height, msg.View) {
		return
	}
	if msg.Block == nil {
		return
	}
	if in.proposal != nil && in.proposal.ID != msg.Block.ID {
		// Equivocation observed at this node: keep the first.
		return
	}
	in.proposal = msg.Block
	in.blocks[msg.Block.ID] = msg.Block
	// A commit quorum may have been reached before the proposal body
	// arrived here; complete the deferred decision now.
	if in.committed && !in.decided && in.committedID == msg.Block.ID {
		nd.decide(msg.Height, msg.Block.ID)
		return
	}
	nd.nw.Broadcast(Prepare{Height: msg.Height, View: msg.View, ID: msg.Block.ID})
}

func votes(m map[int]map[core.BlockID]map[int]bool, view int, id core.BlockID) map[int]bool {
	vm, ok := m[view]
	if !ok {
		vm = make(map[core.BlockID]map[int]bool)
		m[view] = vm
	}
	sm, ok := vm[id]
	if !ok {
		sm = make(map[int]bool)
		vm[id] = sm
	}
	return sm
}

func (nd *node) onVote(from, height, view int, id core.BlockID, prepare bool) {
	in := nd.get(height)
	if in.decided || view != in.view {
		return
	}
	if prepare {
		sm := votes(in.prepares, view, id)
		sm[from] = true
		if !in.prepared && len(sm) >= nd.eng.Quorum() {
			in.prepared = true
			nd.nw.Broadcast(Commit{Height: height, View: view, ID: id})
		}
		return
	}
	sm := votes(in.commits, view, id)
	sm[from] = true
	if !in.committed && len(sm) >= nd.eng.Quorum() {
		in.committed = true
		in.committedID = id
		nd.decide(height, id)
	}
}

func (nd *node) decide(height int, id core.BlockID) {
	in := nd.get(height)
	if in.decided {
		return
	}
	b := in.blocks[id]
	if b == nil && in.proposal != nil && in.proposal.ID == id {
		b = in.proposal
	}
	if b == nil {
		// Digest decided before the proposal arrived here; wait for
		// re-delivery. Buffer by deferring the decision: mark via
		// committed and retry on the proposal's arrival. For the
		// simulator's reliable channels the proposal always
		// precedes the quorum at the leader's recipients, so this
		// path is (deliberately) conservative.
		return
	}
	in.decided = true
	if cb := nd.eng.cfg.OnDecide; cb != nil {
		cb(nd.id, height, b)
	}
}

func (nd *node) onViewChange(from int, msg ViewChange) {
	in := nd.get(msg.Height)
	if in.decided || msg.NewView <= in.view {
		return
	}
	if in.viewchanges[msg.NewView] == nil {
		in.viewchanges[msg.NewView] = make(map[int]bool)
	}
	in.viewchanges[msg.NewView][from] = true
	if len(in.viewchanges[msg.NewView]) >= nd.eng.Quorum() {
		in.view = msg.NewView
		in.prepared = false
		in.committed = false
		in.proposal = nil
		nd.armTimer(msg.Height, in.view)
		if nd.eng.Leader(msg.Height, in.view) == nd.id {
			nd.lead(msg.Height, in.view)
		}
	}
}

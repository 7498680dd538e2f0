package replica

import (
	"repro/internal/core"
	"repro/internal/simnet"
)

// This file adds an anti-entropy (inventory/repair) layer to the
// replicated BlockTree: processes periodically advertise the leaves of
// their local tree; a receiver that is missing an advertised block — or
// that buffered a block whose parent never arrived — requests it, and
// any process holding the block re-sends it point-to-point.
//
// In the paper's terms this is a constructive implementation of the
// Light Reliable Communication abstraction (Definition 4.4) on top of
// fair-lossy channels: Theorems 4.6/4.7 prove LRC is *necessary* for BT
// Eventual Consistency; anti-entropy is the standard way real systems
// (Bitcoin's inv/getdata, gossip protocols) make it *sufficient* in the
// presence of transient loss. The ExtensionAntiEntropy experiment shows
// a transiently partitioned replica catching up once repair runs, while
// the same loss pattern without repair leaves Eventual Consistency
// broken forever.

// InvMsg advertises the sender's current leaves.
type InvMsg struct {
	Leaves []core.BlockID
}

// ReqMsg asks the receiver to re-send a block by ID.
type ReqMsg struct {
	ID core.BlockID
}

// SyncMsg solicits an immediate inventory reply — the catch-up opener a
// restarted replica broadcasts (crash.go) instead of waiting for the
// next periodic advertise round.
type SyncMsg struct{}

// EnableAntiEntropy runs AntiEntropy(period, rounds) at every process.
func (g *Group) EnableAntiEntropy(period int64, rounds int) {
	for _, p := range g.Procs {
		p.AntiEntropy(period, rounds)
	}
}

// AntiEntropy is the inventory/repair loop of one process, simulated or
// live: it installs the inv/req/sync handler and advertises the leaves
// every period ticks of the process's own timer, rounds times, or until
// the carrier stops its timers when rounds ≤ 0 (a live node's Stop).
func (p *Process) AntiEntropy(period int64, rounds int) {
	p.installAntiEntropy()
	var tick func()
	tick = func() {
		p.advertise()
		if rounds--; rounds != 0 {
			p.nw.After(period, tick)
		}
	}
	p.nw.After(period, tick)
}

// installAntiEntropy registers the inv/req/sync handler for the process
// (idempotent: a second install is a no-op).
func (p *Process) installAntiEntropy() {
	if p.aeInstalled {
		return
	}
	p.aeInstalled = true
	// The inv/req/sync handlers read and repair only this process's tree
	// and reply as themselves (catch-up timers are scheduled from the
	// crash/restart edges).
	p.nw.AddHandler(func(m simnet.Message) {
		switch msg := m.Payload.(type) {
		case InvMsg:
			p.onInventory(m.From, msg)
		case ReqMsg:
			p.onRequest(m.From, msg)
		case SyncMsg:
			p.onSolicit(m.From)
		}
	})
}

// advertise broadcasts the process's current leaves. A crashed process
// advertises nothing (its periodic timer is suppressed).
func (p *Process) advertise() {
	if p.Down() {
		return
	}
	leaves := p.tree.Leaves()
	if len(leaves) == 0 {
		return
	}
	p.nw.Broadcast(InvMsg{Leaves: leaves})
}

// onSolicit answers a catch-up solicit with a point-to-point inventory
// of this process's leaves; the requester then pulls what it is missing
// through the ordinary inv/req repair path.
func (p *Process) onSolicit(from int) {
	if from == p.ID {
		return
	}
	p.nw.Send(from, InvMsg{Leaves: p.tree.Leaves()})
}

// onInventory requests every advertised block this process does not hold
// (missing ancestors are fetched transitively as the repaired blocks
// arrive and their parents turn out to be unknown).
func (p *Process) onInventory(from int, msg InvMsg) {
	if from == p.ID {
		return
	}
	for _, id := range msg.Leaves {
		if !p.tree.Has(id) {
			if p.mAEReq != nil {
				p.mAEReq.Inc(p.ID)
			}
			p.nw.Send(from, ReqMsg{ID: id})
		}
	}
	// Also repair the buffered orphans: their parents are missing.
	for parent := range p.pending {
		if !p.tree.Has(parent) {
			if p.mAEReq != nil {
				p.mAEReq.Inc(p.ID)
			}
			p.nw.Send(from, ReqMsg{ID: parent})
		}
	}
}

// onRequest re-sends a held block — and its ancestors, root-first, so a
// requester that missed a whole chain segment repairs in one round (the
// block-locator behaviour of real chain sync). The re-sends use the
// ordinary UpdateMsg path, so the receiver records the receive/update
// events the Update Agreement checker looks for.
func (p *Process) onRequest(from int, msg ReqMsg) {
	if from == p.ID || !p.tree.Has(msg.ID) {
		return
	}
	for _, b := range p.tree.ChainTo(msg.ID) {
		if b.IsGenesis() {
			continue
		}
		p.nw.Send(from, UpdateMsg{Parent: b.Parent, Block: b})
	}
}

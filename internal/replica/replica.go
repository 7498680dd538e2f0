// Package replica implements the replicated-object view of Section 4.2:
// the BlockTree is a shared object replicated at each process; bt_i is
// the local copy at process i; histories are made of read and append
// operations plus the send, receive and update events through which
// replicas converge. The generic update implementation follows the
// paper: when process i locally produces a valid block b_i it performs
// update_i(b_g, b_i) and send_i(b_g, b_i); when process j receives
// (b_g, b_i) it performs update_j(b_g, b_i) on its replica bt_j.
package replica

import (
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/metrics"
	"repro/internal/simnet"
)

// UpdateMsg is the payload flooded for an update: block b chained under
// parent b_g.
type UpdateMsg struct {
	Parent core.BlockID
	Block  *core.Block
}

// Process is one replica: a process id, its local BlockTree copy, the
// selection function, and the plumbing to the network and the history
// recorder.
type Process struct {
	ID  int
	F   core.Selector
	Rec *history.Recorder

	// P validates incoming blocks before they are applied to the
	// local replica — the replica-side half of "only valid blocks can
	// be appended": a Byzantine flooder cannot corrupt a correct
	// replica with forged blocks. Defaults to AlwaysValid.
	P core.Predicate

	nw   Net
	tree *core.Tree

	// rejected counts invalid blocks dropped by P.
	rejected int

	// pending buffers blocks whose parent has not arrived yet
	// (out-of-order delivery); keyed by the missing parent.
	pending map[core.BlockID][]*core.Block
	// pendingHas marks the buffered block IDs, so flood re-deliveries
	// of an orphan cannot inflate the buffer with duplicates.
	pendingHas map[core.BlockID]bool

	// OnCommit, if set, runs after a block is attached locally
	// (protocol layers hook their bookkeeping here).
	OnCommit func(b *core.Block)

	// aeInstalled marks the anti-entropy handler as registered, so
	// EnableAntiEntropy and EnableCrashRecovery can both install it
	// without double-processing inventories.
	aeInstalled bool

	// Mute, when true, suppresses the send half of AppendLocal: the
	// block is applied and recorded locally (update event, append op)
	// but never flooded — the withholding primitive adversarial
	// strategies (selfish mining, block withholding) are built on.
	// Publish releases a withheld block later.
	Mute bool

	// pendingN tracks the orphan-buffer size incrementally so the
	// metrics probe does not walk the pending map at every sample.
	pendingN int

	// Metric slots (nil when metrics are off; see Group.RegisterMetrics),
	// each incremented at this process's ID.
	mFlood, mOrphan, mDup, mAEReq *metrics.CounterVec
}

// NewProcess creates replica id over its port nw — a simnet.Port in
// simulation, a transport.Node in live deployments. The handler for the
// process is installed on the port; protocol layers that need their
// own messages should multiplex through SetAuxHandler. The replica's
// tree is built on rec's block index, so all replicas recording into
// one recorder share one index and every block they attach is known to
// the recorder.
func NewProcess(id int, nw Net, f core.Selector, rec *history.Recorder) *Process {
	if f == nil {
		f = core.LongestChain{}
	}
	p := &Process{
		ID:         id,
		F:          f,
		Rec:        rec,
		P:          core.AlwaysValid{},
		nw:         nw,
		tree:       core.NewTreeOn(rec.Table()),
		pending:    make(map[core.BlockID][]*core.Block),
		pendingHas: make(map[core.BlockID]bool),
	}
	nw.AddHandler(p.onMessage)
	return p
}

// Tree returns the live local replica (single-threaded simulator: the
// caller must not mutate it).
func (p *Process) Tree() *core.Tree { return p.tree }

// Read performs the BT-ADT read() on the local replica, recording the
// operation as an interned (head, length) handle: the selector's
// head-only fast path picks the head and no O(height) chain is copied.
// The recorded op materializes its chain lazily (op.Chain()) from the
// run's block index when a checker or renderer asks.
func (p *Process) Read() *history.Op {
	if p.Down() {
		return nil // a crashed process performs no operations
	}
	op := p.Rec.InvokeRead(p.ID)
	head := core.HeadOf(p.F, p.tree)
	p.Rec.RespondReadHead(op, head)
	return op
}

// SelectedHead returns the head of f(bt_i) without recording a read —
// protocol layers use it to pick the parent to mine on. It takes the
// selector's head-only fast path, so no chain is materialized.
func (p *Process) SelectedHead() *core.Block {
	return core.HeadOf(p.F, p.tree)
}

// AppendLocal performs the local half of a successful refined append at
// this process: update_i(b_g, b_i) followed by send_i(b_g, b_i)
// (flooded). It records the append operation and the update/send events.
// The block must already be validated (token stamped by the oracle or
// committed by consensus).
func (p *Process) AppendLocal(b *core.Block) bool {
	if p.Down() {
		return false // a crashed process mines and appends nothing
	}
	op := p.Rec.InvokeAppend(p.ID, b)
	ok := p.applyUpdate(b)
	p.Rec.RespondAppend(op, ok, b)
	if ok && !p.Mute {
		p.Publish(b)
	}
	return ok
}

// Publish floods a block that was applied locally while Mute was set:
// the deferred send_i(b_g, b_i) of a withhold-and-release strategy. The
// block must already be in the local replica; publishing an unknown
// block is a no-op so strategies cannot desynchronize the R1 invariant.
func (p *Process) Publish(b *core.Block) bool {
	if b == nil || !p.tree.Has(b.ID) || p.Down() {
		return false
	}
	p.Rec.RecordComm(history.EvSend, p.ID, b.Parent, b.ID)
	if p.mFlood != nil {
		p.mFlood.Inc(p.ID)
	}
	p.nw.Broadcast(UpdateMsg{Parent: b.Parent, Block: b})
	return true
}

// applyUpdate inserts b into the local replica, recording the update
// event, then flushes any buffered descendants that were waiting for
// it: the creator's own update (R1 path). A remote one (R2 path) goes
// through applyResolved, which records its receive in the same step.
func (p *Process) applyUpdate(b *core.Block) bool {
	return p.applyResolved(p.tree.Resolve(b), nil)
}

// applyResolved is applyUpdate for a block whose ID the caller already
// looked up (onMessage resolves a delivered block once). recv is the
// parent a delivery named, nil for a local update (see applyOne).
func (p *Process) applyResolved(r core.Ref, recv *core.BlockID) bool {
	b := r.Block()
	if !p.applyOne(r, recv) {
		return false
	}
	// Iterative depth-first flush of the buffered orphans: the old
	// recursive flush could exhaust the stack when a deep chain
	// segment arrived parent-last. Explicit frames preserve the
	// recursion's exact event order (a child's own descendants flush
	// before its next sibling).
	type frame struct {
		kids []*core.Block
		i    int
	}
	stack := []frame{{kids: p.takePending(b.ID)}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i >= len(f.kids) {
			stack = stack[:len(stack)-1]
			continue
		}
		child := f.kids[f.i]
		f.i++
		if p.applyOne(p.tree.Resolve(child), nil) {
			stack = append(stack, frame{kids: p.takePending(child.ID)})
		}
	}
	return true
}

// applyOne validates and attaches a single block, recording the update
// event — with the delivery's receive in one step when recv is set. It
// reports whether the block was newly attached: a block the tree
// already holds (flooding re-delivers; genesis always) is a duplicate,
// and blocks whose parent is missing are buffered (deduplicated) for the
// flush above. Everything the tree is asked, and the recorder's
// numbering of a delivery (Recorder.RecordDelivery takes r), goes by the
// handles in r — no further lookup of the block's ID or its parent's.
func (p *Process) applyOne(r core.Ref, recv *core.BlockID) bool {
	b := r.Block()
	if p.tree.Holds(r) {
		return false
	}
	// P gets the delivered object, stamp included (core.Predicate: P
	// judges content and never reads Token).
	if !p.P.Valid(b) {
		p.rejected++
		return false
	}
	if !p.tree.HoldsParent(r) {
		// Parent not yet delivered: buffer once; the update event
		// will be recorded when the parent arrives.
		if !p.pendingHas[b.ID] {
			p.pendingHas[b.ID] = true
			p.pending[b.Parent] = append(p.pending[b.Parent], b)
			p.pendingN++
			if p.mOrphan != nil {
				p.mOrphan.Inc(p.ID)
			}
		}
		return false
	}
	// The attach is also what interns b in the run's index, the one the
	// recorder's reads materialize from: only a block this replica
	// accepted.
	if err := p.tree.AttachResolved(r); err != nil {
		return false
	}
	if recv != nil {
		p.Rec.RecordDelivery(p.ID, *recv, r)
	} else {
		p.Rec.RecordComm(history.EvUpdate, p.ID, b.Parent, b.ID)
	}
	if p.OnCommit != nil {
		p.OnCommit(b)
	}
	return true
}

// takePending removes and returns the blocks buffered under parent id.
func (p *Process) takePending(id core.BlockID) []*core.Block {
	kids := p.pending[id]
	if len(kids) == 0 {
		return nil
	}
	delete(p.pending, id)
	for _, k := range kids {
		delete(p.pendingHas, k.ID)
	}
	p.pendingN -= len(kids)
	return kids
}

// onMessage handles network delivery: record receive_j(b_g, b_i), then
// update_j(b_g, b_i), one recorder step when the block attaches. A
// delivery that does not attach records its receive alone, after the
// attempt, which records nothing.
func (p *Process) onMessage(m simnet.Message) {
	um, ok := m.Payload.(UpdateMsg)
	if !ok {
		return
	}
	if um.Block == nil {
		// Nothing a correct process sends; a Byzantine one must not be
		// able to stop the run with it.
		p.rejected++
		return
	}
	r := p.tree.Resolve(um.Block)
	if p.tree.Holds(r) && m.From != p.ID {
		// Duplicate delivery via flooding: receive recorded once.
		if p.mDup != nil {
			p.mDup.Inc(p.ID)
		}
		return
	}
	// A loopback of our own send: the update was already applied in
	// AppendLocal; only the receive event matters (LRC Validity).
	if m.From == p.ID || !p.applyResolved(r, &um.Parent) {
		p.Rec.RecordComm(history.EvReceive, p.ID, um.Parent, um.Block.ID)
	}
}

// RejectedCount reports how many invalid blocks the predicate P dropped.
func (p *Process) RejectedCount() int { return p.rejected }

// PendingCount reports how many blocks are buffered waiting for parents
// (diagnostics; should be 0 at the end of a loss-free run).
func (p *Process) PendingCount() int { return p.pendingN }

// Group is a convenience bundle: n replicas over one network, each on
// its own port, with a shared recorder.
type Group struct {
	Procs []*Process
	Rec   *history.Recorder
	Net   *simnet.Network

	// Recovery holds the crash–recovery counters once
	// EnableCrashRecovery has been called (nil otherwise).
	Recovery *RecoveryStats
}

// NewGroup builds n replicas over sim with the given delay model and
// selector.
func NewGroup(sim *simnet.Sim, n int, delay simnet.DelayModel, f core.Selector) *Group {
	nw := simnet.NewNetwork(sim, n, delay)
	rec := history.NewRecorder(n, sim.Now)
	g := &Group{Rec: rec, Net: nw}
	for i := 0; i < n; i++ {
		g.Procs = append(g.Procs, NewProcess(i, nw.Port(i), f, rec))
	}
	return g
}

// Nets lists each process's port, the one its replica talks through, for
// the layers that take one Net per process (internal/consensus).
func (g *Group) Nets() []Net {
	nets := make([]Net, len(g.Procs))
	for i, p := range g.Procs {
		nets[i] = p.nw
	}
	return nets
}

// EnableSharding does nothing: the simulator has one serial scheduler.
//
// Deprecated: kept only for the benchmark module; ROADMAP 8(b)'s
// benchmark-only PR deletes it.
func (g *Group) EnableSharding(int) {}

// ReadAll has every process take one read(), in process order.
func (g *Group) ReadAll() {
	for _, p := range g.Procs {
		p.Read()
	}
}

// History snapshots the recorded history.
func (g *Group) History() *history.History { return g.Rec.Snapshot() }

// SetPredicate installs the validity predicate P at every replica.
func (g *Group) SetPredicate(p core.Predicate) {
	for _, proc := range g.Procs {
		proc.P = p
	}
}

// The Monitor: the engine that evaluates the criteria, in incremental
// form. A Monitor implements history.Sink — operations are fed to it the
// moment their response is recorded, or replayed from a retained
// History by Checker — and maintains O(tree + window) state instead of
// the whole history:
//
//   - StrongPrefix: per-chain-length run-length structure over the
//     interned chain handles, plus a live comparability probe against
//     the longest chain read so far;
//   - 1-/k-ForkCoherence: per-token append groups, flagged live the
//     moment a token is consumed a (k+1)-th time;
//   - EverGrowingTree / EventualPrefix: a sliding window of the last w
//     reads (the finitary liveness tail) with bounded per-score-class
//     candidate retention, so the windowed MCPS state never grows with
//     the run;
//   - BlockValidity / LocalMonotonicRead: incremental per-chain facts
//     and per-process previous-read state.
//
// Cost per read: O(1) amortized for interned reads under the length
// score, while the append of every block read is eventually recorded.
// The length score is the read's recorded chain length, and the Block
// Validity fact of a chain not seen before is extended from that of the
// nearest ancestor chain already read, by walking parent links in the
// chain table (extendFact), so over a run P examines each block about
// once and no chain is materialized while streaming. A block whose
// append is never recorded (a Byzantine block that bypassed append())
// makes every distinct chain through it re-walk from below that block,
// O(distance to it). An eagerly recorded chain, any other Score and a
// monitor without a table are scanned over the whole chain, O(height)
// per distinct chain. Finalize materializes chains only for Block
// Validity suspects, violations and distinct chains inside the final
// window, and never through the table's memo.
//
// Violation Witnesses are emitted through OnWitness the moment they
// form (live channel, advisory for the window properties), and
// Finalize() reports what the definitions, enumerated literally, say
// about the history fed: reads in recording (invocation) order, window
// pairs in order, the first MaxViolations counterexamples — the
// enumeration oracle_test.go spells out and the fuzz targets hold the
// monitor against. How exact the match is depends on the feed:
//
//   - Recording order — Checker's replay of a retained History, and any
//     simulated run (its completed operations are atomic, invocation and
//     response adjacent, so response order is recording order): OK
//     flags, Violations, Witnesses (details, op identities, blocks) and
//     Checked counts are identical, with one exception: when completed
//     operations overlap, EventualPrefix.Checked is reconstructed as if
//     they were atomic and may differ.
//   - Response order with overlapping operations — the live
//     deployment's AsyncSink: OK flags and the set of violated
//     properties are identical. Strong Prefix breaks ties between reads
//     of equal chain length by arrival, so the incomparable *pairs* it
//     reports may differ from those Result.Check() reports on the same
//     retained history, and the Checked counts of a full
//     EverGrowingTree report and of EventualPrefix are reconstructed
//     from arrival positions.
//
// Boundedness: retained state is O(#blocks + #distinct chains + w +
// (MaxViolations+procs)·#distinct scores + #successful appends) — all
// bounded by the block tree and the window, never by the number of
// reads, which dominate long runs.
//
// Soundness of the bounded candidate retention (the "staircase" bound):
// within one retention class (a score class for EGT/EP, a suspect chain
// for BV) the violation status is monotone in the response index — if a
// read is violated, any same-class read with an earlier-or-equal
// response is violated too. A read evicted from the first
// MaxViolations+procs (by invocation order) therefore has at least
// MaxViolations+procs earlier-invoked classmates, of which at most
// procs−1 can be non-violated when the evicted read is violated (a
// non-violated earlier-invoked classmate must respond after the evicted
// read responds, i.e. span it entirely; processes are sequential, so at
// most one op per other process spans any instant). That leaves ≥
// MaxViolations+1 violated reads strictly earlier in the enumeration
// order: the evicted read can never be among the MaxViolations reported
// witnesses.
package consistency

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/history"
)

// MonitorConfig parameterizes a Monitor.
type MonitorConfig struct {
	// Procs is the process count of the monitored run (the recorder's).
	Procs int
	// Score and P mirror Checker.Score / Checker.P (nil means length
	// score / always-valid).
	Score core.Score
	P     core.Predicate
	// Horizon overrides the liveness tail-window size; 0 means
	// max(2, Procs), as for Checker.
	Horizon int
	// K, when > 0, arms the live k-Fork Coherence probe: a witness is
	// emitted the moment a token is consumed a (K+1)-th time. Token
	// groups are tracked regardless, so KForkReport works for any k.
	K int
	// Table is the run's shared chain table: incremental scoring and
	// validity facts walk its parent links, and witness reconstruction
	// materializes chains from it without growing its memo cache. May be
	// nil for histories recorded with explicit chains (RespondRead),
	// which the monitor retains on the few ops it keeps.
	Table *history.ChainTable
	// OnWitness, when set, receives each violation witness the moment
	// it forms. It runs under the recorder's lock: keep it fast and do
	// not call back into the recorder. Live witnesses for the window
	// properties (EverGrowingTree, EventualPrefix) cannot exist — those
	// violations are defined over the final window and only form at
	// Finalize; live StrongPrefix witnesses are advisory incomparable
	// pairs (the exact witness set comes from Finalize).
	OnWitness func(Witness)
}

// opRec is the compact record of one operation the monitors retain:
// everything needed to rebuild the op for a witness, nothing that
// retains the history (the chain field is only set for reads recorded
// with an explicit chain; interned reads re-materialize from the table).
type opRec struct {
	id, proc    int
	kind        history.OpKind
	ok, pending bool
	head        core.BlockID
	chainLen    int
	inv, rsp    int
	invT, rspT  int64
	block       *core.Block
	chain       core.Chain
	score       int // read score (reads only)
	ord         int // position in the correct-read order (reads only)
}

func (r opRec) key() chainKey { return chainKey{r.head, r.chainLen} }

func recOf(op *history.Op) opRec {
	return opRec{
		id: op.ID, proc: op.Proc, kind: op.Kind, ok: op.OK, pending: op.Pending,
		head: op.Head, chainLen: op.ChainLen, inv: op.InvIndex, rsp: op.RspIndex,
		invT: op.InvTime, rspT: op.RspTime, block: op.Block, chain: op.EagerChain(),
	}
}

// recSet retains the first cap records by invocation index (the
// enumeration order) of one retention class.
type recSet struct {
	recs      []opRec
	truncated bool
}

// insert never grows a full set: a record past the retained ones is
// dropped at once, one among them pushes the last out in place. The
// slice grows on demand, not to cap up front — most classes of a long
// run hold a read or two.
func (s *recSet) insert(r opRec, cap int) {
	n := len(s.recs)
	i := n
	if n > 0 && s.recs[n-1].inv >= r.inv {
		i = sort.Search(n, func(i int) bool { return s.recs[i].inv > r.inv })
	}
	if n >= cap {
		s.truncated = true
		if i == n {
			return
		}
	} else {
		s.recs = append(s.recs, opRec{})
	}
	copy(s.recs[i+1:], s.recs[i:])
	s.recs[i] = r
}

// bvFact is the incremental Block Validity scan of one distinct chain.
// A fact computed at arrival time stays conclusive on the pass side:
// later appends only add blocks or lower earliest-invocation indices,
// so arrival-clean chains are final-clean and arrival-passing bounds
// keep passing. Reads that fail at arrival become suspects, re-resolved
// against the final append index at Finalize.
//
// The fact of an interned read is not scanned from genesis but extended,
// block by block, from the fact of the nearest ancestor chain already
// read (extendFact), so P sees each block once, not once per chain
// containing it. The ancestor's fact is older than a scan made now, and
// extending it is conservative — it can add suspects, never lose a
// violation. Proof: every block's status was taken at some time t ≤ now
// against the append index as of t. The index only gains blocks and
// lowers invocation indices, so a block found appended at t with
// invocation i is appended now with invocation ≤ i, and P(b) does not
// depend on t. Hence extended-clean ⇒ scanned-now-clean ⇒ final-clean,
// and extended maxAppendInv ≥ scanned-now ≥ final: a read that passes
// against the extended fact passes against the final one, which is the
// only direction finalBV does not re-check. A fact that is unclean only
// because a block had no append yet (the append was recorded after a
// read of its block) is never extended — the descendants of that block
// would all stay suspects although its append has since arrived; the
// walk passes over such a fact and re-examines its blocks (each distinct
// descendant chain does, for as long as the append stays unrecorded:
// the once-per-block bound needs every read block's append to arrive
// eventually). On a stream
// delivered in response order the extended fact therefore puts exactly
// the reads in the suspect sets that a scan at arrival would.
type bvFact struct {
	clean        bool
	maxAppendInv int
	nonGenesis   int
	firstInvalid core.BlockID
	hasInvalid   bool
}

// extendable reports whether descendants' facts may start from f: its
// verdict on its own blocks is final (all appended and valid, or one
// invalid for good), not waiting on an append still to be recorded.
func (f *bvFact) extendable() bool { return f.clean || f.hasInvalid }

// spRun is one maximal run of equal interned chains in the sorted-read
// order within one chain length.
type spRun struct {
	key         chainKey
	first, last opRec
	n           int
}

// spRunsCap bounds the runs retained per chain length: a truncated
// length has ≥ spRunsCap−1 adjacent-pair violations among its retained
// runs, which exceeds MaxViolations, so the report is always full
// before the truncated region is reached.
const spRunsCap = MaxViolations + 2

// spLen is the per-chain-length StrongPrefix state.
type spLen struct {
	runs      []spRun
	truncated bool
	last      opRec // true latest arrival of this length
	count     int
}

// lmrPair is one recorded Local Monotonic Read violation.
type lmrPair struct{ prev, cur opRec }

// Monitor evaluates the criteria over a stream of operations: feed it a
// history as it is recorded (it implements history.Sink) or let Checker
// replay one into it, then Finalize for the verdicts. Not safe for
// concurrent use; the Recorder serializes sink calls under its own lock.
type Monitor struct {
	score   core.Score
	pred    core.Predicate
	table   *history.ChainTable
	procs   int
	window  int
	cap     int
	k       int
	onWitns func(Witness)

	faulty map[int]bool

	ops, nreads, nappends, ncomm int

	scoreByKey map[chainKey]int
	// path is extendFact's scratch buffer.
	path []*core.Block

	// win is the sliding liveness tail: the last `window` correct reads
	// by invocation index — a view into winBuf (see winInsert).
	win    []opRec
	winBuf []opRec

	// LocalMonotonicRead per-process state.
	lmrPrev    []opRec
	lmrHas     []bool
	lmrViol    [][]lmrPair
	lmrChecked int

	// StrongPrefix state.
	spLens   map[int]*spLen
	spMax    opRec
	spHasMax bool
	spCmp    map[chainKey]bool

	// EverGrowingTree / EventualPrefix candidates per score class.
	classes map[int]*recSet

	// BlockValidity state.
	bvFacts    map[chainKey]*bvFact
	bvSuspects map[chainKey]*recSet
	bvChecked  int
	appendInv  map[core.BlockID]opRec

	// k-Fork Coherence token groups (successful appends per token).
	tokens map[string][]opRec

	// live emission caps per property.
	liveLMR, liveSP, liveBV, liveKF int
	liveTotal                       int

	finalized bool
	scV, ecV  *Verdict
}

// NewMonitor builds an online monitor. Attach it to a Recorder with
// SetSink (or feed it segments via ConsumeSegment) before the first
// operation is recorded; processes must be marked faulty before their
// first read, or that read is not excluded.
func NewMonitor(cfg MonitorConfig) *Monitor {
	if cfg.Score == nil {
		cfg.Score = core.LengthScore{}
	}
	if cfg.P == nil {
		cfg.P = core.AlwaysValid{}
	}
	procs := cfg.Procs
	if procs < 1 {
		procs = 1
	}
	w := cfg.Horizon
	if w <= 0 {
		w = cfg.Procs
		if w < 2 {
			w = 2
		}
	}
	m := &Monitor{
		score:      cfg.Score,
		pred:       cfg.P,
		table:      cfg.Table,
		procs:      cfg.Procs,
		window:     w,
		cap:        MaxViolations + procs,
		k:          cfg.K,
		onWitns:    cfg.OnWitness,
		faulty:     make(map[int]bool),
		scoreByKey: make(map[chainKey]int),
		spLens:     make(map[int]*spLen),
		spCmp:      make(map[chainKey]bool),
		classes:    make(map[int]*recSet),
		bvFacts:    make(map[chainKey]*bvFact),
		bvSuspects: make(map[chainKey]*recSet),
		appendInv:  make(map[core.BlockID]opRec),
		tokens:     make(map[string][]opRec),
	}
	if cfg.Procs > 0 {
		m.lmrPrev = make([]opRec, cfg.Procs)
		m.lmrHas = make([]bool, cfg.Procs)
		m.lmrViol = make([][]lmrPair, cfg.Procs)
	}
	return m
}

// Faulty implements history.Sink: process p's reads are excluded from
// the criteria. Mark before p's first read (the adversary subsystem
// marks at wiring time, before the simulation starts).
func (m *Monitor) Faulty(p int) { m.faulty[p] = true }

// CommDone implements history.Sink. Communication events do not enter
// the consistency criteria; they are only counted.
func (m *Monitor) CommDone(history.CommEvent) { m.ncomm++ }

// OpDone implements history.Sink: consume one completed operation.
func (m *Monitor) OpDone(op *history.Op) {
	m.ops++
	switch op.Kind {
	case history.OpAppend:
		m.consumeAppend(op, false)
	case history.OpRead:
		m.consumeRead(op)
	}
}

// OpPending delivers an operation that never completed (fed by the
// finalizer from the recorder's pending set): Block Validity counts
// pending append invocations; pending reads carry no result.
func (m *Monitor) OpPending(op *history.Op) {
	if op.Kind == history.OpAppend {
		m.consumeAppend(op, true)
	}
}

// ConsumeSegment feeds one sealed history segment (see
// history.SegmentSink) to the monitor.
func (m *Monitor) ConsumeSegment(seg *history.Segment) {
	if seg == nil {
		return
	}
	for _, op := range seg.Ops {
		m.OpDone(op)
	}
	for _, e := range seg.Comm {
		m.CommDone(e)
	}
}

func (m *Monitor) consumeAppend(op *history.Op, pending bool) {
	if !pending {
		m.nappends++
	}
	if op.Block == nil {
		return
	}
	rec := recOf(op)
	if cur, ok := m.appendInv[op.Block.ID]; !ok || rec.inv < cur.inv {
		m.appendInv[op.Block.ID] = rec
	}
	if pending || !op.OK {
		return
	}
	key := op.Block.Token
	if key == "" {
		key = "parent:" + string(op.Block.Parent)
	}
	m.tokens[key] = append(m.tokens[key], rec)
	if m.k > 0 && len(m.tokens[key]) == m.k+1 && m.liveKF < MaxViolations {
		m.liveKF++
		group := m.tokens[key]
		blocks := make([]core.BlockID, len(group))
		ops := make([]*history.Op, len(group))
		for i, g := range group {
			blocks[i] = g.block.ID
			ops[i] = m.rebuild(g)
		}
		m.emit(Witness{
			Property: fmt.Sprintf("%d-ForkCoherence", m.k),
			Ops:      ops, Blocks: blocks,
			Detail: fmt.Sprintf("token %q consumed by %d successful appends (k=%d): forks %s",
				key, len(group), m.k, shortIDs(blocks)),
		})
	}
}

func (m *Monitor) consumeRead(op *history.Op) {
	if m.faulty[op.Proc] {
		return
	}
	rec := recOf(op)
	rec.score = m.scoreOfOp(op)
	rec.ord = m.nreads
	m.nreads++

	// LocalMonotonicRead: compare against the process's previous read.
	if p := rec.proc; p >= 0 && p < len(m.lmrPrev) {
		if m.lmrHas[p] {
			m.lmrChecked++
			if prev := m.lmrPrev[p]; prev.score > rec.score {
				if len(m.lmrViol[p]) < MaxViolations {
					m.lmrViol[p] = append(m.lmrViol[p], lmrPair{prev, rec})
				}
				if m.liveLMR < MaxViolations {
					m.liveLMR++
					prevOp, curOp := m.rebuild(prev), m.rebuild(rec)
					m.emit(Witness{
						Property: "LocalMonotonicRead",
						Ops:      []*history.Op{prevOp, curOp},
						Blocks:   []core.BlockID{prev.head, rec.head},
						Detail: fmt.Sprintf("process %d: score dropped %d → %d (%s then %s)",
							p, prev.score, rec.score, prevOp, curOp),
					})
				}
			}
		}
		m.lmrPrev[p], m.lmrHas[p] = rec, true
	}

	// BlockValidity: shared per-chain fact, arrival-conclusive on the
	// pass side; failures become suspects re-resolved at Finalize.
	fact := m.factOfOp(op)
	m.bvChecked += fact.nonGenesis
	if !(fact.clean && fact.maxAppendInv < rec.rsp) {
		set := m.bvSuspects[rec.key()]
		if set == nil {
			set = &recSet{}
			m.bvSuspects[rec.key()] = set
		}
		set.insert(rec, m.cap)
		if fact.hasInvalid && m.liveBV < MaxViolations {
			m.liveBV++
			rOp := m.rebuild(rec)
			m.emit(Witness{
				Property: "BlockValidity",
				Ops:      []*history.Op{rOp},
				Blocks:   []core.BlockID{fact.firstInvalid},
				Detail:   fmt.Sprintf("read %s returned block %s with P(b)=false", rOp, fact.firstInvalid.Short()),
			})
		}
	}

	// Liveness tail window: last `window` correct reads by invocation.
	m.winInsert(rec)

	// EverGrowingTree / EventualPrefix candidates per score class.
	cls := m.classes[rec.score]
	if cls == nil {
		cls = &recSet{}
		m.classes[rec.score] = cls
	}
	cls.insert(rec, m.cap)

	// StrongPrefix run-length structure + live comparability probe.
	m.spConsume(rec)
}

// winInsert adds a read to the liveness window and lets the oldest go
// once the window is full. The window slides: m.win is a view that moves
// right along winBuf — dropping the oldest read is a reslice — and is
// moved back to the front only when it reaches the buffer's end, once
// per `window` reads on a buffer of twice that, so a read costs O(1)
// amortised instead of a copy of the whole window.
func (m *Monitor) winInsert(r opRec) {
	n := len(m.win)
	if n == cap(m.win) { // no room behind the view
		if cap(m.winBuf) <= n {
			// The view fills its buffer (the window is still filling, or
			// was restored from a checkpoint): double it, up to twice the
			// window.
			m.winBuf = make([]opRec, min(2*n+2, 2*m.window))
		}
		m.win = m.winBuf[:copy(m.winBuf, m.win)]
	}
	if n == 0 || m.win[n-1].inv < r.inv {
		m.win = append(m.win, r)
	} else {
		i := sort.Search(n, func(i int) bool { return m.win[i].inv > r.inv })
		m.win = append(m.win, opRec{})
		copy(m.win[i+1:], m.win[i:])
		m.win[i] = r
	}
	if len(m.win) > m.window {
		m.win = m.win[1:]
	}
}

func (m *Monitor) spConsume(rec opRec) {
	sl := m.spLens[rec.chainLen]
	if sl == nil {
		sl = &spLen{}
		m.spLens[rec.chainLen] = sl
	}
	k := rec.key()
	switch {
	case sl.truncated:
		// Beyond the retained runs: only the true last matters.
	case len(sl.runs) > 0 && sl.runs[len(sl.runs)-1].key == k:
		run := &sl.runs[len(sl.runs)-1]
		run.last = rec
		run.n++
	case len(sl.runs) < spRunsCap:
		sl.runs = append(sl.runs, spRun{key: k, first: rec, last: rec, n: 1})
	default:
		sl.truncated = true
	}
	sl.last = rec
	sl.count++

	// Live incomparability probe against the longest chain read so far.
	// Advisory: false negatives are possible after the anchor moves;
	// the exact witness set comes from Finalize.
	if !m.spHasMax {
		m.spMax, m.spHasMax = rec, true
		return
	}
	maxK := m.spMax.key()
	if k == maxK || m.spCmp[k] {
		if rec.chainLen > m.spMax.chainLen {
			m.spMax = rec
		}
		return
	}
	if m.comparable(k, maxK) {
		m.spCmp[k] = true
	} else if m.liveSP < MaxViolations {
		m.liveSP++
		maxOp, curOp := m.rebuild(m.spMax), m.rebuild(rec)
		m.emit(Witness{
			Property: "StrongPrefix",
			Ops:      []*history.Op{maxOp, curOp},
			Blocks:   []core.BlockID{m.spMax.head, rec.head},
			Detail:   fmt.Sprintf("incomparable reads: %s vs %s", maxOp, curOp),
		})
	}
	if rec.chainLen > m.spMax.chainLen {
		m.spMax = rec
	}
}

// comparable probes whether the chains behind two interned keys are
// prefix-comparable, by walking parent links in the table (O(Δheight),
// no materialization).
func (m *Monitor) comparable(a, b chainKey) bool {
	if a == b {
		return true
	}
	short, long := a, b
	if short.n > long.n {
		short, long = long, short
	}
	if m.table == nil {
		return false
	}
	anc := m.table.AncestorAt(long.head, short.n-1)
	return anc != nil && anc.ID == short.head
}

func (m *Monitor) scoreOfOp(op *history.Op) int {
	// The length score — the default — needs no chain: a read records
	// the length of the chain it returned.
	if _, ok := m.score.(core.LengthScore); ok {
		return op.ChainLen - 1
	}
	k := keyOf(op)
	if s, ok := m.scoreByKey[k]; ok {
		return s
	}
	s := m.score.Of(op.ChainUncached())
	m.scoreByKey[k] = s
	return s
}

func (m *Monitor) factOfOp(op *history.Op) *bvFact {
	k := keyOf(op)
	if f, ok := m.bvFacts[k]; ok {
		return f
	}
	f := m.extendFact(op)
	if f == nil {
		f = m.scanFact(op.ChainUncached())
	}
	m.bvFacts[k] = f
	return f
}

// extendFact builds an interned read's fact from the fact of its nearest
// already-read ancestor chain that is extendable (see bvFact): it walks
// parent links in the table from the read's head towards genesis until
// it meets one, then folds the blocks passed into a copy of it. Reads
// mostly return the chain of a recent read plus a block or two, so the
// walk is O(1) amortized where the materialization is O(height). It
// returns nil when there is nothing to walk or the walk breaks — an
// eagerly recorded chain, no table, a missing ancestor, a height that
// does not match — and the caller scans the materialized chain.
func (m *Monitor) extendFact(op *history.Op) *bvFact {
	if m.table == nil || op.EagerChain() != nil {
		return nil
	}
	f := &bvFact{clean: true, maxAppendInv: -1}
	path := m.path[:0]
	b := m.table.Block(op.Head)
	for n := op.ChainLen; ; n-- {
		if b == nil || b.Height != n-1 {
			return nil
		}
		if b.IsGenesis() {
			break
		}
		if base := m.bvFacts[chainKey{b.ID, n}]; base != nil && base.extendable() {
			*f = *base
			break
		}
		path = append(path, b)
		b = m.table.Block(b.Parent)
	}
	m.path = path
	for i := len(path) - 1; i >= 0; i-- {
		m.scanBlock(f, path[i])
	}
	return f
}

func (m *Monitor) scanFact(c core.Chain) *bvFact {
	f := &bvFact{clean: true, maxAppendInv: -1}
	for _, b := range c {
		if !b.IsGenesis() {
			m.scanBlock(f, b)
		}
	}
	return f
}

// scanBlock folds one non-genesis block into a fact.
func (m *Monitor) scanBlock(f *bvFact, b *core.Block) {
	f.nonGenesis++
	if !m.pred.Valid(b) {
		f.clean = false
		if !f.hasInvalid {
			f.hasInvalid, f.firstInvalid = true, b.ID
		}
		return
	}
	ap, ok := m.appendInv[b.ID]
	if !ok {
		f.clean = false
		return
	}
	if ap.inv > f.maxAppendInv {
		f.maxAppendInv = ap.inv
	}
}

func (m *Monitor) emit(w Witness) {
	m.liveTotal++
	if m.onWitns != nil {
		m.onWitns(w)
	}
}

// LiveWitnesses reports how many live witnesses have been emitted.
func (m *Monitor) LiveWitnesses() int { return m.liveTotal }

// rebuild reconstructs a witness-grade *history.Op from a compact
// record; its String/Chain renderings equal the original op's.
func (m *Monitor) rebuild(r opRec) *history.Op {
	op := &history.Op{
		ID: r.id, Proc: r.proc, Kind: r.kind, Block: r.block, OK: r.ok,
		Head: r.head, ChainLen: r.chainLen, InvIndex: r.inv, RspIndex: r.rsp,
		InvTime: r.invT, RspTime: r.rspT, Pending: r.pending,
	}
	op.SetSource(m.table, r.chain)
	return op
}

// mergedByInv flattens the sets whose key passes keep (nil: all of them)
// and sorts by invocation index — the enumeration order.
func mergedByInv[K comparable](sets map[K]*recSet, keep func(K) bool) []opRec {
	var out []opRec
	for k, s := range sets {
		if keep == nil || keep(k) {
			out = append(out, s.recs...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].inv < out[j].inv })
	return out
}

// Finalize closes the stream and returns the SC and EC verdicts on the
// full history (see the comment at the top of this file for how exactly
// they match the literal enumeration). Idempotent.
func (m *Monitor) Finalize() (sc, ec *Verdict) {
	if m.finalized {
		return m.scV, m.ecV
	}
	m.finalized = true
	bv := m.finalBV()
	lmr := m.finalLMR()
	sp := m.finalSP()
	egt := m.finalEGT()
	ep := m.finalEP()
	m.scV = verdictOf("SC", bv, lmr, sp, egt)
	m.ecV = verdictOf("EC", bv, lmr, egt, ep)
	return m.scV, m.ecV
}

func (m *Monitor) finalBV() *Report {
	rep := &Report{Property: "BlockValidity", OK: true, Checked: m.bvChecked}
	sus := mergedByInv(m.bvSuspects, nil)
	finalFacts := make(map[chainKey]*bvFact, len(m.bvSuspects))
	for _, rec := range sus {
		f, ok := finalFacts[rec.key()]
		if !ok {
			f = m.scanFact(m.rebuild(rec).ChainUncached())
			finalFacts[rec.key()] = f
		}
		if f.clean && f.maxAppendInv < rec.rsp {
			continue // suspect resolved clean against the final appends
		}
		r := m.rebuild(rec)
		for _, b := range r.ChainUncached() {
			if b.IsGenesis() {
				continue
			}
			if !m.pred.Valid(b) {
				rep.witness([]*history.Op{r}, []core.BlockID{b.ID},
					"read %s returned block %s with P(b)=false", r, b.ID.Short())
				continue
			}
			ap, ok := m.appendInv[b.ID]
			if !ok {
				rep.witness([]*history.Op{r}, []core.BlockID{b.ID},
					"read %s returned block %s never passed to append()", r, b.ID.Short())
				continue
			}
			if ap.inv >= rec.rsp {
				rep.witness([]*history.Op{r, m.rebuild(ap)}, []core.BlockID{b.ID},
					"read %s returned block %s appended only later (inv %d ≥ rsp %d)",
					r, b.ID.Short(), ap.inv, rec.rsp)
			}
		}
		if len(rep.Violations) == MaxViolations {
			break
		}
	}
	return rep
}

func (m *Monitor) finalLMR() *Report {
	rep := &Report{Property: "LocalMonotonicRead", OK: true, Checked: m.lmrChecked}
	for p := 0; p < len(m.lmrViol); p++ {
		if m.faulty[p] {
			continue
		}
		for _, pair := range m.lmrViol[p] {
			if len(rep.Violations) == MaxViolations {
				return rep
			}
			prevOp, curOp := m.rebuild(pair.prev), m.rebuild(pair.cur)
			rep.witness([]*history.Op{prevOp, curOp}, []core.BlockID{pair.prev.head, pair.cur.head},
				"process %d: score dropped %d → %d (%s then %s)",
				p, pair.prev.score, pair.cur.score, prevOp, curOp)
		}
	}
	return rep
}

func (m *Monitor) finalSP() *Report {
	rep := &Report{Property: "StrongPrefix", OK: true}
	if m.nreads < 2 {
		return rep
	}
	rep.Checked = m.nreads - 1
	lens := make([]int, 0, len(m.spLens))
	for l := range m.spLens {
		lens = append(lens, l)
	}
	sort.Ints(lens)
	var prev opRec
	havePrev := false
	for _, l := range lens {
		sl := m.spLens[l]
		for _, run := range sl.runs {
			// Interned reads are cleared by the O(Δheight) ancestor probe
			// (prev is never the longer chain, so comparable means
			// prefix); only a pair the probe cannot clear — a violation,
			// an eager chain, no table — has its chains materialized.
			interned := prev.chain == nil && run.first.chain == nil
			if havePrev && prev.key() != run.first.key() &&
				!(interned && m.comparable(prev.key(), run.first.key())) {
				pOp, cOp := m.rebuild(prev), m.rebuild(run.first)
				if !pOp.ChainUncached().Prefix(cOp.ChainUncached()) {
					rep.witness([]*history.Op{pOp, cOp}, []core.BlockID{prev.head, run.first.head},
						"incomparable reads: %s vs %s", pOp, cOp)
					if len(rep.Violations) == MaxViolations {
						return rep
					}
				}
			}
			prev, havePrev = run.last, true
		}
		// Cross-length boundaries pair this length's true last read
		// with the next length's first (exact even when runs were
		// truncated — truncation implies the report filled above).
		prev, havePrev = sl.last, true
	}
	return rep
}

func (m *Monitor) finalEGT() *Report {
	rep := &Report{Property: "EverGrowingTree", OK: true, Checked: m.nreads}
	if len(m.win) == 0 {
		return rep
	}
	// A read of score s is a witness only if, among the window reads after
	// it, one scores ≤ s and one scores > s: only the classes with
	// lo ≤ s < hi, lo and hi the window's extreme scores, can hold one.
	// The others — every class, on a converged window — are skipped
	// unmerged; skipping witness-free reads changes neither the order of
	// the rest nor where the enumeration stops.
	lo, hi := m.win[0].score, m.win[0].score
	for _, t := range m.win[1:] {
		lo, hi = min(lo, t.score), max(hi, t.score)
	}
	for _, r := range mergedByInv(m.classes, func(s int) bool { return lo <= s && s < hi }) {
		maxT := -1
		stale := -1
		for j := range m.win {
			t := &m.win[j]
			if r.pending || r.rsp >= t.inv { // !r.Before(t)
				continue
			}
			if t.score > maxT {
				maxT = t.score
			}
			if t.score <= r.score && stale < 0 {
				stale = j
			}
		}
		if stale >= 0 && maxT > r.score {
			rOp, sOp := m.rebuild(r), m.rebuild(m.win[stale])
			rep.witness([]*history.Op{rOp, sOp}, []core.BlockID{r.head, m.win[stale].head},
				"stagnation persists after %s: final-window read %s has score ≤ %d while the window grew to %d",
				rOp, sOp, r.score, maxT)
			if len(rep.Violations) == MaxViolations {
				rep.Checked = r.ord + 1 // the enumeration stops here
				return rep
			}
		}
	}
	return rep
}

// epPairs returns the Checked contribution of the read at the given
// correct-read position, assuming atomic completed operations:
// every pre-window read sees all w window reads after it; the window
// member at position j sees the w−1−j later ones.
func (m *Monitor) epPairs(ord int) int {
	w := len(m.win)
	nonWin := m.nreads - w
	k := w
	if ord >= nonWin {
		k = w - 1 - (ord - nonWin)
	}
	return k * (k - 1) / 2
}

func (m *Monitor) finalEP() *Report {
	rep := &Report{Property: "EventualPrefix", OK: true}
	tail := m.win
	w := len(tail)

	// Window chains are materialized only for a pair of distinct keys:
	// a converged window needs none.
	chains := make([]core.Chain, w)
	chainOf := func(i int) core.Chain {
		if chains[i] == nil {
			chains[i] = m.rebuild(tail[i]).ChainUncached()
		}
		return chains[i]
	}
	// lowest is the least mcps of a divergent window pair (divergent:
	// below both its reads' scores).
	divergent, lowest := false, 0
	mcps := make([][]int, w)
	for x := range mcps {
		mcps[x] = make([]int, w)
	}
	for x := 0; x < w; x++ {
		sx := tail[x].score
		for y := x + 1; y < w; y++ {
			sy := tail[y].score
			var mm int
			if tail[x].key() == tail[y].key() {
				mm = sx
			} else {
				mm = core.MCPS(m.score, chainOf(x), chainOf(y))
			}
			mcps[x][y] = mm
			if mm < sx && mm < sy {
				if !divergent || mm < lowest {
					lowest = mm
				}
				divergent = true
			}
		}
	}

	fullChecked := 0
	for ord := 0; ord < m.nreads; ord++ {
		fullChecked += m.epPairs(ord)
	}
	rep.Checked = fullChecked
	if !divergent {
		return rep
	}

	// Divergence in the window: run the literal enumeration over the
	// retained candidates (provably a superset of the reported reads). A
	// read of score s is a witness only over a pair with mcps < s, so the
	// classes with s ≤ lowest hold none and are skipped, as in finalEGT.
	for _, r := range mergedByInv(m.classes, func(s int) bool { return s > lowest }) {
		var after []int
		for j := range tail {
			if !r.pending && r.rsp < tail[j].inv { // r.Before(tail[j])
				after = append(after, j)
			}
		}
		pairs := 0
		for x := 0; x < len(after); x++ {
			for y := x + 1; y < len(after); y++ {
				pairs++
				ax, ay := after[x], after[y]
				mm := mcps[ax][ay]
				bound := r.score
				if sa := tail[ax].score; sa < bound {
					bound = sa
				}
				if sb := tail[ay].score; sb < bound {
					bound = sb
				}
				if mm < bound {
					rOp, aOp, bOp := m.rebuild(r), m.rebuild(tail[ax]), m.rebuild(tail[ay])
					rep.witness([]*history.Op{rOp, aOp, bOp},
						[]core.BlockID{tail[ax].head, tail[ay].head},
						"after %s (score %d) final-window reads still diverge: mcps(%s, %s)=%d < %d",
						rOp, r.score, aOp, bOp, mm, bound)
					if len(rep.Violations) == MaxViolations {
						// The enumeration stops here: pairs before this
						// read, plus the pairs it examined.
						checked := 0
						for ord := 0; ord < r.ord; ord++ {
							checked += m.epPairs(ord)
						}
						rep.Checked = checked + pairs
						return rep
					}
				}
			}
		}
	}
	return rep
}

// KForkReport builds the k-Fork Coherence report (Definition 3.9) from
// the streamed token groups, for any k. Callable before or after
// Finalize.
func (m *Monitor) KForkReport(k int) *Report {
	rep := &Report{Property: fmt.Sprintf("%d-ForkCoherence", k), OK: true}
	toks := make([]string, 0, len(m.tokens))
	for tok := range m.tokens {
		toks = append(toks, tok)
	}
	sort.Strings(toks)
	for _, tok := range toks {
		group := append([]opRec(nil), m.tokens[tok]...)
		sort.Slice(group, func(i, j int) bool { return group[i].inv < group[j].inv })
		rep.Checked++
		if len(group) > k {
			blocks := make([]core.BlockID, len(group))
			ops := make([]*history.Op, len(group))
			for i, g := range group {
				blocks[i] = g.block.ID
				ops[i] = m.rebuild(g)
			}
			rep.witness(ops, blocks,
				"token %q consumed by %d successful appends (k=%d): forks %s", tok, len(group), k, shortIDs(blocks))
		}
	}
	return rep
}

// MonitorStats summarizes a monitor's retained state — the observable
// side of the bounded-memory claim.
type MonitorStats struct {
	// Ops, Reads, Appends, Comm count the consumed stream.
	Ops, Reads, Appends, Comm int
	// Retained counts the compact op records currently held across all
	// monitors (window, candidates, suspects, LMR, SP runs, tokens).
	Retained int
	// ScoreClasses and SuspectKeys size the per-class structures.
	ScoreClasses, SuspectKeys int
	// WindowLen is the current liveness-window occupancy.
	WindowLen int
}

// Stats reports the monitor's consumption counters and retained-state
// sizes.
func (m *Monitor) Stats() MonitorStats {
	st := MonitorStats{
		Ops: m.ops, Reads: m.nreads, Appends: m.nappends, Comm: m.ncomm,
		ScoreClasses: len(m.classes), SuspectKeys: len(m.bvSuspects),
		WindowLen: len(m.win),
	}
	st.Retained = len(m.win)
	for _, s := range m.classes {
		st.Retained += len(s.recs)
	}
	for _, s := range m.bvSuspects {
		st.Retained += len(s.recs)
	}
	for _, v := range m.lmrViol {
		st.Retained += len(v)
	}
	for i := range m.lmrHas {
		if m.lmrHas[i] {
			st.Retained++
		}
	}
	for _, sl := range m.spLens {
		st.Retained += 2*len(sl.runs) + 1
	}
	for _, g := range m.tokens {
		st.Retained += len(g)
	}
	return st
}

// The Monitor: the engine that evaluates every property this package
// defines, in incremental form. A Monitor implements history.Sink —
// operations and communication events are fed to it the moment they are
// recorded, or replayed from a retained History — and maintains O(tree +
// window + messages in flight) state instead of the whole history:
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
//     and per-process previous-read state;
//   - MonotonicPrefix: an ancestor probe against the same previous read;
//   - UpdateAgreement / LRC: per message in flight, its receives and the
//     updates and sends still to judge (updateagreement.go). They read
//     the communication events alone, as the others read the operations
//     alone, so how a feed interleaves the two does not matter; they
//     emit no live witnesses.
//
// Cost per read: O(1) amortized for interned reads under the length
// score, while the append of every block read is eventually recorded.
// The length score is the read's recorded chain length, and the Block
// Validity fact of a chain not seen before is extended from that of the
// nearest ancestor chain already read, by walking parent links in the
// run's block index (extendFact), so over a run P examines each block
// about once and no chain is materialized while streaming. A block whose
// append is never recorded (a Byzantine block that bypassed append())
// makes every distinct chain through it re-walk from below that block,
// O(distance to it). An eagerly recorded chain, any other Score and a
// monitor without an index are scanned over the whole chain, O(height)
// per distinct chain. Finalize materializes chains only for Block
// Validity suspects, violations and distinct chains inside the final
// window.
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
//     reports may differ from those a Checker replay of the same
//     retained history reports (a run's Result.Check() is this monitor's
//     verdict, not that replay), and the Checked counts of a full
//     EverGrowingTree report and of EventualPrefix are reconstructed
//     from arrival positions.
//
// Boundedness: retained state is O(#blocks + #distinct chains + w +
// (MaxViolations+procs)·#distinct scores + #successful appends +
// procs·#messages in flight) — all bounded by the block tree, the window
// and what the network has not delivered yet (only a cut that never
// heals keeps a message in flight, which Update Agreement and LRC then
// report), never by the number of reads or messages.
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
	// Table is the run's block index: incremental scoring and validity
	// facts walk its parent links, witness reconstruction materializes
	// chains from it, and Update Agreement reads a block's creator off
	// it. May be nil for histories recorded with explicit chains
	// (RespondRead), which the monitor retains on the few ops it keeps.
	Table *core.Index
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
// The exported fields are what a checkpoint writes as they stand; block
// and chain are pointers into the run and go through recWire
// (checkpoint.go).
type opRec struct {
	ID, Proc    int
	Kind        history.OpKind
	OK, Pending bool
	Head        core.BlockID
	ChainLen    int
	Inv, Rsp    int
	InvT, RspT  int64
	block       *core.Block
	chain       core.Chain
	Score       int // read score (reads only)
	Ord         int // position in the correct-read order (reads only)
}

func (r *opRec) key() chainKey { return chainKey{r.Head, r.ChainLen} }

func recOf(op *history.Op) opRec {
	return opRec{
		ID: op.ID, Proc: op.Proc, Kind: op.Kind, OK: op.OK, Pending: op.Pending,
		Head: op.Head, ChainLen: op.ChainLen, Inv: op.InvIndex, Rsp: op.RspIndex,
		InvT: op.InvTime, RspT: op.RspTime, block: op.Block, chain: op.EagerChain(),
	}
}

// recSet retains the first cap records by invocation index (the
// enumeration order) of one retention class.
type recSet struct {
	Recs      []opRec
	Truncated bool
}

// insert never grows a full set: a record past the retained ones is
// dropped at once, one among them pushes the last out in place. The
// slice grows on demand, not to cap up front — most classes of a long
// run hold a read or two. r is copied only if it is retained.
func (s *recSet) insert(r *opRec, cap int) {
	n := len(s.Recs)
	i := n
	if n > 0 && s.Recs[n-1].Inv >= r.Inv {
		i = sort.Search(n, func(i int) bool { return s.Recs[i].Inv > r.Inv })
	}
	if n >= cap {
		s.Truncated = true
		if i == n {
			return
		}
	} else {
		s.Recs = append(s.Recs, opRec{})
	}
	copy(s.Recs[i+1:], s.Recs[i:])
	s.Recs[i] = *r
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
	Clean        bool
	MaxAppendInv int
	NonGenesis   int
	FirstInvalid core.BlockID
	HasInvalid   bool
}

// extendable reports whether descendants' facts may start from f: its
// verdict on its own blocks is final (all appended and valid, or one
// invalid for good), not waiting on an append still to be recorded.
func (f *bvFact) extendable() bool { return f.Clean || f.HasInvalid }

// spRun is one maximal run of equal interned chains in the sorted-read
// order within one chain length.
type spRun struct {
	Key         chainKey
	First, Last opRec
	N           int
}

// spRunsCap bounds the runs retained per chain length: a truncated
// length has ≥ spRunsCap−1 adjacent-pair violations among its retained
// runs, which exceeds MaxViolations, so the report is always full
// before the truncated region is reached.
const spRunsCap = MaxViolations + 2

// spLen is the per-chain-length StrongPrefix state.
type spLen struct {
	Runs      []spRun
	Truncated bool
	Last      opRec // true latest arrival of this length
	Count     int
}

// readPair is one recorded violation between a process's consecutive
// reads (Local Monotonic Read, Monotonic Prefix); N is the process's
// pair count when it was found.
type readPair struct {
	Prev, Cur opRec
	N         int
}

// procCounts are one process's counts for the properties judged per
// process: updates (Update Agreement), sends (LRC Validity) and pairs of
// consecutive reads (Monotonic Prefix).
type procCounts struct{ Updates, Sends, ReadPairs int }

// monitorState is everything a Monitor retains of the stream it has
// consumed — the bounded summary that makes the criteria checkable on a
// run. It is declared once: the hot path reads and writes these fields
// (promoted through the by-value embedding in Monitor), Checkpoint
// marshals the struct as it stands and RestoreMonitor decodes into it.
// The field names are exported because encoding/json sees nothing else;
// the type is not. A field added here is checkpointed by construction; a
// field added to Monitor beside it fails TestMonitorStateIsComplete.
type monitorState struct {
	// IsFaulty marks the processes whose reads are excluded.
	IsFaulty map[int]bool

	Ops, NReads, NAppends, NComm int

	ScoreByKey map[chainKey]int

	// Win is the sliding liveness tail: the last `window` correct reads
	// by invocation index — a view into Monitor.winBuf (see winInsert).
	Win []opRec

	// LocalMonotonicRead per-process state.
	LMRPrev    []opRec
	LMRHas     []bool
	LMRViol    [][]readPair
	LMRChecked int

	// Monotonic Prefix reorganisations, and per-process counts.
	MPViol  [][]readPair
	PerProc []procCounts

	// Update Agreement / LRC: the messages in flight, and the ones that
	// left it with whether their creator sent them (updateagreement.go).
	Msgs    map[msgKey]*msgState
	Settled map[msgKey]bool

	// StrongPrefix state.
	SPLens   map[int]*spLen
	SPMax    opRec
	SPHasMax bool
	SPCmp    map[chainKey]bool

	// EverGrowingTree / EventualPrefix candidates per score class.
	Classes map[int]*recSet

	// BlockValidity state.
	BVFacts    map[chainKey]*bvFact
	BVSuspects map[chainKey]*recSet
	BVChecked  int
	AppendInv  map[core.BlockID]opRec

	// k-Fork Coherence token groups (successful appends per token).
	Tokens map[string][]opRec

	// live emission caps per property.
	LiveLMR, LiveSP, LiveBV, LiveKF int
	LiveTotal                       int
}

// Monitor evaluates the criteria over a stream of operations: feed it a
// history as it is recorded (it implements history.Sink) or let Checker
// replay one into it, then Finalize for the verdicts. Not safe for
// concurrent use; the Recorder serializes sink calls under its own lock.
type Monitor struct {
	// Rebuilt from MonitorConfig.
	score   core.Score
	pred    core.Predicate
	table   *core.Index
	procs   int
	window  int
	cap     int
	k       int
	onWitns func(Witness)

	monitorState

	// Scratch: extendFact's path buffer, the buffer Win slides along, the
	// storage of messages that left the flight, the memo of Finalize, and
	// factOfOp's one-entry memo in front of BVFacts (consecutive reads
	// mostly return one chain; a fact is never replaced once stored, so
	// a memo hit is a map hit, and a restored monitor starts it empty).
	path      []*core.Block
	winBuf    []opRec
	spare     []*msgState
	finalized bool
	scV, ecV  *Verdict
	factKey   chainKey
	fact      *bvFact
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
		score:   cfg.Score,
		pred:    cfg.P,
		table:   cfg.Table,
		procs:   cfg.Procs,
		window:  w,
		cap:     MaxViolations + procs,
		k:       cfg.K,
		onWitns: cfg.OnWitness,
		monitorState: monitorState{
			IsFaulty:   make(map[int]bool),
			ScoreByKey: make(map[chainKey]int),
			SPLens:     make(map[int]*spLen),
			SPCmp:      make(map[chainKey]bool),
			Classes:    make(map[int]*recSet),
			BVFacts:    make(map[chainKey]*bvFact),
			BVSuspects: make(map[chainKey]*recSet),
			AppendInv:  make(map[core.BlockID]opRec),
			Tokens:     make(map[string][]opRec),
			Msgs:       make(map[msgKey]*msgState),
			Settled:    make(map[msgKey]bool),
		},
	}
	if cfg.Procs > 0 {
		m.LMRPrev = make([]opRec, cfg.Procs)
		m.LMRHas = make([]bool, cfg.Procs)
		m.LMRViol = make([][]readPair, cfg.Procs)
		m.MPViol = make([][]readPair, cfg.Procs)
		m.PerProc = make([]procCounts, cfg.Procs)
	}
	return m
}

// Faulty implements history.Sink: process p's reads are excluded from
// the criteria. Mark before p's first read (the adversary subsystem
// marks at wiring time, before the simulation starts); for the
// communication properties any time will do.
func (m *Monitor) Faulty(p int) {
	if m.IsFaulty[p] {
		return
	}
	m.IsFaulty[p] = true
	for k, ms := range m.Msgs {
		if ms.Missing > 0 && p >= 0 && p < len(ms.Recv) && ms.Recv[p] < 0 { // p may have been all it lacked
			ms.Missing--
			m.settle(k, ms)
		}
	}
}

// CommDone implements history.Sink: the event is judged for Update
// Agreement and LRC.
func (m *Monitor) CommDone(e history.CommEvent) {
	m.NComm++
	m.judgeComm(e)
}

// OpDone implements history.Sink: consume one completed operation.
func (m *Monitor) OpDone(op *history.Op) {
	m.Ops++
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
		m.NAppends++
	}
	if op.Block == nil {
		return
	}
	rec := recOf(op)
	if cur, ok := m.AppendInv[op.Block.ID]; !ok || rec.Inv < cur.Inv {
		m.AppendInv[op.Block.ID] = rec
	}
	if pending || !op.OK {
		return
	}
	key := op.Block.Token
	if key == "" {
		key = "parent:" + string(op.Block.Parent)
	}
	m.Tokens[key] = append(m.Tokens[key], rec)
	if m.k > 0 && len(m.Tokens[key]) == m.k+1 && m.LiveKF < MaxViolations {
		m.LiveKF++
		group := m.Tokens[key]
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
	if m.IsFaulty[op.Proc] {
		return
	}
	rec := recOf(op)
	rec.Score = m.scoreOfOp(op)
	rec.Ord = m.NReads
	m.NReads++

	// LocalMonotonicRead, MonotonicPrefix: against p's previous read.
	if p := rec.Proc; p >= 0 && p < len(m.LMRPrev) {
		if m.LMRHas[p] {
			m.LMRChecked++
			prev := &m.LMRPrev[p]
			m.PerProc[p].ReadPairs++
			if len(m.MPViol[p]) < MaxViolations && !m.extends(prev, &rec) {
				m.MPViol[p] = append(m.MPViol[p], readPair{*prev, rec, m.PerProc[p].ReadPairs})
			}
			if prev.Score > rec.Score {
				if len(m.LMRViol[p]) < MaxViolations {
					m.LMRViol[p] = append(m.LMRViol[p], readPair{Prev: *prev, Cur: rec})
				}
				if m.LiveLMR < MaxViolations {
					m.LiveLMR++
					prevOp, curOp := m.rebuild(*prev), m.rebuild(rec)
					m.emit(Witness{
						Property: "LocalMonotonicRead",
						Ops:      []*history.Op{prevOp, curOp},
						Blocks:   []core.BlockID{prev.Head, rec.Head},
						Detail: fmt.Sprintf("process %d: score dropped %d → %d (%s then %s)",
							p, prev.Score, rec.Score, prevOp, curOp),
					})
				}
			}
		}
		m.LMRPrev[p], m.LMRHas[p] = rec, true
	}

	// BlockValidity: shared per-chain fact, arrival-conclusive on the
	// pass side; failures become suspects re-resolved at Finalize.
	fact := m.factOfOp(op)
	m.BVChecked += fact.NonGenesis
	if !(fact.Clean && fact.MaxAppendInv < rec.Rsp) {
		set := m.BVSuspects[rec.key()]
		if set == nil {
			set = &recSet{}
			m.BVSuspects[rec.key()] = set
		}
		set.insert(&rec, m.cap)
		if fact.HasInvalid && m.LiveBV < MaxViolations {
			m.LiveBV++
			rOp := m.rebuild(rec)
			m.emit(Witness{
				Property: "BlockValidity",
				Ops:      []*history.Op{rOp},
				Blocks:   []core.BlockID{fact.FirstInvalid},
				Detail:   fmt.Sprintf("read %s returned block %s with P(b)=false", rOp, fact.FirstInvalid.Short()),
			})
		}
	}

	// Liveness tail window: last `window` correct reads by invocation.
	m.winInsert(&rec)

	// EverGrowingTree / EventualPrefix candidates per score class.
	cls := m.Classes[rec.Score]
	if cls == nil {
		cls = &recSet{}
		m.Classes[rec.Score] = cls
	}
	cls.insert(&rec, m.cap)

	// StrongPrefix run-length structure + live comparability probe.
	m.spConsume(&rec)
}

// winInsert adds a read to the liveness window and lets the oldest go
// once the window is full. The window slides: m.Win is a view that moves
// right along winBuf — dropping the oldest read is a reslice — and is
// moved back to the front only when it reaches the buffer's end, once
// per `window` reads on a buffer of twice that, so a read costs O(1)
// amortised instead of a copy of the whole window.
func (m *Monitor) winInsert(r *opRec) {
	n := len(m.Win)
	if n == cap(m.Win) { // no room behind the view
		if cap(m.winBuf) <= n {
			// The view fills its buffer (the window is still filling, or
			// was restored from a checkpoint): double it, up to twice the
			// window.
			m.winBuf = make([]opRec, min(2*n+2, 2*m.window))
		}
		m.Win = m.winBuf[:copy(m.winBuf, m.Win)]
	}
	if n == 0 || m.Win[n-1].Inv < r.Inv {
		m.Win = append(m.Win, *r)
	} else {
		i := sort.Search(n, func(i int) bool { return m.Win[i].Inv > r.Inv })
		m.Win = append(m.Win, opRec{})
		copy(m.Win[i+1:], m.Win[i:])
		m.Win[i] = *r
	}
	if len(m.Win) > m.window {
		m.Win = m.Win[1:]
	}
}

func (m *Monitor) spConsume(rec *opRec) {
	sl := m.SPLens[rec.ChainLen]
	if sl == nil {
		sl = &spLen{}
		m.SPLens[rec.ChainLen] = sl
	}
	k := rec.key()
	switch {
	case sl.Truncated:
		// Beyond the retained runs: only the true last matters.
	case len(sl.Runs) > 0 && sl.Runs[len(sl.Runs)-1].Key == k:
		run := &sl.Runs[len(sl.Runs)-1]
		run.Last = *rec
		run.N++
	case len(sl.Runs) < spRunsCap:
		sl.Runs = append(sl.Runs, spRun{Key: k, First: *rec, Last: *rec, N: 1})
	default:
		sl.Truncated = true
	}
	sl.Last = *rec
	sl.Count++

	// Live incomparability probe against the longest chain read so far.
	// Advisory: false negatives are possible after the anchor moves;
	// the exact witness set comes from Finalize.
	if !m.SPHasMax {
		m.SPMax, m.SPHasMax = *rec, true
		return
	}
	maxK := m.SPMax.key()
	if k == maxK || m.SPCmp[k] {
		if rec.ChainLen > m.SPMax.ChainLen {
			m.SPMax = *rec
		}
		return
	}
	if m.comparable(k, maxK) {
		m.SPCmp[k] = true
	} else if m.LiveSP < MaxViolations {
		m.LiveSP++
		maxOp, curOp := m.rebuild(m.SPMax), m.rebuild(*rec)
		m.emit(Witness{
			Property: "StrongPrefix",
			Ops:      []*history.Op{maxOp, curOp},
			Blocks:   []core.BlockID{m.SPMax.Head, rec.Head},
			Detail:   fmt.Sprintf("incomparable reads: %s vs %s", maxOp, curOp),
		})
	}
	if rec.ChainLen > m.SPMax.ChainLen {
		m.SPMax = *rec
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
	if s, ok := m.ScoreByKey[k]; ok {
		return s
	}
	s := m.score.Of(op.Chain())
	m.ScoreByKey[k] = s
	return s
}

func (m *Monitor) factOfOp(op *history.Op) *bvFact {
	k := keyOf(op)
	if m.fact != nil && m.factKey == k {
		return m.fact
	}
	f, ok := m.BVFacts[k]
	if !ok {
		if f = m.extendFact(op); f == nil {
			f = m.scanFact(op.Chain())
		}
		m.BVFacts[k] = f
	}
	m.factKey, m.fact = k, f
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
	f := &bvFact{Clean: true, MaxAppendInv: -1}
	path := m.path[:0]
	b := m.table.Block(op.Head)
	for n := op.ChainLen; ; n-- {
		if b == nil || b.Height != n-1 {
			return nil
		}
		if b.IsGenesis() {
			break
		}
		if base := m.BVFacts[chainKey{b.ID, n}]; base != nil && base.extendable() {
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
	f := &bvFact{Clean: true, MaxAppendInv: -1}
	for _, b := range c {
		if !b.IsGenesis() {
			m.scanBlock(f, b)
		}
	}
	return f
}

// scanBlock folds one non-genesis block into a fact.
func (m *Monitor) scanBlock(f *bvFact, b *core.Block) {
	f.NonGenesis++
	if !m.pred.Valid(b) {
		f.Clean = false
		if !f.HasInvalid {
			f.HasInvalid, f.FirstInvalid = true, b.ID
		}
		return
	}
	ap, ok := m.AppendInv[b.ID]
	if !ok {
		f.Clean = false
		return
	}
	if ap.Inv > f.MaxAppendInv {
		f.MaxAppendInv = ap.Inv
	}
}

func (m *Monitor) emit(w Witness) {
	m.LiveTotal++
	if m.onWitns != nil {
		m.onWitns(w)
	}
}

// LiveWitnesses reports how many live witnesses have been emitted.
func (m *Monitor) LiveWitnesses() int { return m.LiveTotal }

// rebuild reconstructs a witness-grade *history.Op from a compact
// record; its String/Chain renderings equal the original op's.
func (m *Monitor) rebuild(r opRec) *history.Op {
	op := &history.Op{
		ID: r.ID, Proc: r.Proc, Kind: r.Kind, Block: r.block, OK: r.OK,
		Head: r.Head, ChainLen: r.ChainLen, InvIndex: r.Inv, RspIndex: r.Rsp,
		InvTime: r.InvT, RspTime: r.RspT, Pending: r.Pending,
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
			out = append(out, s.Recs...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Inv < out[j].Inv })
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
	rep := &Report{Property: "BlockValidity", OK: true, Checked: m.BVChecked}
	sus := mergedByInv(m.BVSuspects, nil)
	finalFacts := make(map[chainKey]*bvFact, len(m.BVSuspects))
	for _, rec := range sus {
		f, ok := finalFacts[rec.key()]
		if !ok {
			f = m.scanFact(m.rebuild(rec).Chain())
			finalFacts[rec.key()] = f
		}
		if f.Clean && f.MaxAppendInv < rec.Rsp {
			continue // suspect resolved clean against the final appends
		}
		r := m.rebuild(rec)
		for _, b := range r.Chain() {
			if b.IsGenesis() {
				continue
			}
			if !m.pred.Valid(b) {
				rep.witness([]*history.Op{r}, []core.BlockID{b.ID},
					"read %s returned block %s with P(b)=false", r, b.ID.Short())
				continue
			}
			ap, ok := m.AppendInv[b.ID]
			if !ok {
				rep.witness([]*history.Op{r}, []core.BlockID{b.ID},
					"read %s returned block %s never passed to append()", r, b.ID.Short())
				continue
			}
			if ap.Inv >= rec.Rsp {
				rep.witness([]*history.Op{r, m.rebuild(ap)}, []core.BlockID{b.ID},
					"read %s returned block %s appended only later (inv %d ≥ rsp %d)",
					r, b.ID.Short(), ap.Inv, rec.Rsp)
			}
		}
		if len(rep.Violations) == MaxViolations {
			break
		}
	}
	return rep
}

func (m *Monitor) finalLMR() *Report {
	rep := &Report{Property: "LocalMonotonicRead", OK: true, Checked: m.LMRChecked}
	for p := 0; p < len(m.LMRViol); p++ {
		if m.IsFaulty[p] {
			continue
		}
		for _, pair := range m.LMRViol[p] {
			if len(rep.Violations) == MaxViolations {
				return rep
			}
			prevOp, curOp := m.rebuild(pair.Prev), m.rebuild(pair.Cur)
			rep.witness([]*history.Op{prevOp, curOp}, []core.BlockID{pair.Prev.Head, pair.Cur.Head},
				"process %d: score dropped %d → %d (%s then %s)",
				p, pair.Prev.Score, pair.Cur.Score, prevOp, curOp)
		}
	}
	return rep
}

func (m *Monitor) finalSP() *Report {
	rep := &Report{Property: "StrongPrefix", OK: true}
	if m.NReads < 2 {
		return rep
	}
	rep.Checked = m.NReads - 1
	lens := make([]int, 0, len(m.SPLens))
	for l := range m.SPLens {
		lens = append(lens, l)
	}
	sort.Ints(lens)
	var prev opRec
	havePrev := false
	for _, l := range lens {
		sl := m.SPLens[l]
		for _, run := range sl.Runs {
			// Interned reads are cleared by the O(Δheight) ancestor probe
			// (prev is never the longer chain, so comparable means
			// prefix); only a pair the probe cannot clear — a violation,
			// an eager chain, no table — has its chains materialized.
			interned := prev.chain == nil && run.First.chain == nil
			if havePrev && prev.key() != run.First.key() &&
				!(interned && m.comparable(prev.key(), run.First.key())) {
				pOp, cOp := m.rebuild(prev), m.rebuild(run.First)
				if !pOp.Chain().Prefix(cOp.Chain()) {
					rep.witness([]*history.Op{pOp, cOp}, []core.BlockID{prev.Head, run.First.Head},
						"incomparable reads: %s vs %s", pOp, cOp)
					if len(rep.Violations) == MaxViolations {
						return rep
					}
				}
			}
			prev, havePrev = run.Last, true
		}
		// Cross-length boundaries pair this length's true last read
		// with the next length's first (exact even when runs were
		// truncated — truncation implies the report filled above).
		prev, havePrev = sl.Last, true
	}
	return rep
}

func (m *Monitor) finalEGT() *Report {
	rep := &Report{Property: "EverGrowingTree", OK: true, Checked: m.NReads}
	if len(m.Win) == 0 {
		return rep
	}
	// A read of score s is a witness only if, among the window reads after
	// it, one scores ≤ s and one scores > s: only the classes with
	// lo ≤ s < hi, lo and hi the window's extreme scores, can hold one.
	// The others — every class, on a converged window — are skipped
	// unmerged; skipping witness-free reads changes neither the order of
	// the rest nor where the enumeration stops.
	lo, hi := m.Win[0].Score, m.Win[0].Score
	for _, t := range m.Win[1:] {
		lo, hi = min(lo, t.Score), max(hi, t.Score)
	}
	for _, r := range mergedByInv(m.Classes, func(s int) bool { return lo <= s && s < hi }) {
		maxT := -1
		stale := -1
		for j := range m.Win {
			t := &m.Win[j]
			if r.Pending || r.Rsp >= t.Inv { // !r.Before(t)
				continue
			}
			if t.Score > maxT {
				maxT = t.Score
			}
			if t.Score <= r.Score && stale < 0 {
				stale = j
			}
		}
		if stale >= 0 && maxT > r.Score {
			rOp, sOp := m.rebuild(r), m.rebuild(m.Win[stale])
			rep.witness([]*history.Op{rOp, sOp}, []core.BlockID{r.Head, m.Win[stale].Head},
				"stagnation persists after %s: final-window read %s has score ≤ %d while the window grew to %d",
				rOp, sOp, r.Score, maxT)
			if len(rep.Violations) == MaxViolations {
				rep.Checked = r.Ord + 1 // the enumeration stops here
				return rep
			}
		}
	}
	return rep
}

// epChecked returns the Checked contribution of the reads at
// correct-read positions below upto, assuming atomic completed
// operations: every pre-window read sees all w window reads after it, so
// it examines w(w−1)/2 pairs; the window member at position j sees the
// k = w−1−j later ones. O(w), whatever the counters say — they may have
// come from a checkpoint file.
func (m *Monitor) epChecked(upto int) int {
	w := len(m.Win)
	nonWin := m.NReads - w
	sum := min(upto, nonWin) * (w * (w - 1) / 2)
	for ord := max(nonWin, 0); ord < min(upto, m.NReads); ord++ {
		k := w - 1 - (ord - nonWin)
		sum += k * (k - 1) / 2
	}
	return sum
}

func (m *Monitor) finalEP() *Report {
	rep := &Report{Property: "EventualPrefix", OK: true}
	tail := m.Win
	w := len(tail)

	// Window chains are materialized only for a pair of distinct keys:
	// a converged window needs none.
	chains := make([]core.Chain, w)
	chainOf := func(i int) core.Chain {
		if chains[i] == nil {
			chains[i] = m.rebuild(tail[i]).Chain()
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
		sx := tail[x].Score
		for y := x + 1; y < w; y++ {
			sy := tail[y].Score
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

	rep.Checked = m.epChecked(m.NReads)
	if !divergent {
		return rep
	}

	// Divergence in the window: run the literal enumeration over the
	// retained candidates (provably a superset of the reported reads). A
	// read of score s is a witness only over a pair with mcps < s, so the
	// classes with s ≤ lowest hold none and are skipped, as in finalEGT.
	for _, r := range mergedByInv(m.Classes, func(s int) bool { return s > lowest }) {
		var after []int
		for j := range tail {
			if !r.Pending && r.Rsp < tail[j].Inv { // r.Before(tail[j])
				after = append(after, j)
			}
		}
		pairs := 0
		for x := 0; x < len(after); x++ {
			for y := x + 1; y < len(after); y++ {
				pairs++
				ax, ay := after[x], after[y]
				mm := mcps[ax][ay]
				bound := r.Score
				if sa := tail[ax].Score; sa < bound {
					bound = sa
				}
				if sb := tail[ay].Score; sb < bound {
					bound = sb
				}
				if mm < bound {
					rOp, aOp, bOp := m.rebuild(r), m.rebuild(tail[ax]), m.rebuild(tail[ay])
					rep.witness([]*history.Op{rOp, aOp, bOp},
						[]core.BlockID{tail[ax].Head, tail[ay].Head},
						"after %s (score %d) final-window reads still diverge: mcps(%s, %s)=%d < %d",
						rOp, r.Score, aOp, bOp, mm, bound)
					if len(rep.Violations) == MaxViolations {
						// The enumeration stops here: pairs before this
						// read, plus the pairs it examined.
						rep.Checked = m.epChecked(r.Ord) + pairs
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
	toks := make([]string, 0, len(m.Tokens))
	for tok := range m.Tokens {
		toks = append(toks, tok)
	}
	sort.Strings(toks)
	for _, tok := range toks {
		group := append([]opRec(nil), m.Tokens[tok]...)
		sort.Slice(group, func(i, j int) bool { return group[i].Inv < group[j].Inv })
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
	// InFlight counts the messages Update Agreement and LRC hold.
	InFlight int
}

// Stats reports the monitor's consumption counters and retained-state
// sizes.
func (m *Monitor) Stats() MonitorStats {
	st := MonitorStats{
		Ops: m.Ops, Reads: m.NReads, Appends: m.NAppends, Comm: m.NComm,
		ScoreClasses: len(m.Classes), SuspectKeys: len(m.BVSuspects),
		WindowLen: len(m.Win), InFlight: len(m.Msgs),
	}
	st.Retained = len(m.Win)
	for _, s := range m.Classes {
		st.Retained += len(s.Recs)
	}
	for _, s := range m.BVSuspects {
		st.Retained += len(s.Recs)
	}
	for _, v := range m.LMRViol {
		st.Retained += len(v)
	}
	for i := range m.LMRHas {
		if m.LMRHas[i] {
			st.Retained++
		}
	}
	for _, sl := range m.SPLens {
		st.Retained += 2*len(sl.Runs) + 1
	}
	for _, g := range m.Tokens {
		st.Retained += len(g)
	}
	return st
}

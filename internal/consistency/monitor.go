// The Monitor: the engine that evaluates every property this package
// defines, in incremental form. A Monitor implements history.Sink —
// operations and communication events are fed to it the moment they are
// recorded, or replayed from a retained History — and maintains O(tree +
// window + messages in flight) state instead of the whole history:
//
//   - StrongPrefix: per-chain-length run-length structure over the
//     interned chain handles, plus a live comparability probe against
//     the longest chain read so far;
//   - 1-/k-ForkCoherence: the append table, grouped by token when a
//     report asks; an armed monitor counts per token and flags live the
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
// Cost per read: O(1) amortized under the length score, while the
// append of every block read is eventually recorded. Every read is an
// interned (head, length) handle on the run's block index. The length
// score is the read's recorded chain length, and the Block Validity fact
// of a chain not seen before is extended from that of the nearest
// ancestor chain already read, by walking parent links in the index
// (extendFact), so over a run P examines each block about once and no
// chain is materialized while streaming. A block whose append is never
// recorded (a Byzantine block that bypassed append()) makes every
// distinct chain through it re-walk from below that block, O(distance to
// it). Any other Score materializes each distinct chain once to score
// it, O(height). Finalize materializes chains only for Block Validity
// suspects, violations and distinct chains inside the final window.
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
//     deployment's segment sink: OK flags and the set of violated
//     properties are identical. Strong Prefix breaks ties between reads
//     of equal chain length by arrival, so the incomparable *pairs* it
//     reports may differ from those a Checker replay of the same
//     retained history reports (a run's Result.Check() is this monitor's
//     verdict, not that replay), and the Checked counts of a full
//     EverGrowingTree report and of EventualPrefix are reconstructed
//     from arrival positions.
//
// Boundedness: retained state is O(#blocks + #distinct chains + w +
// MaxViolations·(#distinct scores + #suspect chains) + #appends +
// procs·#messages in flight), with MaxViolations+procs−1 in
// place of MaxViolations when operations overlap — all bounded by the
// block tree, the window and what the network has not delivered yet
// (only a cut that never heals keeps a message in flight, which Update
// Agreement and LRC then report), never by the number of reads or
// messages.
//
// Candidate retention (the "staircase" argument): within a retention
// class (a score class for EGT/EP, a suspect chain for BV) a violated
// read makes every classmate with an earlier-or-equal response violated.
// A classmate invoked earlier that responded no later dominates a read,
// and a class drops a read that arrives dominated by MaxViolations kept
// classmates: were it violated, they would fill the report before the
// enumeration (invocation order) reached it, so it is neither a witness
// nor where EGT's and EP's Checked stop. Fed in invocation or in
// response order, any other classmate kept before a kept read spans it,
// at most one per other process: a class holds at most
// MaxViolations+procs−1 reads, MaxViolations when ops are atomic.
package consistency

import (
	"cmp"
	"fmt"
	"iter"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"

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
	// K, when > 0, arms the live k-Fork Coherence probe: the monitor
	// counts the successful appends per token and emits a witness the
	// moment a token is consumed a (K+1)-th time. KForkReport groups the
	// append table when asked, so it works for any k, armed or not.
	K int
	// Table is the run's block index (the recorder's): incremental
	// scoring and validity facts walk its parent links, witness
	// reconstruction materializes chains from it, and Update Agreement
	// reads a block's creator off it. Nil means a fresh index, which
	// knows no block but genesis: a monitor fed a recorder's reads must
	// be given its Table, or materializing a read panics.
	Table *core.Index
	// OnWitness, when set, receives each violation witness the moment
	// it forms, on the goroutine feeding the monitor: under the
	// recorder's lock when the monitor is the recorder's sink, on the
	// segment's own goroutine behind an overlapped SegmentSink (every
	// WithStreaming run), on the consumer goroutine of a live run. Keep
	// it fast and do not call back into the recorder. Live witnesses for
	// the window properties (EverGrowingTree, EventualPrefix) cannot
	// exist — those violations are defined over the final window and
	// only form at Finalize; live StrongPrefix witnesses are advisory
	// incomparable pairs (the exact witness set comes from Finalize).
	OnWitness func(Witness)
}

// opRec is the compact record of one operation the monitors retain:
// everything needed to rebuild the op for a witness, nothing that
// retains the history (a read re-materializes its chain from the table).
// An append's record is kept once, in the append table; a read's in each
// retention structure that keeps the read.
// The exported fields are what a checkpoint writes as they stand; block
// is a pointer into the run and goes through recWire (checkpoint.go).
//
// A record is 80 bytes (TestOpRecLayout): the int32s and the flags share
// the first 24, and a value past an int32 panics (narrow).
type opRec struct {
	ID, Proc    int32
	ChainLen    int32
	Score       int32 // read score (reads only)
	Ord         int32 // position in the correct-read order (reads only)
	Kind        history.OpKind
	OK, Pending bool
	Head        core.BlockID
	Inv, Rsp    int
	InvT, RspT  int64
	block       *core.Block
}

func (r *opRec) key() chainKey { return chainKey{r.Head, int(r.ChainLen)} }

func recOf(op *history.Op) opRec {
	return opRec{
		ID: narrow(op.ID, "operation id"), Proc: narrow(op.Proc, "process"),
		ChainLen: narrow(op.ChainLen, "chain length"),
		Kind:     op.Kind, OK: op.OK, Pending: op.Pending,
		Head: op.Head, Inv: op.InvIndex, Rsp: op.RspIndex,
		InvT: op.InvTime, RspT: op.RspTime, block: op.Block,
	}
}

// narrow returns v as the int32 an opRec keeps it in; a value past the
// bound panics and names it.
func narrow(v int, what string) int32 {
	if v < math.MinInt32 || v > math.MaxInt32 {
		panic(fmt.Sprintf("consistency: %s %d is past the monitor's bound of %d", what, v, math.MaxInt32))
	}
	return int32(v)
}

// appendTable holds every append operation fed with a block, one record
// each in arrival order: Block Validity's evidence that a block was
// passed to append() (Monitor.appendAt points at a block's
// earliest-invoked record) and k-Fork Coherence's successful appends
// (KForkReport groups them by token when asked). The records go into
// fixed-capacity chunks, doubling from appendChunkMin to appendChunkMax,
// that are filled and never regrown, so a record is written once and a
// pointer to it stays valid. ok counts the successful (completed, OK)
// appends. A checkpoint writes the records as one list (checkpoint.go),
// and decoding adds them back one by one, so the chunks are the same
// after a restore.
type appendTable struct {
	chunks [][]opRec
	ok     int
}

// appendChunkMin/appendChunkMax bound the append table's chunks.
const (
	appendChunkMin = 64
	appendChunkMax = 4096
)

// succeeded reports whether an append record counts for k-Fork
// Coherence: completed, and successful.
func (r *opRec) succeeded() bool { return r.OK && !r.Pending }

// add appends r to the table and returns it in place.
func (t *appendTable) add(r opRec) *opRec {
	last := len(t.chunks) - 1
	if last < 0 || len(t.chunks[last]) == cap(t.chunks[last]) {
		n := appendChunkMin
		if last >= 0 {
			n = min(2*cap(t.chunks[last]), appendChunkMax)
		}
		t.chunks = append(t.chunks, make([]opRec, 0, n))
		last++
	}
	t.chunks[last] = append(t.chunks[last], r)
	if r.succeeded() {
		t.ok++
	}
	return &t.chunks[last][len(t.chunks[last])-1]
}

// all yields every record in place, in arrival order.
func (t *appendTable) all() iter.Seq[*opRec] {
	return func(yield func(*opRec) bool) {
		for _, c := range t.chunks {
			for i := range c {
				if !yield(&c[i]) {
					return
				}
			}
		}
	}
}

// tokenKey names a k-Fork Coherence group: a block's token, or for a
// block without one its parent, rendered "parent:<id>". A token of that
// spelling names the parent's group, as the rendering does.
type tokenKey struct {
	Token  string
	Parent core.BlockID
}

func tokenOf(b *core.Block) tokenKey {
	if b.Token == "" {
		return tokenKey{Parent: b.Parent}
	}
	if p, ok := strings.CutPrefix(b.Token, "parent:"); ok {
		return tokenKey{Parent: core.BlockID(p)}
	}
	return tokenKey{Token: b.Token}
}

func (k tokenKey) String() string {
	if k.Token != "" {
		return k.Token
	}
	return "parent:" + string(k.Parent)
}

// recSet holds a retention class's reads by invocation index (equal
// indices by arrival), less those that arrive dominated by MaxViolations
// kept classmates. Every feed is in invocation or in response order, and
// in neither does a later arrival dominate a kept read, so nothing kept
// is dropped later; a feed of mixed order would need that eviction.
type recSet struct{ Recs []opRec }

// dominated reports whether MaxViolations of rs responded no later than r.
func dominated(rs []opRec, r *opRec) bool {
	n := 0
	for i := 0; i < len(rs) && n < MaxViolations; i++ {
		if rs[i].Rsp <= r.Rsp {
			n++
		}
	}
	return n == MaxViolations
}

// insert keeps r unless it arrives dominated. The slice grows on demand;
// r is copied only if it is kept.
func (s *recSet) insert(r *opRec) {
	i := len(s.Recs)
	if i > 0 && s.Recs[i-1].Inv > r.Inv {
		i = sort.Search(i, func(j int) bool { return s.Recs[j].Inv > r.Inv })
	}
	if !dominated(s.Recs[:i], r) {
		s.Recs = slices.Insert(s.Recs, i, *r)
	}
}

// bvFact is the incremental Block Validity scan of one distinct chain.
// A fact computed at arrival time stays conclusive on the pass side:
// later appends only add blocks or lower earliest-invocation indices,
// so arrival-clean chains are final-clean and arrival-passing bounds
// keep passing. Reads that fail at arrival become suspects, re-resolved
// against the final append index at Finalize.
//
// The fact of a read is not scanned from genesis but extended,
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

	// Appends is every append fed with a block: Block Validity reads it
	// through Monitor.appendAt, k-Fork Coherence groups it by token.
	Appends appendTable

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
	k       int
	onWitns func(Witness)

	monitorState

	// Rebuilt from the append table (fileAppend): each block's
	// earliest-invoked append, and, armed (k > 0) only, the count of
	// successful appends per token.
	appendAt map[core.BlockID]*opRec
	kCount   map[tokenKey]int

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
	w := cfg.Horizon
	if w <= 0 {
		w = cfg.Procs
		if w < 2 {
			w = 2
		}
	}
	if cfg.Table == nil {
		cfg.Table = core.NewIndex()
	}
	m := &Monitor{
		score:   cfg.Score,
		pred:    cfg.P,
		table:   cfg.Table,
		procs:   cfg.Procs,
		window:  w,
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
			Msgs:       make(map[msgKey]*msgState),
			Settled:    make(map[msgKey]bool),
		},
		appendAt: make(map[core.BlockID]*opRec),
	}
	if m.k > 0 {
		m.kCount = make(map[tokenKey]int)
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
	rec.Pending = pending
	if n := m.fileAppend(m.Appends.add(rec)); m.k <= 0 || n != m.k+1 || m.LiveKF >= MaxViolations {
		return
	}
	// The token's (K+1)-th successful append: its group, in arrival order.
	m.LiveKF++
	key := tokenOf(op.Block)
	group := m.tokenGroups()[key]
	ops, blocks := m.forkWitness(group)
	m.emit(Witness{
		Property: fmt.Sprintf("%d-ForkCoherence", m.k),
		Ops:      ops, Blocks: blocks,
		Detail: fmt.Sprintf("token %q consumed by %d successful appends (k=%d): forks %s",
			key, len(group), m.k, shortIDs(blocks)),
	})
}

// fileAppend indexes a record of the append table: under its block when
// it is the block's earliest-invoked append (ties keep the first), and,
// armed, under its token when it succeeded. It returns the token's count
// of successful appends so far, 0 when it did not count one.
func (m *Monitor) fileAppend(r *opRec) int {
	if cur, ok := m.appendAt[r.block.ID]; !ok || r.Inv < cur.Inv {
		m.appendAt[r.block.ID] = r
	}
	if m.k <= 0 || !r.succeeded() {
		return 0
	}
	key := tokenOf(r.block)
	m.kCount[key]++
	return m.kCount[key]
}

// tokenGroups groups the append table's successful appends by token,
// each group in arrival order.
func (m *Monitor) tokenGroups() map[tokenKey][]*opRec {
	groups := map[tokenKey][]*opRec{}
	for r := range m.Appends.all() {
		if r.succeeded() {
			key := tokenOf(r.block)
			groups[key] = append(groups[key], r)
		}
	}
	return groups
}

// forkWitness renders a token's group for a k-Fork Coherence witness.
func (m *Monitor) forkWitness(group []*opRec) ([]*history.Op, []core.BlockID) {
	ops := make([]*history.Op, len(group))
	blocks := make([]core.BlockID, len(group))
	for i, r := range group {
		ops[i], blocks[i] = m.rebuild(*r), r.block.ID
	}
	return ops, blocks
}

func (m *Monitor) consumeRead(op *history.Op) {
	if m.IsFaulty[op.Proc] {
		return
	}
	rec := recOf(op)
	rec.Score = narrow(m.scoreOfOp(op), "read score")
	rec.Ord = narrow(m.NReads, "read ordinal")
	m.NReads++

	// LocalMonotonicRead, MonotonicPrefix: against p's previous read.
	if p := int(rec.Proc); p >= 0 && p < len(m.LMRPrev) {
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
		set.insert(&rec)
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
	cls := m.Classes[int(rec.Score)]
	if cls == nil {
		cls = &recSet{}
		m.Classes[int(rec.Score)] = cls
	}
	cls.insert(&rec)

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
	sl := m.SPLens[int(rec.ChainLen)]
	if sl == nil {
		sl = &spLen{}
		m.SPLens[int(rec.ChainLen)] = sl
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
	if keysComparable(m.table, k, maxK) {
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

// extendFact builds a read's fact from the fact of its nearest
// already-read ancestor chain that is extendable (see bvFact): it walks
// parent links in the table from the read's head towards genesis until
// it meets one, then folds the blocks passed into a copy of it. Reads
// mostly return the chain of a recent read plus a block or two, so the
// walk is O(1) amortized where the materialization is O(height). It
// returns nil when the walk breaks — a missing ancestor, a height that
// does not match — and the caller scans the materialized chain.
func (m *Monitor) extendFact(op *history.Op) *bvFact {
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
	ap, ok := m.appendAt[b.ID]
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
	if r.Kind == history.OpRead && r.ChainLen > 0 && m.table.Block(r.Head) == nil {
		panic(fmt.Sprintf("consistency: read %d's head %s is not in the monitor's table (MonitorConfig.Table must be the recorder's)",
			r.ID, r.Head.Short()))
	}
	op := &history.Op{
		ID: int(r.ID), Proc: int(r.Proc), Kind: r.Kind, Block: r.block, OK: r.OK,
		Head: r.Head, ChainLen: int(r.ChainLen), InvIndex: r.Inv, RspIndex: r.Rsp,
		InvTime: r.InvT, RspTime: r.RspT, Pending: r.Pending,
	}
	op.SetSource(m.table)
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

// Outcome is what a run's online monitor reached, under either driver:
// the verdicts, the count of witnesses streamed while the run went on,
// the retained-state summary and the finished monitor, which answers the
// reports beyond the verdicts. MonitorErr, when set, is all it holds.
type Outcome struct {
	Verdicts
	LiveWitnesses int
	MonitorStats  MonitorStats
	MonitorErr    error
	Monitor       *Monitor
}

// Finish ends a run's monitoring: it feeds the operations left pending,
// finalizes, and adds the k-Fork Coherence report when k > 0. When err,
// a failure of the monitor mid-run, is set, Finish returns it alone and
// leaves the half-updated monitor untouched.
func (m *Monitor) Finish(pending []*history.Op, k int, err error) Outcome {
	if err != nil {
		return Outcome{MonitorErr: err}
	}
	for _, op := range pending {
		m.OpPending(op)
	}
	sc, ec := m.Finalize()
	o := Outcome{Verdicts: Verdicts{SC: sc, EC: ec}, LiveWitnesses: m.LiveTotal, MonitorStats: m.Stats(), Monitor: m}
	if k > 0 {
		o.KFork = m.KForkReport(k)
	}
	return o
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
			ap, ok := m.appendAt[b.ID]
			if !ok {
				rep.witness([]*history.Op{r}, []core.BlockID{b.ID},
					"read %s returned block %s never passed to append()", r, b.ID.Short())
				continue
			}
			if ap.Inv >= rec.Rsp {
				rep.witness([]*history.Op{r, m.rebuild(*ap)}, []core.BlockID{b.ID},
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
			// A pair is cleared by the O(Δheight) ancestor probe (prev is
			// never the longer chain, so comparable means prefix); only a
			// pair the probe cannot clear — a violation, a chain the
			// table cannot walk — has its chains materialized.
			if havePrev && !keysComparable(m.table, prev.key(), run.First.key()) {
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
	lo, hi := int(m.Win[0].Score), int(m.Win[0].Score)
	for _, t := range m.Win[1:] {
		lo, hi = min(lo, int(t.Score)), max(hi, int(t.Score))
	}
	for _, r := range mergedByInv(m.Classes, func(s int) bool { return lo <= s && s < hi }) {
		maxT := int32(-1)
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
				rep.Checked = int(r.Ord) + 1 // the enumeration stops here
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
	mcpsOf := func(x, y int) int {
		if tail[x].key() == tail[y].key() {
			return int(tail[x].Score)
		}
		return core.MCPS(m.score, chainOf(x), chainOf(y))
	}
	// lowest is the least mcps of a divergent window pair (divergent:
	// below both its reads' scores).
	divergent, lowest := false, 0
	for x := 0; x < w; x++ {
		for y := x + 1; y < w; y++ {
			if mm := mcpsOf(x, y); mm < int(min(tail[x].Score, tail[y].Score)) {
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
	// A pair's mcps is computed again here, once per pair of head keys.
	memo := map[[2]chainKey]int{}
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
				pk := [2]chainKey{tail[ax].key(), tail[ay].key()}
				mm, ok := memo[pk]
				if !ok {
					mm = mcpsOf(ax, ay)
					memo[pk] = mm
				}
				bound := int(min(r.Score, tail[ax].Score, tail[ay].Score))
				if mm < bound {
					rOp, aOp, bOp := m.rebuild(r), m.rebuild(tail[ax]), m.rebuild(tail[ay])
					rep.witness([]*history.Op{rOp, aOp, bOp},
						[]core.BlockID{tail[ax].Head, tail[ay].Head},
						"after %s (score %d) final-window reads still diverge: mcps(%s, %s)=%d < %d",
						rOp, r.Score, aOp, bOp, mm, bound)
					if len(rep.Violations) == MaxViolations {
						// The enumeration stops here: pairs before this
						// read, plus the pairs it examined.
						rep.Checked = m.epChecked(int(r.Ord)) + pairs
						return rep
					}
				}
			}
		}
	}
	return rep
}

// KForkReport builds the k-Fork Coherence report (Definition 3.9) for
// any k: it groups the append table's successful appends by token, in
// token order, each group by invocation. Callable before or after
// Finalize.
func (m *Monitor) KForkReport(k int) *Report {
	rep := &Report{Property: fmt.Sprintf("%d-ForkCoherence", k), OK: true}
	groups := map[string][]*opRec{}
	for key, g := range m.tokenGroups() {
		groups[key.String()] = g
	}
	for _, tok := range slices.Sorted(maps.Keys(groups)) {
		group := groups[tok]
		slices.SortFunc(group, func(a, b *opRec) int { return cmp.Compare(a.Inv, b.Inv) })
		rep.Checked++
		if len(group) > k {
			ops, blocks := m.forkWitness(group)
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
	// monitors (window, candidates, suspects, LMR, SP runs), and one per
	// successful append; the append table's failed and pending appends
	// are not counted.
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
	st.Retained += m.Appends.ok
	return st
}

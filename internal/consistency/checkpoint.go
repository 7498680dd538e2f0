// Monitor checkpointing: Checkpoint serializes every piece of a
// Monitor's bounded retained state — counters, caches, windows,
// candidate sets, token groups and the live-emission budgets — into a
// deterministic byte string, and RestoreMonitor rebuilds a monitor from
// it that is observationally identical to the original: feeding the
// rest of the stream and calling Finalize yields byte-identical
// verdicts, witnesses and Checked counts, exactly as if the run had
// never been interrupted. This is what makes a crashed-and-recovered
// monitoring process equivalent to an uninterrupted one (the
// crash–recovery fault model's observer side).
//
// Two caches demand care because they are *arrival-conclusive*: the
// per-chain Block Validity facts and the per-chain scores are computed
// when a chain is first read, and the monitor's equivalence contract
// depends on reusing the arrival-time value, not a recomputation
// against a later append index. Both are therefore serialized verbatim
// and never recomputed on restore.
//
// Determinism of the bytes themselves: every map is flattened into a
// slice sorted by its key (chain keys by (head, length), block pools by
// ID, token groups by token), so the same monitor state always
// marshals to the same bytes — checkpoint digests can be pinned.
//
// Self-containment: the checkpoint embeds a block pool covering every
// block a retained record can reference — append arguments, eagerly
// recorded chains, and the interned chains behind retained read heads —
// so RestoreMonitor works with a fresh table (a recovered process that
// lost its recorder) as well as with the live run's table. Restoring
// interns the pool into whichever table is used; for histories honoring
// the Recorder invariant (every attached block is interned) this is a
// no-op, which is what keeps restored-monitor renderings byte-identical
// to the uninterrupted run's.
package consistency

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/history"
)

// checkpointVersion guards the wire format.
const checkpointVersion = 1

// ckKey is the serialized form of a chainKey.
type ckKey struct {
	Head core.BlockID
	N    int
}

func (k ckKey) less(o ckKey) bool {
	if k.Head != o.Head {
		return k.Head < o.Head
	}
	return k.N < o.N
}

// ckRec is the serialized form of an opRec. Block pointers are flattened
// to IDs against the checkpoint's block pool.
type ckRec struct {
	ID, Proc   int
	Kind       history.OpKind
	OK         bool `json:",omitempty"`
	Pending    bool `json:",omitempty"`
	Head       core.BlockID
	ChainLen   int
	Inv, Rsp   int
	InvT, RspT int64
	Block      core.BlockID   `json:",omitempty"`
	Chain      []core.BlockID `json:",omitempty"` // eager chain only
	HasChain   bool           `json:",omitempty"`
	Score, Ord int
}

type ckScore struct {
	Key   ckKey
	Score int
}

type ckFact struct {
	Key          ckKey
	Clean        bool
	MaxAppendInv int
	NonGenesis   int
	FirstInvalid core.BlockID
	HasInvalid   bool
}

type ckSet struct {
	Key       ckKey
	Recs      []ckRec
	Truncated bool
}

type ckClass struct {
	Score     int
	Recs      []ckRec
	Truncated bool
}

type ckRun struct {
	Key         ckKey
	First, Last ckRec
	N           int
}

type ckSPLen struct {
	Len       int
	Runs      []ckRun
	Truncated bool
	Last      ckRec
	Count     int
}

type ckLMRPair struct{ Prev, Cur ckRec }

type ckAppend struct {
	Block core.BlockID
	Rec   ckRec
}

type ckToken struct {
	Token string
	Recs  []ckRec
}

// ckpt is the full serialized monitor state.
type ckpt struct {
	Version int

	Procs, Window, K int

	Faulty []int

	Ops, NReads, NAppends, NComm int

	Scores []ckScore

	Win []ckRec

	LMRPrev    []ckRec
	LMRHas     []bool
	LMRViol    [][]ckLMRPair
	LMRChecked int

	SPLens   []ckSPLen
	SPMax    ckRec
	SPHasMax bool
	SPCmp    []ckKey

	Classes []ckClass

	BVFacts    []ckFact
	BVSuspects []ckSet
	BVChecked  int
	AppendInv  []ckAppend

	Tokens []ckToken

	LiveLMR, LiveSP, LiveBV, LiveKF, LiveTotal int

	Pool []*core.Block
}

// poolCollector gathers every block a retained record references.
type poolCollector struct {
	table  *history.ChainTable
	blocks map[core.BlockID]*core.Block
}

func (pc *poolCollector) addBlock(b *core.Block) {
	if b == nil {
		return
	}
	if _, ok := pc.blocks[b.ID]; !ok {
		pc.blocks[b.ID] = b
	}
}

func (pc *poolCollector) addRec(r opRec) {
	pc.addBlock(r.block)
	for _, b := range r.chain {
		pc.addBlock(b)
	}
	// Interned read: pull the chain behind the head from the table so
	// the checkpoint stays self-contained for table-less restores.
	if r.kind == history.OpRead && r.chain == nil && r.head != "" && pc.table != nil {
		for _, b := range pc.table.ChainToUncached(r.head) {
			pc.addBlock(b)
		}
	}
}

func ckOf(r opRec) ckRec {
	c := ckRec{
		ID: r.id, Proc: r.proc, Kind: r.kind, OK: r.ok, Pending: r.pending,
		Head: r.head, ChainLen: r.chainLen, Inv: r.inv, Rsp: r.rsp,
		InvT: r.invT, RspT: r.rspT, Score: r.score, Ord: r.ord,
	}
	if r.block != nil {
		c.Block = r.block.ID
	}
	if r.chain != nil {
		c.HasChain = true
		c.Chain = make([]core.BlockID, len(r.chain))
		for i, b := range r.chain {
			c.Chain[i] = b.ID
		}
	}
	return c
}

func ckRecs(rs []opRec) []ckRec {
	out := make([]ckRec, len(rs))
	for i, r := range rs {
		out[i] = ckOf(r)
	}
	return out
}

// Checkpoint serializes the monitor's retained state. The bytes are
// deterministic (identical state marshals identically) and
// self-contained (the embedded block pool covers every referenced
// block). Checkpointing is cheap relative to the run — O(retained
// state), which is bounded (see the Monitor package comment) — and does
// not perturb the monitor. A finalized monitor checkpoints its
// pre-finalization state; Finalize after restore recomputes the same
// verdicts (it only reads the retained structures).
func (m *Monitor) Checkpoint() ([]byte, error) {
	pc := &poolCollector{table: m.table, blocks: map[core.BlockID]*core.Block{}}

	ck := &ckpt{
		Version: checkpointVersion,
		Procs:   m.procs, Window: m.window, K: m.k,
		Ops: m.ops, NReads: m.nreads, NAppends: m.nappends, NComm: m.ncomm,
		LMRChecked: m.lmrChecked,
		SPHasMax:   m.spHasMax,
		BVChecked:  m.bvChecked,
		LiveLMR:    m.liveLMR, LiveSP: m.liveSP, LiveBV: m.liveBV, LiveKF: m.liveKF,
		LiveTotal: m.liveTotal,
	}

	for p := range m.faulty {
		if m.faulty[p] {
			ck.Faulty = append(ck.Faulty, p)
		}
	}
	sort.Ints(ck.Faulty)

	ck.Scores = make([]ckScore, 0, len(m.scoreByKey))
	for k, s := range m.scoreByKey {
		ck.Scores = append(ck.Scores, ckScore{Key: ckKey{k.head, k.n}, Score: s})
	}
	sort.Slice(ck.Scores, func(i, j int) bool { return ck.Scores[i].Key.less(ck.Scores[j].Key) })

	for _, r := range m.win {
		pc.addRec(r)
	}
	ck.Win = ckRecs(m.win)

	ck.LMRPrev = make([]ckRec, len(m.lmrPrev))
	ck.LMRHas = append([]bool(nil), m.lmrHas...)
	for p := range m.lmrPrev {
		if m.lmrHas[p] {
			pc.addRec(m.lmrPrev[p])
			ck.LMRPrev[p] = ckOf(m.lmrPrev[p])
		}
	}
	ck.LMRViol = make([][]ckLMRPair, len(m.lmrViol))
	for p, pairs := range m.lmrViol {
		for _, pr := range pairs {
			pc.addRec(pr.prev)
			pc.addRec(pr.cur)
			ck.LMRViol[p] = append(ck.LMRViol[p], ckLMRPair{Prev: ckOf(pr.prev), Cur: ckOf(pr.cur)})
		}
	}

	lens := make([]int, 0, len(m.spLens))
	for l := range m.spLens {
		lens = append(lens, l)
	}
	sort.Ints(lens)
	for _, l := range lens {
		sl := m.spLens[l]
		e := ckSPLen{Len: l, Truncated: sl.truncated, Count: sl.count, Last: ckOf(sl.last)}
		pc.addRec(sl.last)
		for _, run := range sl.runs {
			pc.addRec(run.first)
			pc.addRec(run.last)
			e.Runs = append(e.Runs, ckRun{
				Key: ckKey{run.key.head, run.key.n}, First: ckOf(run.first), Last: ckOf(run.last), N: run.n,
			})
		}
		ck.SPLens = append(ck.SPLens, e)
	}
	if m.spHasMax {
		pc.addRec(m.spMax)
		ck.SPMax = ckOf(m.spMax)
	}
	for k := range m.spCmp {
		if m.spCmp[k] {
			ck.SPCmp = append(ck.SPCmp, ckKey{k.head, k.n})
		}
	}
	sort.Slice(ck.SPCmp, func(i, j int) bool { return ck.SPCmp[i].less(ck.SPCmp[j]) })

	scores := make([]int, 0, len(m.classes))
	for s := range m.classes {
		scores = append(scores, s)
	}
	sort.Ints(scores)
	for _, s := range scores {
		cls := m.classes[s]
		for _, r := range cls.recs {
			pc.addRec(r)
		}
		ck.Classes = append(ck.Classes, ckClass{Score: s, Recs: ckRecs(cls.recs), Truncated: cls.truncated})
	}

	facts := make([]ckFact, 0, len(m.bvFacts))
	for k, f := range m.bvFacts {
		facts = append(facts, ckFact{
			Key: ckKey{k.head, k.n}, Clean: f.clean, MaxAppendInv: f.maxAppendInv,
			NonGenesis: f.nonGenesis, FirstInvalid: f.firstInvalid, HasInvalid: f.hasInvalid,
		})
	}
	sort.Slice(facts, func(i, j int) bool { return facts[i].Key.less(facts[j].Key) })
	ck.BVFacts = facts

	susKeys := make([]chainKey, 0, len(m.bvSuspects))
	for k := range m.bvSuspects {
		susKeys = append(susKeys, k)
	}
	sort.Slice(susKeys, func(i, j int) bool {
		return (ckKey{susKeys[i].head, susKeys[i].n}).less(ckKey{susKeys[j].head, susKeys[j].n})
	})
	for _, k := range susKeys {
		set := m.bvSuspects[k]
		for _, r := range set.recs {
			pc.addRec(r)
		}
		ck.BVSuspects = append(ck.BVSuspects, ckSet{
			Key: ckKey{k.head, k.n}, Recs: ckRecs(set.recs), Truncated: set.truncated,
		})
	}

	appIDs := make([]core.BlockID, 0, len(m.appendInv))
	for id := range m.appendInv {
		appIDs = append(appIDs, id)
	}
	sort.Slice(appIDs, func(i, j int) bool { return appIDs[i] < appIDs[j] })
	for _, id := range appIDs {
		r := m.appendInv[id]
		pc.addRec(r)
		ck.AppendInv = append(ck.AppendInv, ckAppend{Block: id, Rec: ckOf(r)})
	}

	toks := make([]string, 0, len(m.tokens))
	for tok := range m.tokens {
		toks = append(toks, tok)
	}
	sort.Strings(toks)
	for _, tok := range toks {
		group := m.tokens[tok]
		for _, r := range group {
			pc.addRec(r)
		}
		ck.Tokens = append(ck.Tokens, ckToken{Token: tok, Recs: ckRecs(group)})
	}

	ids := make([]core.BlockID, 0, len(pc.blocks))
	for id := range pc.blocks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	ck.Pool = make([]*core.Block, len(ids))
	for i, id := range ids {
		ck.Pool[i] = pc.blocks[id]
	}

	return json.Marshal(ck)
}

// restoreCtx resolves serialized records back into live ones against
// the restored monitor's table.
type restoreCtx struct {
	table *history.ChainTable
}

func (rc *restoreCtx) rec(c ckRec) (opRec, error) {
	r := opRec{
		id: c.ID, proc: c.Proc, kind: c.Kind, ok: c.OK, pending: c.Pending,
		head: c.Head, chainLen: c.ChainLen, inv: c.Inv, rsp: c.Rsp,
		invT: c.InvT, rspT: c.RspT, score: c.Score, ord: c.Ord,
	}
	if c.Block != "" {
		b := rc.table.Block(c.Block)
		if b == nil {
			return r, fmt.Errorf("consistency: checkpoint references block %s missing from pool", c.Block.Short())
		}
		r.block = b
	}
	if c.HasChain {
		r.chain = make(core.Chain, len(c.Chain))
		for i, id := range c.Chain {
			b := rc.table.Block(id)
			if b == nil {
				return r, fmt.Errorf("consistency: checkpoint chain references block %s missing from pool", id.Short())
			}
			r.chain[i] = b
		}
	}
	return r, nil
}

func (rc *restoreCtx) recs(cs []ckRec) ([]opRec, error) {
	out := make([]opRec, len(cs))
	for i, c := range cs {
		r, err := rc.rec(c)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// checkPoolBlock rejects a checkpoint pool entry no run could have
// interned: the pool comes from a file, and the chain table sizes a
// materialized chain by its head's height.
func checkPoolBlock(b *core.Block) error {
	switch {
	case b == nil:
		return fmt.Errorf("nil block")
	case b.Height < 0:
		return fmt.Errorf("block %s has height %d", b.ID.Short(), b.Height)
	case b.IsGenesis() != (b.Height == 0):
		return fmt.Errorf("block %s at height %d: only genesis has height 0", b.ID.Short(), b.Height)
	case !b.IsGenesis() && b.Parent == "":
		return fmt.Errorf("block %s names no parent", b.ID.Short())
	}
	return nil
}

// RestoreMonitor rebuilds a monitor from a Checkpoint. cfg supplies the
// non-serializable parts — Score, P, Table, OnWitness — and must
// structurally match the checkpointed monitor (Procs, Horizon, K),
// which is validated. A nil cfg.Table gets a fresh table; either way
// the checkpoint's block pool is interned so retained records
// materialize. The restored monitor then consumes the remainder of the
// stream and Finalizes exactly as the original would have.
func RestoreMonitor(data []byte, cfg MonitorConfig) (*Monitor, error) {
	var ck ckpt
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("consistency: corrupt checkpoint: %w", err)
	}
	if ck.Version != checkpointVersion {
		return nil, fmt.Errorf("consistency: checkpoint version %d, want %d", ck.Version, checkpointVersion)
	}
	m := NewMonitor(cfg)
	if m.procs != ck.Procs || m.window != ck.Window || m.k != ck.K {
		return nil, fmt.Errorf("consistency: checkpoint shape (procs=%d, window=%d, k=%d) does not match config (procs=%d, window=%d, k=%d)",
			ck.Procs, ck.Window, ck.K, m.procs, m.window, m.k)
	}
	if m.table == nil {
		m.table = history.NewChainTable()
	}
	for i, b := range ck.Pool {
		if err := checkPoolBlock(b); err != nil {
			return nil, fmt.Errorf("consistency: corrupt checkpoint: pool[%d]: %w", i, err)
		}
		m.table.Intern(b)
	}
	rc := &restoreCtx{table: m.table}

	m.ops, m.nreads, m.nappends, m.ncomm = ck.Ops, ck.NReads, ck.NAppends, ck.NComm
	m.lmrChecked, m.bvChecked = ck.LMRChecked, ck.BVChecked
	m.liveLMR, m.liveSP, m.liveBV, m.liveKF = ck.LiveLMR, ck.LiveSP, ck.LiveBV, ck.LiveKF
	m.liveTotal = ck.LiveTotal

	for _, p := range ck.Faulty {
		m.faulty[p] = true
	}
	for _, s := range ck.Scores {
		m.scoreByKey[chainKey{s.Key.Head, s.Key.N}] = s.Score
	}

	var err error
	if m.win, err = rc.recs(ck.Win); err != nil {
		return nil, err
	}

	if len(ck.LMRHas) != len(m.lmrHas) {
		return nil, fmt.Errorf("consistency: checkpoint LMR state for %d procs, want %d", len(ck.LMRHas), len(m.lmrHas))
	}
	copy(m.lmrHas, ck.LMRHas)
	for p := range ck.LMRPrev {
		if !m.lmrHas[p] {
			continue
		}
		if m.lmrPrev[p], err = rc.rec(ck.LMRPrev[p]); err != nil {
			return nil, err
		}
	}
	for p, pairs := range ck.LMRViol {
		for _, pr := range pairs {
			prev, err := rc.rec(pr.Prev)
			if err != nil {
				return nil, err
			}
			cur, err := rc.rec(pr.Cur)
			if err != nil {
				return nil, err
			}
			m.lmrViol[p] = append(m.lmrViol[p], lmrPair{prev, cur})
		}
	}

	for _, e := range ck.SPLens {
		sl := &spLen{truncated: e.Truncated, count: e.Count}
		if sl.last, err = rc.rec(e.Last); err != nil {
			return nil, err
		}
		for _, run := range e.Runs {
			first, err := rc.rec(run.First)
			if err != nil {
				return nil, err
			}
			last, err := rc.rec(run.Last)
			if err != nil {
				return nil, err
			}
			sl.runs = append(sl.runs, spRun{
				key: chainKey{run.Key.Head, run.Key.N}, first: first, last: last, n: run.N,
			})
		}
		m.spLens[e.Len] = sl
	}
	m.spHasMax = ck.SPHasMax
	if ck.SPHasMax {
		if m.spMax, err = rc.rec(ck.SPMax); err != nil {
			return nil, err
		}
	}
	for _, k := range ck.SPCmp {
		m.spCmp[chainKey{k.Head, k.N}] = true
	}

	for _, e := range ck.Classes {
		recs, err := rc.recs(e.Recs)
		if err != nil {
			return nil, err
		}
		m.classes[e.Score] = &recSet{recs: recs, truncated: e.Truncated}
	}

	for _, f := range ck.BVFacts {
		m.bvFacts[chainKey{f.Key.Head, f.Key.N}] = &bvFact{
			clean: f.Clean, maxAppendInv: f.MaxAppendInv, nonGenesis: f.NonGenesis,
			firstInvalid: f.FirstInvalid, hasInvalid: f.HasInvalid,
		}
	}
	for _, e := range ck.BVSuspects {
		recs, err := rc.recs(e.Recs)
		if err != nil {
			return nil, err
		}
		m.bvSuspects[chainKey{e.Key.Head, e.Key.N}] = &recSet{recs: recs, truncated: e.Truncated}
	}
	for _, e := range ck.AppendInv {
		if m.appendInv[e.Block], err = rc.rec(e.Rec); err != nil {
			return nil, err
		}
	}
	for _, e := range ck.Tokens {
		if m.tokens[e.Token], err = rc.recs(e.Recs); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Monitor checkpointing: Checkpoint serializes every piece of a
// Monitor's bounded retained state — counters, caches, windows,
// candidate sets, the append table and the live-emission budgets — into a
// deterministic byte string, and RestoreMonitor rebuilds a monitor from
// it that is observationally identical to the original: feeding the
// rest of the stream and calling Finalize yields byte-identical
// verdicts, witnesses and Checked counts, exactly as if the run had
// never been interrupted. This is what makes a crashed-and-recovered
// monitoring process equivalent to an uninterrupted one (the
// crash–recovery fault model's observer side).
//
// The retained state has one declaration, monitorState (monitor.go), and
// the checkpoint is that struct through encoding/json: its structures
// marshal as themselves and chainKey and msgKey are text keys. Only
// opRec has a second form (recWire below), because it holds pointers
// into the run: they are written as block IDs against the checkpoint's
// pool and resolved after decoding, and eachRec is the one enumeration
// of retained records both directions walk. The append table is written
// as one list of records; the monitor's index over it (appendAt, the
// armed per-token counts) is not written but rebuilt on restore.
//
// Two caches demand care because they are *arrival-conclusive*: the
// per-chain Block Validity facts and the per-chain scores are computed
// when a chain is first read, and the monitor's equivalence contract
// depends on reusing the arrival-time value, not a recomputation
// against a later append index. Both are therefore serialized verbatim
// and never recomputed on restore.
//
// Determinism of the bytes themselves: encoding/json writes struct
// fields in declaration order and every map sorted by its marshalled
// key, and the block pool is sorted by ID, so the same monitor state
// always marshals to the same bytes — checkpoint digests can be pinned.
//
// Self-containment: the checkpoint embeds a block pool covering every
// block a retained record can reference — append arguments and the
// chains behind retained read heads — so RestoreMonitor works with a
// fresh table (a recovered process that lost its recorder) as well as
// with the live run's table. Restoring interns the pool into whichever
// table is used; for histories honoring the Recorder invariant (every
// read's chain is interned) this is a no-op, which is what keeps
// restored-monitor renderings byte-identical to the uninterrupted run's.
package consistency

import (
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"slices"

	"repro/internal/core"
	"repro/internal/history"
)

// checkpointVersion guards the wire format. Version 1 mirrored every
// monitor structure in a type of its own; version 2 kept the appends
// twice, by block and by token, where version 3 keeps the append table.
// No reader for an older version is kept, as no checkpoint outlives the
// process that wrote it.
const checkpointVersion = 3

// ckpt is the envelope: the shape RestoreMonitor checks against its
// MonitorConfig, the state, and the blocks the state's records name.
type ckpt struct {
	Version          int
	Procs, Window, K int
	State            monitorState
	Pool             []*core.Block
}

// recFields is opRec without its methods, so that recWire can embed the
// fields and marshal them without recursing into MarshalJSON.
type recFields opRec

// MarshalJSON writes the table as one list of records in arrival order.
func (t appendTable) MarshalJSON() ([]byte, error) {
	recs := []opRec{}
	for _, c := range t.chunks {
		recs = append(recs, c...)
	}
	return json.Marshal(recs)
}

// UnmarshalJSON adds the listed records back one by one, so the chunks
// and the count of successful appends are what the writer's were.
func (t *appendTable) UnmarshalJSON(data []byte) error {
	var recs []opRec
	if err := json.Unmarshal(data, &recs); err != nil {
		return err
	}
	*t = appendTable{}
	for _, r := range recs {
		t.add(r)
	}
	return nil
}

// recWire is opRec on the wire: its exported fields as they stand, its
// block as an ID into the pool.
type recWire struct {
	recFields
	Block core.BlockID `json:",omitempty"`
}

func (r opRec) MarshalJSON() ([]byte, error) {
	w := recWire{recFields: recFields(r)}
	if r.block != nil {
		w.Block = r.block.ID
	}
	return json.Marshal(w)
}

// UnmarshalJSON leaves a stub — a block that is only its ID — where the
// record names a block; RestoreMonitor swaps the stub for the table's
// block once the pool is interned.
func (r *opRec) UnmarshalJSON(data []byte) error {
	var w recWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*r = opRec(w.recFields)
	if w.Block != "" {
		r.block = &core.Block{ID: w.Block}
	}
	return nil
}

// eachRec calls fn on every retained record, in place, with the kind of
// operation its place holds: Checkpoint collects the block pool through
// it, RestoreMonitor checks and resolves decoded records through it. A
// structure that retains records is listed here and nowhere else. The
// two slots a flag guards (LMRPrev, SPMax) are visited when the flag
// says they hold a record.
func (s *monitorState) eachRec(fn func(r *opRec, kind history.OpKind)) {
	reads := func(rs []opRec) {
		for i := range rs {
			fn(&rs[i], history.OpRead)
		}
	}
	reads(s.Win)
	for p := range s.LMRPrev {
		if s.LMRHas[p] {
			fn(&s.LMRPrev[p], history.OpRead)
		}
	}
	for _, pairs := range slices.Concat(s.LMRViol, s.MPViol) {
		for i := range pairs {
			fn(&pairs[i].Prev, history.OpRead)
			fn(&pairs[i].Cur, history.OpRead)
		}
	}
	for _, sl := range s.SPLens {
		fn(&sl.Last, history.OpRead)
		for i := range sl.Runs {
			fn(&sl.Runs[i].First, history.OpRead)
			fn(&sl.Runs[i].Last, history.OpRead)
		}
	}
	if s.SPHasMax {
		fn(&s.SPMax, history.OpRead)
	}
	for _, set := range s.Classes {
		reads(set.Recs)
	}
	for _, set := range s.BVSuspects {
		reads(set.Recs)
	}
	for r := range s.Appends.all() {
		fn(r, history.OpAppend)
	}
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
	pool := map[core.BlockID]*core.Block{}
	add := func(bs ...*core.Block) {
		for _, b := range bs {
			if _, ok := pool[b.ID]; !ok {
				pool[b.ID] = b
			}
		}
	}
	m.eachRec(func(r *opRec, _ history.OpKind) {
		if r.block != nil {
			add(r.block)
		}
		// A read: pull the chain behind the head from the index so the
		// checkpoint stays self-contained for index-less restores.
		if r.Kind == history.OpRead {
			add(m.table.ChainTo(r.Head)...)
		}
	})
	ck := ckpt{
		Version: checkpointVersion,
		Procs:   m.procs, Window: m.window, K: m.k,
		State: m.monitorState,
		Pool:  make([]*core.Block, 0, len(pool)),
	}
	for _, id := range slices.Sorted(maps.Keys(pool)) {
		ck.Pool = append(ck.Pool, pool[id])
	}
	return json.Marshal(&ck)
}

// checkPoolBlock rejects a checkpoint pool entry no run could have
// interned: the pool comes from a file, and the block index sizes a
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

// validate rejects a decoded state whose shape the hot path or eachRec
// would trip over — the bytes may come from a file, and whatever they say
// RestoreMonitor returns a monitor that runs and finalizes or a "corrupt
// checkpoint" error, never a panic later: a map the monitor writes to
// missing or a keyed entry it dereferences null, per-process state not
// sized to the process count, a window longer than the one it slides in.
func (s *monitorState) validate(procs, window int) error {
	v := reflect.ValueOf(s).Elem()
	for i := range v.NumField() {
		f := v.Field(i)
		if f.Kind() != reflect.Map {
			continue
		}
		bad := f.IsNil()
		for it := f.MapRange(); !bad && it.Next(); {
			bad = it.Value().Kind() == reflect.Pointer && it.Value().IsNil()
		}
		if bad {
			return fmt.Errorf("%s is missing or holds a null entry", v.Type().Field(i).Name)
		}
	}
	procs = max(procs, 0)
	for _, n := range []int{len(s.LMRPrev), len(s.LMRHas), len(s.LMRViol), len(s.MPViol), len(s.PerProc)} {
		if n != procs {
			return fmt.Errorf("per-process state for %d processes, want %d", n, procs)
		}
	}
	for _, ms := range s.Msgs {
		bad := ms.Recv == nil && ms.Missing > 0 || ms.Recv != nil && len(ms.Recv) != procs
		for _, r := range ms.Upd {
			bad = bad || r.Late && (ms.Recv == nil || r.Proc < 0 || r.Proc >= procs)
		}
		if bad {
			return fmt.Errorf("a message in flight is not sized to %d processes", procs)
		}
	}
	if len(s.Win) > window {
		return fmt.Errorf("window of %d reads, want at most %d", len(s.Win), window)
	}
	return nil
}

// RestoreMonitor rebuilds a monitor from a Checkpoint. cfg supplies the
// non-serializable parts — Score, P, Table, OnWitness — and must
// structurally match the checkpointed monitor (Procs, Horizon, K),
// which is validated. A nil cfg.Table gets a fresh index (NewMonitor's
// default); either way the checkpoint's block pool is interned so
// retained records materialize. The restored monitor then consumes the
// remainder of the stream and Finalizes exactly as the original would
// have.
func RestoreMonitor(data []byte, cfg MonitorConfig) (*Monitor, error) {
	corrupt := func(format string, args ...any) (*Monitor, error) {
		return nil, fmt.Errorf("consistency: corrupt checkpoint: "+format, args...)
	}
	var ck ckpt
	if err := json.Unmarshal(data, &ck); err != nil {
		return corrupt("%w", err)
	}
	if ck.Version != checkpointVersion {
		return nil, fmt.Errorf("consistency: checkpoint version %d, want %d", ck.Version, checkpointVersion)
	}
	m := NewMonitor(cfg)
	if m.procs != ck.Procs || m.window != ck.Window || m.k != ck.K {
		return nil, fmt.Errorf("consistency: checkpoint shape (procs=%d, window=%d, k=%d) does not match config (procs=%d, window=%d, k=%d)",
			ck.Procs, ck.Window, ck.K, m.procs, m.window, m.k)
	}
	if err := ck.State.validate(m.procs, m.window); err != nil {
		return corrupt("%w", err)
	}
	for i, b := range ck.Pool {
		if err := checkPoolBlock(b); err != nil {
			return corrupt("pool[%d]: %w", i, err)
		}
		m.table.Intern(b)
	}
	m.monitorState = ck.State

	// Swap each record's stub for the table's block, and hold it to its
	// place: a witness renders a record by its kind, an append through
	// its block, a read through the chain its head names.
	var bad error
	m.eachRec(func(r *opRec, kind history.OpKind) {
		if bad != nil {
			return
		}
		if r.Kind != kind || (kind == history.OpAppend && r.block == nil) {
			bad = fmt.Errorf("record %d is a %s with block %v where %ss are kept", r.ID, r.Kind, r.block != nil, kind)
			return
		}
		if r.block != nil {
			stub := r.block
			if r.block = m.table.Block(stub.ID); r.block == nil {
				bad = fmt.Errorf("record %d names block %s missing from pool", r.ID, stub.ID.Short())
			}
		}
		if kind == history.OpRead {
			if c := m.table.ChainTo(r.Head); len(c) != int(r.ChainLen) || c == nil && r.Head != "" {
				bad = fmt.Errorf("record %d reads a chain of %d blocks to %s the pool does not hold", r.ID, r.ChainLen, r.Head.Short())
			}
		}
	})
	if bad != nil {
		return corrupt("%w", bad)
	}
	for r := range m.Appends.all() {
		m.fileAppend(r)
	}
	return m, nil
}

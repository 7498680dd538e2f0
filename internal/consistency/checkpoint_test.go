package consistency

import (
	"bytes"
	"encoding"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
)

// ckptSink forwards the stream to a monitor and, after `at` completed
// operations, checkpoints it, restores a fresh monitor from the bytes,
// verifies the restored monitor re-checkpoints byte-identically, and
// continues feeding the restored one — the crash–recovery cut, injected
// mid-stream.
type ckptSink struct {
	t   *testing.T
	mon *Monitor
	cfg MonitorConfig
	at  int // cycle after this many OpDone calls (≤0 = never)
	n   int
}

func (s *ckptSink) cycle() {
	s.t.Helper()
	data, err := s.mon.Checkpoint()
	if err != nil {
		s.t.Fatalf("checkpoint: %v", err)
	}
	m2, err := RestoreMonitor(data, s.cfg)
	if err != nil {
		s.t.Fatalf("restore: %v", err)
	}
	data2, err := m2.Checkpoint()
	if err != nil {
		s.t.Fatalf("re-checkpoint: %v", err)
	}
	if !bytes.Equal(data, data2) {
		s.t.Fatalf("restored monitor re-checkpoints differently (%d vs %d bytes)", len(data), len(data2))
	}
	s.mon = m2
}

func (s *ckptSink) OpDone(op *history.Op) {
	s.mon.OpDone(op)
	s.n++
	if s.n == s.at {
		s.cycle()
	}
}

func (s *ckptSink) CommDone(e history.CommEvent) { s.mon.CommDone(e) }
func (s *ckptSink) Faulty(p int)                 { s.mon.Faulty(p) }

// ckptBuild is the deterministic workload: forks (StrongPrefix +
// EventualPrefix violations), a backwards read (LocalMonotonicRead,
// MonotonicPrefix), a forged never-appended block (BlockValidity), a
// shared-token fork group (k-Fork), a faulty process, a permanently-
// pending append, and a delivered message beside one still in flight
// (UpdateAgreement, LRC) — every retained structure of the monitor is
// populated.
func ckptBuild(rec *history.Recorder) {
	base := chainN(5)
	fork := forkN(base, 2, 4)
	recordChain(rec, base, fork)
	// Real pipelines intern every attached block (the Recorder.Table
	// contract) so interned reads can always materialize; the restore
	// path depends on that invariant too.
	for _, c := range []core.Chain{base, fork} {
		for _, b := range c {
			rec.InternBlock(b)
		}
	}
	rec.MarkFaulty(2)
	// base[1], generated at 0, reaches both correct processes and leaves
	// the flight; 1 updates the fork's head without receiving it, and 0
	// sends it without receiving it either.
	b1, fh := base[1], fork.Head()
	rec.RecordComm(history.EvUpdate, 0, b1.Parent, b1.ID)
	rec.RecordComm(history.EvSend, 0, b1.Parent, b1.ID)
	rec.RecordComm(history.EvReceive, 0, b1.Parent, b1.ID)
	rec.RecordComm(history.EvReceive, 1, b1.Parent, b1.ID)
	rec.RecordComm(history.EvUpdate, 1, b1.Parent, b1.ID)
	rec.RecordComm(history.EvUpdate, 1, fh.Parent, fh.ID)
	rec.RecordComm(history.EvSend, 0, fh.Parent, fh.ID)
	rec.Read(0, base)
	rec.Read(1, fork)
	rec.Read(2, base) // faulty: excluded
	rec.ReadHead(0, base.Head())
	rec.Read(0, slices.Clone(base[:3])) // score drop: LMR violation
	forged := core.NewBlock(base.Head().ID, base.Head().Height+1, 1, 99, []byte("forged"))
	rec.InternBlock(forged)
	rec.Read(1, slices.Clone(base).Append(forged)) // BlockValidity violation
	tok := core.NewBlock(base[2].ID, base[2].Height+1, 0, 50, nil).WithToken("tkn(x)")
	tok2 := core.NewBlock(base[2].ID, base[2].Height+1, 1, 51, []byte{1}).WithToken("tkn(x)")
	rec.Append(0, tok, true)
	rec.Append(1, tok2, true) // k=1 fork group
	rec.ReadHead(1, fork.Head())
	rec.InvokeAppend(0, core.NewBlock(fork.Head().ID, fork.Head().Height+1, 0, 60, nil)) // never responds
	rec.ReadHead(0, base.Head())
	rec.ReadHead(1, fork.Head())
}

// countOps counts the completed operations ckptBuild records, so the
// equivalence test can place the cut at every position.
func countOps(procs int, build func(rec *history.Recorder)) int {
	rec := history.NewRecorder(procs, nil)
	build(rec)
	n := 0
	for _, op := range rec.Snapshot().Ops {
		if !op.Pending {
			n++
		}
	}
	return n
}

// TestCheckpointEveryCutEquivalence injects the checkpoint/restore
// cycle after every possible prefix of the deterministic workload and
// requires Finalize (and KForkReport) to match the oracle — as the
// uninterrupted monitor does — byte-for-byte.
func TestCheckpointEveryCutEquivalence(t *testing.T) {
	const procs, k = 3, 1
	total := countOps(procs, ckptBuild)
	if total < 10 {
		t.Fatalf("workload records only %d ops", total)
	}

	for cut := 0; cut <= total; cut++ { // 0: never cycled
		monitorHarness{k: k, ckptAt: cut}.run(t, procs, ckptBuild)
	}
}

// TestCheckpointDeterministicBytes: two monitors fed the identical
// stream checkpoint to identical bytes (the pinnable-digest property).
func TestCheckpointDeterministicBytes(t *testing.T) {
	run := func() []byte {
		rec := history.NewRecorder(3, nil)
		mon := NewMonitor(MonitorConfig{Procs: 3, Table: rec.Table()})
		rec.SetSink(mon)
		ckptBuild(rec)
		data, err := mon.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical runs checkpoint differently (%d vs %d bytes)", len(a), len(b))
	}
}

// TestCheckpointTablelessRestore: a checkpoint taken at end-of-stream
// restores against a nil table (the recovered process lost its
// recorder) and still Finalizes byte-identically — the embedded block
// pool is self-contained.
func TestCheckpointTablelessRestore(t *testing.T) {
	rec := history.NewRecorder(3, nil)
	mon := NewMonitor(MonitorConfig{Procs: 3, K: 1, Table: rec.Table()})
	rec.SetSink(mon)
	ckptBuild(rec)
	for _, op := range rec.PendingOps() {
		mon.OpPending(op)
	}
	data, err := mon.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	wsc, wec := mon.Finalize()

	m2, err := RestoreMonitor(data, MonitorConfig{Procs: 3, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	gsc, gec := m2.Finalize()
	if got, want := verdictDump(gsc), verdictDump(wsc); got != want {
		t.Fatalf("tableless SC diverged:\n--- with table ---\n%s--- tableless ---\n%s", want, got)
	}
	if got, want := verdictDump(gec), verdictDump(wec); got != want {
		t.Fatalf("tableless EC diverged:\n--- with table ---\n%s--- tableless ---\n%s", want, got)
	}
	if got, want := reportDump(m2.KForkReport(1)), reportDump(mon.KForkReport(1)); got != want {
		t.Fatalf("tableless KFork diverged:\n--- with table ---\n%s--- tableless ---\n%s", want, got)
	}
}

// withState returns the checkpoint with one field of its State replaced
// by raw JSON — the edit a damaged file or a hostile writer makes.
func withState(t *testing.T, data []byte, field, raw string) []byte {
	t.Helper()
	var ck, st map[string]json.RawMessage
	if err := json.Unmarshal(data, &ck); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(ck["State"], &st); err != nil {
		t.Fatal(err)
	}
	if _, ok := st[field]; !ok {
		t.Fatalf("fixture: checkpoint state has no field %s", field)
	}
	st[field] = json.RawMessage(raw)
	var err error
	if ck["State"], err = json.Marshal(st); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCheckpointRefusesVersion2: a version-2 envelope, which kept the
// appends twice (by block and by token), is refused by its version, not
// read as a state with no appends.
func TestCheckpointRefusesVersion2(t *testing.T) {
	mon, cfg := ckptMonitor(t)
	data, err := mon.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	v2 := bytes.Replace(data, []byte(`"Version":3`), []byte(`"Version":2`), 1)
	if bytes.Equal(v2, data) {
		t.Fatal("fixture: the checkpoint names no version 3")
	}
	_, err = RestoreMonitor(v2, cfg)
	if err == nil || !strings.Contains(err.Error(), "checkpoint version 2, want 3") {
		t.Fatalf("version-2 checkpoint: err = %v, want the version error", err)
	}
}

// TestCheckpointValidation pins the failure modes: corrupt bytes, a
// version from the future, shape-mismatched configs and a state the
// monitor could not have written all error.
func TestCheckpointValidation(t *testing.T) {
	mon := NewMonitor(MonitorConfig{Procs: 3})
	data, err := mon.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreMonitor([]byte("not json"), MonitorConfig{Procs: 3}); err == nil {
		t.Error("corrupt checkpoint accepted")
	}
	if _, err := RestoreMonitor(data, MonitorConfig{Procs: 4}); err == nil {
		t.Error("proc-count mismatch accepted")
	}
	if _, err := RestoreMonitor(data, MonitorConfig{Procs: 3, Horizon: 7}); err == nil {
		t.Error("horizon mismatch accepted")
	}
	if _, err := RestoreMonitor(data, MonitorConfig{Procs: 3, K: 2}); err == nil {
		t.Error("k mismatch accepted")
	}
	bad := bytes.Replace(data, []byte(`"Version":3`), []byte(`"Version":99`), 1)
	if _, err := RestoreMonitor(bad, MonitorConfig{Procs: 3}); err == nil {
		t.Error("future version accepted")
	}
	if _, err := RestoreMonitor(data, MonitorConfig{Procs: 3}); err != nil {
		t.Errorf("valid empty checkpoint rejected: %v", err)
	}

	// State the restore walk used to trust (the first two indexed the
	// monitor's per-process slices by lengths read from the bytes and
	// panicked; the third was a nil dereference at the next read).
	cfg := MonitorConfig{Procs: 2}
	two, err := NewMonitor(cfg).Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreMonitor(withState(t, two, "Win", `[]`), cfg); err != nil {
		t.Fatalf("re-encoded valid checkpoint rejected: %v", err)
	}
	for _, tc := range []struct{ name, field, raw string }{
		{"LMRPrev longer than Procs", "LMRPrev", `[{},{},{}]`},
		{"LMRViol row past Procs", "LMRViol", `[null,null,[]]`},
		{"LMRHas shorter than Procs", "LMRHas", `[true]`},
		{"nil score class", "Classes", `{"3":null}`},
		{"nil suspect set", "BVSuspects", `{"2:x":null}`},
		{"missing map", "Settled", `null`},
		{"window past Horizon", "Win", `[{"Kind":1},{"Kind":1},{"Kind":1}]`},
		{"read among the appends", "Appends", `[{"Kind":1}]`},
		{"append without a block", "Appends", `[{"Kind":0}]`},
		{"block missing from pool", "Appends", `[{"Kind":0,"Block":"nowhere"}]`},
		{"read head missing from pool", "Win", `[{"Kind":1,"Head":"nowhere","ChainLen":3}]`},
		{"chain key without length", "SPCmp", `{"x":true}`},
	} {
		_, err := RestoreMonitor(withState(t, two, tc.field, tc.raw), cfg)
		if err == nil || !strings.Contains(err.Error(), "corrupt checkpoint") {
			t.Errorf("%s: err = %v, want a corrupt checkpoint error", tc.name, err)
		}
	}
}

// ckptMonitor is a monitor that has consumed the whole of ckptBuild,
// with the run's table and config — under chainLength, so that the
// per-chain score cache is populated too.
func ckptMonitor(t testing.TB) (*Monitor, MonitorConfig) {
	t.Helper()
	rec := history.NewRecorder(3, nil)
	cfg := MonitorConfig{Procs: 3, K: 1, Score: chainLength{}, Table: rec.Table()}
	mon := NewMonitor(cfg)
	rec.SetSink(mon)
	ckptBuild(rec)
	for _, op := range rec.PendingOps() {
		mon.OpPending(op)
	}
	return mon, cfg
}

// stateScratch lists the Monitor fields a checkpoint does not carry:
// what NewMonitor rebuilds from MonitorConfig, and scratch. factKey and
// fact memoize the last BVFacts lookup; a stored fact is never replaced,
// so a restored monitor that starts the memo empty finds the same fact
// in BVFacts on its next read.
var stateScratch = map[string]bool{
	"score": true, "pred": true, "table": true, "procs": true, "window": true,
	"cap": true, "k": true, "onWitns": true, // rebuilt from MonitorConfig
	"path": true, "winBuf": true, "spare": true, "finalized": true, "scV": true, "ecV": true, // scratch
	"factKey": true, "fact": true, // memo of BVFacts, refilled on the next read
	"appendAt": true, "kCount": true, // rebuilt from the append table
}

// TestMonitorStateIsComplete: the checkpoint is complete by
// construction. Every field of Monitor is retained state (inside the
// embedded monitorState, which Checkpoint marshals whole) or is named
// above with the reason it need not be; a field added beside the state
// struct fails here until it is moved in or argued out. Inside the state
// every field must be one encoding/json writes.
func TestMonitorStateIsComplete(t *testing.T) {
	mt := reflect.TypeOf(Monitor{})
	seen := 0
	for i := range mt.NumField() {
		f := mt.Field(i)
		switch {
		case f.Anonymous && f.Type == reflect.TypeOf(monitorState{}):
			seen++
		case !stateScratch[f.Name]:
			t.Errorf("Monitor.%s is neither in monitorState nor listed as rebuilt/scratch: a restored monitor would lose it", f.Name)
		}
	}
	if seen != 1 {
		t.Fatalf("Monitor embeds monitorState %d times, want once by value", seen)
	}
	var unexported func(reflect.Type, string)
	unexported = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map:
			unexported(typ.Elem(), path)
		case reflect.Struct:
			if typ.Implements(reflect.TypeFor[json.Marshaler]()) || typ.Implements(reflect.TypeFor[encoding.TextMarshaler]()) {
				return // its own wire form (opRec, chainKey), held to the state by the round trip below
			}
			for i := range typ.NumField() {
				f := typ.Field(i)
				if !f.IsExported() {
					t.Errorf("%s.%s is unexported: encoding/json would drop it from the checkpoint", path, f.Name)
				}
				unexported(f.Type, path+"."+f.Name)
			}
		}
	}
	unexported(reflect.TypeOf(monitorState{}), "monitorState")
}

// TestCheckpointStateRoundTrip: restoring a populated monitor against
// the same table gives back the same state, field for field — stronger
// than the verdict equality TestCheckpointEveryCutEquivalence pins.
func TestCheckpointStateRoundTrip(t *testing.T) {
	mon, cfg := ckptMonitor(t)
	data, err := mon.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := RestoreMonitor(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, got := reflect.ValueOf(mon.monitorState), reflect.ValueOf(m2.monitorState)
	for i := range want.NumField() {
		if w, g := want.Field(i).Interface(), got.Field(i).Interface(); !reflect.DeepEqual(w, g) {
			t.Errorf("%s differs after restore:\n want %+v\n got  %+v", want.Type().Field(i).Name, w, g)
		}
		if f := want.Field(i); (f.Kind() == reflect.Map || f.Kind() == reflect.Slice) && f.Len() == 0 {
			t.Errorf("fixture: ckptBuild leaves %s empty, so the round trip says nothing about it", want.Type().Field(i).Name)
		}
	}
	// The index over the append table is rebuilt, not written.
	if len(mon.appendAt) == 0 || len(mon.kCount) == 0 {
		t.Errorf("fixture: %d appended blocks, %d armed token counts", len(mon.appendAt), len(mon.kCount))
	}
	if !reflect.DeepEqual(m2.appendAt, mon.appendAt) || !reflect.DeepEqual(m2.kCount, mon.kCount) {
		t.Errorf("the rebuilt append index differs:\n want %v %v\n got  %v %v", mon.appendAt, mon.kCount, m2.appendAt, m2.kCount)
	}
}

// TestCheckpointIgnoresPoolWeightKey: checkpoints written while a
// block carried its own weight hold a "Weight" key in every pool entry.
// They still restore, to the same state: encoding/json ignores the key.
func TestCheckpointIgnoresPoolWeightKey(t *testing.T) {
	mon, cfg := ckptMonitor(t)
	data, err := mon.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var ck map[string]json.RawMessage
	var pool []map[string]json.RawMessage
	if err := json.Unmarshal(data, &ck); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(ck["Pool"], &pool); err != nil || len(pool) == 0 {
		t.Fatalf("fixture: pool of %d entries, err %v", len(pool), err)
	}
	for _, b := range pool {
		b["Weight"] = json.RawMessage("1")
	}
	if ck["Pool"], err = json.Marshal(pool); err != nil {
		t.Fatal(err)
	}
	old, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := RestoreMonitor(old, cfg)
	if err != nil {
		t.Fatalf("a pool with weights does not restore: %v", err)
	}
	if again, err := m2.Checkpoint(); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("restored from a pool with weights, the monitor checkpoints differently (err %v)", err)
	}
}

// TestCheckpointRestoresCappedClasses: checkpoints written while a
// retention class kept its first MaxViolations+procs reads by invocation
// hold those reads and a "Truncated" key in every class and suspect set.
// They still restore — encoding/json ignores the key — and, fed the rest
// of the stream, finalize to the verdicts of the monitor that never
// stopped and of the oracle: the reads beyond the dominance rule are ones
// the enumeration never reaches.
func TestCheckpointRestoresCappedClasses(t *testing.T) {
	const procs, horizon = 3, 2
	rec := history.NewRecorder(procs, nil)
	c := chainN(3)
	recordChain(rec, c)
	forged := core.NewBlock(c[1].ID, 2, 1, 99, []byte("forged"))
	rec.InternBlock(forged)
	for i := range MaxViolations + procs + 4 {
		rec.Read(i%procs, c[:2])                              // stagnant: Ever Growing Tree
		rec.Read(i%procs, slices.Clone(c[:2]).Append(forged)) // never appended: Block Validity
	}
	rec.Read(0, c[:2]) // the final window: stagnant, then grown
	rec.Read(0, c)
	h := rec.Snapshot()
	cut := len(h.Ops) - 2

	cfg := MonitorConfig{Procs: procs, Horizon: horizon, Table: h.Table}
	mon := NewMonitor(cfg)
	for _, op := range h.Ops[:cut] {
		mon.OpDone(op)
	}
	data, err := mon.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if n := largestClass(mon); n != MaxViolations {
		t.Fatalf("fixture: the largest class holds %d reads, want %d", n, MaxViolations)
	}

	marshal := func(v any) json.RawMessage {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// capped is a class as the fixed bound kept it: the first
	// MaxViolations+procs reads fed before the cut that keep selects.
	capped := func(keep func(op *history.Op) bool) json.RawMessage {
		var recs []opRec
		ord := 0
		for _, op := range h.Ops[:cut] {
			if op.Kind != history.OpRead {
				continue
			}
			r := recOf(op)
			r.Score, r.Ord = int32(op.ChainLen-1), int32(ord)
			ord++
			if keep(op) && len(recs) < MaxViolations+procs {
				recs = append(recs, r)
			}
		}
		return marshal(map[string]any{"Recs": recs, "Truncated": true})
	}
	decode := func(raw []byte, into *map[string]json.RawMessage) {
		if err := json.Unmarshal(raw, into); err != nil {
			t.Fatal(err)
		}
	}
	var ck, st, classes, suspects map[string]json.RawMessage
	decode(data, &ck)
	decode(ck["State"], &st)
	decode(st["Classes"], &classes)
	decode(st["BVSuspects"], &suspects)
	for k := range classes {
		classes[k] = capped(func(op *history.Op) bool { return fmt.Sprint(op.ChainLen-1) == k })
	}
	for k := range suspects {
		var key chainKey
		if err := key.UnmarshalText([]byte(k)); err != nil {
			t.Fatal(err)
		}
		suspects[k] = capped(func(op *history.Op) bool { return keyOf(op) == key })
	}
	old := withState(t, withState(t, data, "Classes", string(marshal(classes))), "BVSuspects", string(marshal(suspects)))
	m2, err := RestoreMonitor(old, cfg)
	if err != nil {
		t.Fatalf("a checkpoint of capped classes does not restore: %v", err)
	}
	if n := largestClass(m2); n != MaxViolations+procs {
		t.Fatalf("fixture: the restored largest class holds %d reads, want %d", n, MaxViolations+procs)
	}

	for _, op := range h.Ops[cut:] {
		mon.OpDone(op)
		m2.OpDone(op)
	}
	sc, ec := mon.Finalize()
	sc2, ec2 := m2.Finalize()
	if got, want := verdictDump(sc2)+verdictDump(ec2), verdictDump(sc)+verdictDump(ec); got != want {
		t.Errorf("restored from capped classes, the monitor finalizes differently:\n--- uninterrupted ---\n%s--- restored ---\n%s", want, got)
	}
	if sc.Reports[0].OK || sc.Reports[3].OK {
		t.Errorf("fixture: Block Validity and Ever Growing Tree must fail:\n%s", verdictDump(sc))
	}
	if d := diffOracle(h, nil, nil, horizon, sc2, ec2, m2.KForkReport,
		m2.UpdateAgreement(), m2.LRC(), m2.MonotonicPrefix(), false); d != "" {
		t.Error(d)
	}
}

// FuzzRestoreMonitorBytes: the bytes come from a file. Whatever they
// are, RestoreMonitor returns an error or a monitor — it does not panic
// — and a monitor it returns finalizes, reports and takes further
// events.
func FuzzRestoreMonitorBytes(f *testing.F) {
	mon, _ := ckptMonitor(f)
	valid, err := mon.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := RestoreMonitor(data, MonitorConfig{Procs: 3, K: 1})
		if err != nil {
			return
		}
		for _, kind := range []history.CommKind{history.EvSend, history.EvReceive, history.EvUpdate} {
			for p := range 3 {
				m.CommDone(history.CommEvent{Kind: kind, Proc: p, Parent: core.GenesisID, Block: "b1"})
			}
		}
		m.Faulty(1)
		m.Finalize()
		m.KForkReport(1)
		m.UpdateAgreement()
		m.LRC()
		m.MonotonicPrefix()
	})
}

// FuzzMonitorCheckpoint drives the randomized fuzzBuild streams with a
// checkpoint/restore cycle injected at a fuzz-chosen position and
// requires the finalized verdicts (and both k-fork reports) to equal
// the oracle's on the full history — the cut must be invisible.
func FuzzMonitorCheckpoint(f *testing.F) {
	for i, seed := range fuzzSeeds {
		f.Add([]uint8{3, 9, 1, 250, 2}[i], seed)
	}
	// An append and two interned reads of its chain by process 0, the cut
	// between the reads: the restored monitor meets the second with its
	// BVFacts memo empty and must find the first read's fact in BVFacts.
	f.Add(uint8(1), []byte{0, 4, 28})
	f.Fuzz(func(t *testing.T, cutByte uint8, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		const procs = 3
		horizon := 0
		if len(data) > 0 {
			horizon = int(data[0]) % 5
		}
		build := func(rec *history.Recorder) { fuzzBuild(rec, procs, data) }
		total := countOps(procs, build)
		if total == 0 {
			return
		}
		monitorHarness{horizon: horizon, ckptAt: int(cutByte)%total + 1}.run(t, procs, build)
	})
}

// TestRestoreRejectsMalformedPool edits the block pool of a valid
// checkpoint the way a damaged file could: every entry no run could
// have interned is a corrupt checkpoint, not a later panic (a negative
// height used to reach ChainTo's make).
func TestRestoreRejectsMalformedPool(t *testing.T) {
	rec := history.NewRecorder(2, nil)
	mon := NewMonitor(MonitorConfig{Procs: 2, Table: rec.Table()})
	rec.SetSink(mon)
	b1 := core.NewBlock(core.GenesisID, 1, 0, 1, nil)
	rec.InternBlock(b1)
	rec.Append(0, b1, true)
	rec.ReadHead(1, b1)
	data, err := mon.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var ck map[string]json.RawMessage
	if err := json.Unmarshal(data, &ck); err != nil {
		t.Fatal(err)
	}
	var pool []*core.Block
	if err := json.Unmarshal(ck["Pool"], &pool); err != nil || len(pool) == 0 {
		t.Fatalf("fixture: pool %v, err %v", pool, err)
	}
	with := func(extra ...*core.Block) []byte {
		raw, err := json.Marshal(append(append([]*core.Block(nil), pool...), extra...))
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]json.RawMessage{}
		for k, v := range ck {
			out[k] = v
		}
		out["Pool"] = raw
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cfg := MonitorConfig{Procs: 2}
	if _, err := RestoreMonitor(with(), cfg); err != nil {
		t.Fatalf("re-encoded valid checkpoint rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		b    *core.Block
	}{
		{"nil entry", nil},
		{"negative height", &core.Block{ID: "x", Parent: "b0", Height: -7}},
		{"genesis above height 0", &core.Block{ID: core.GenesisID, Height: 3}},
		{"non-genesis at height 0", &core.Block{ID: "x", Parent: "b0", Height: 0}},
		{"no parent", &core.Block{ID: "x", Height: 2}},
	} {
		_, err := RestoreMonitor(with(tc.b), cfg)
		if err == nil || !strings.Contains(err.Error(), "corrupt checkpoint") {
			t.Errorf("%s: err = %v, want a corrupt checkpoint error", tc.name, err)
		}
	}
}

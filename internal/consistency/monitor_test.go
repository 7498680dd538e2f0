package consistency

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/history"
)

// reportDump flattens a report for equality checks: OK flag, Checked
// count, every violation string, and every witness (detail + op
// renderings + block IDs).
func reportDump(rep *Report) string {
	if rep == nil {
		return "<nil>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s ok=%v checked=%d\n", rep.Property, rep.OK, rep.Checked)
	for _, v := range rep.Violations {
		fmt.Fprintf(&b, "V %s\n", v)
	}
	for _, w := range rep.Witnesses {
		fmt.Fprintf(&b, "W %s\n", witnessDump(w))
	}
	return b.String()
}

func verdictDump(v *Verdict) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s ok=%v failing=%v\n", v.Criterion, v.OK, v.Failing())
	for _, rep := range v.Reports {
		b.WriteString(reportDump(rep))
	}
	return b.String()
}

// TestOpRecLayout pins the monitor's retained record at 80 bytes. A
// read builds one and hands it down by pointer; it is copied only into
// the slots that keep it (the window, a class, a suspect set, a process's
// previous read, a Strong Prefix run), so its size is what a retained
// read costs, and a field added to it is a deliberate choice. The
// checkpoint writes it through recWire whatever its layout. Its id,
// process, chain length, score and read ordinal are int32s: a wider
// value panics and names the bound.
func TestOpRecLayout(t *testing.T) {
	if sz := unsafe.Sizeof(opRec{}); sz != 80 {
		t.Errorf("an opRec is %d bytes, want 80", sz)
	}
	for _, op := range []*history.Op{{ID: math.MaxInt32 + 1}, {Proc: math.MaxInt32 + 1}, {ChainLen: math.MaxInt32 + 1}} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "2147483647") {
					t.Errorf("recOf(%+v) panicked with %q, want the bound named", *op, msg)
				}
			}()
			recOf(op)
		}()
	}
	if r := recOf(&history.Op{ID: math.MaxInt32, ChainLen: math.MaxInt32}); r.ID != math.MaxInt32 || r.ChainLen != math.MaxInt32 {
		t.Errorf("recOf at the bound kept id %d, chain length %d", r.ID, r.ChainLen)
	}
}

// monitorHarness holds the Monitor against the oracle on one recorded
// history: the build function records into a Recorder whose sink is the
// Monitor (optionally via a SegmentSink or a ckptSink), then the
// definition-literal oracle on the snapshot is compared against
// Monitor.Finalize; an armed harness (k > 0) holds the live k-Fork
// witnesses to the oracle's token groups too (liveKForkDiff). run returns
// the finalized monitor.
// chainLength scores a chain by its length, as core.LengthScore does,
// but is another type: a monitor under it takes the materializing path
// (scoreOfOp's ScoreByKey memo, core.MCPS in finalEP), where every
// answer must equal the length fast path's.
type chainLength struct{}

func (chainLength) Of(c core.Chain) int { return core.LengthScore{}.Of(c) }
func (chainLength) Name() string        { return "chain-length" }

type monitorHarness struct {
	score   core.Score
	pred    core.Predicate
	horizon int
	segSize int // 0 = direct sink, >0 = route through a SegmentSink
	// drop (with segSize > 0) records in drop mode, the SegmentSink being
	// the recorder's direct sink: the monitor is fed ops the recorder
	// takes back and overwrites a segment later, out of a Segment that is
	// refilled. The recorder then retains nothing, so the oracle reads a
	// second, retaining recording of the same build, which must be
	// repeatable.
	drop   bool
	ckptAt int // >0: checkpoint → restore → continue after that many ops (ckptSink)
	k      int // when >0, arms the live k-fork probe
	// epCheckedLoose skips the EventualPrefix Checked comparison —
	// the one documented divergence under overlapping completed ops.
	epCheckedLoose bool
}

func (hn monitorHarness) run(t *testing.T, procs int, build func(rec *history.Recorder)) *Monitor {
	t.Helper()
	rec := history.NewRecorder(procs, nil)
	var live []Witness
	kfork := fmt.Sprintf("%d-ForkCoherence", hn.k)
	cfg := MonitorConfig{Procs: procs, Score: hn.score, P: hn.pred, Horizon: hn.horizon, K: hn.k, Table: rec.Table(),
		OnWitness: func(w Witness) {
			if w.Property == kfork {
				live = append(live, w)
			}
		}}
	mon := NewMonitor(cfg)
	var seg *history.SegmentSink
	ckpt := &ckptSink{t: t, mon: mon, cfg: cfg, at: hn.ckptAt}
	switch {
	case hn.ckptAt > 0:
		rec.SetSink(ckpt)
	case hn.segSize > 0:
		seg = history.NewSegmentSink(hn.segSize, mon.ConsumeSegment)
		seg.OnFaulty = mon.Faulty
		rec.SetSink(seg)
		if hn.drop {
			rec.SetRetain(false)
		}
	default:
		rec.SetSink(mon)
	}
	build(rec)
	h := rec.Snapshot()
	if hn.drop {
		ref := history.NewRecorder(procs, nil)
		build(ref)
		h = ref.Snapshot()
	}
	mon = ckpt.mon // the restored one, after a cycle
	if seg != nil {
		seg.Seal()
	}
	for _, op := range rec.PendingOps() {
		mon.OpPending(op)
	}
	msc, mec := mon.Finalize()

	if d := diffOracle(h, hn.score, hn.pred, hn.horizon, msc, mec, mon.KForkReport,
		mon.UpdateAgreement(), mon.LRC(), mon.MonotonicPrefix(), hn.epCheckedLoose); d != "" {
		t.Errorf("seg=%d drop=%v cut=%d: %s", hn.segSize, hn.drop, hn.ckptAt, d)
	}
	if d := liveKForkDiff(h, hn.k, live); d != "" {
		t.Errorf("seg=%d drop=%v cut=%d: %s", hn.segSize, hn.drop, hn.ckptAt, d)
	}
	return mon
}

// liveKForkDiff holds a monitor's live k-Fork witnesses to the oracle's
// token groups: one witness per group of more than k successful appends,
// in the order each group's (k+1)-th append arrived, up to MaxViolations,
// each naming the group's first k+1 appends in arrival order. The feed
// must arrive in recording order, as a feed of atomic operations does;
// an unarmed monitor (k = 0) emits none.
func liveKForkDiff(h *history.History, k int, live []Witness) string {
	var want []string
	if k > 0 {
		toks, groups := oracleTokenGroups(h)
		pos := map[*history.Op]int{}
		for i, op := range h.Ops {
			pos[op] = i
		}
		toks = slices.DeleteFunc(toks, func(tok string) bool { return len(groups[tok]) <= k })
		slices.SortFunc(toks, func(a, b string) int { return pos[groups[a][k]] - pos[groups[b][k]] })
		for _, tok := range toks[:min(len(toks), MaxViolations)] {
			w := Witness{Property: fmt.Sprintf("%d-ForkCoherence", k), Ops: groups[tok][:k+1]}
			for _, op := range w.Ops {
				w.Blocks = append(w.Blocks, op.Block.ID)
			}
			w.Detail = fmt.Sprintf("token %q consumed by %d successful appends (k=%d): forks %s", tok, k+1, k, shortIDs(w.Blocks))
			want = append(want, witnessDump(w))
		}
	}
	got := make([]string, len(live))
	for i, w := range live {
		got[i] = witnessDump(w)
	}
	if !slices.Equal(got, want) {
		return fmt.Sprintf("live %d-Fork witnesses differ from the oracle's groups:\n--- oracle ---\n%s\n--- live ---\n%s",
			k, strings.Join(want, "\n"), strings.Join(got, "\n"))
	}
	return ""
}

// witnessDump renders a witness with its ops' identities and its blocks.
func witnessDump(w Witness) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s | %s |", w.Property, w.Detail)
	for _, op := range w.Ops {
		fmt.Fprintf(&b, " op#%d:%s", op.ID, op)
	}
	for _, id := range w.Blocks {
		fmt.Fprintf(&b, " b:%s", id.Short())
	}
	return b.String()
}

// dropEPChecked strips the Checked count off a dump's EventualPrefix
// lines.
func dropEPChecked(dump string) string {
	return epCheckedRE.ReplaceAllString(dump, "$1")
}

var epCheckedRE = regexp.MustCompile(`(?m)^(EventualPrefix .*) checked=\d+$`)

func TestMonitorBenignEquivalence(t *testing.T) {
	monitorHarness{}.run(t, 2, func(rec *history.Recorder) {
		c := chainN(5)
		recordChain(rec, c)
		for i := 1; i <= 5; i++ {
			rec.Read(0, c[:i+1])
			rec.Read(1, c[:i+1])
		}
	})
}

func TestMonitorStrongPrefixForkEquivalence(t *testing.T) {
	for _, seg := range []int{0, 3} {
		monitorHarness{segSize: seg, k: 1}.run(t, 2, func(rec *history.Recorder) {
			base := chainN(4)
			fork := forkN(base, 2, 3)
			recordChain(rec, base, fork)
			rec.Read(0, base)
			rec.Read(1, fork)
			rec.Read(0, base[:3])
			rec.Read(1, fork[:4])
			rec.Read(0, fork)
			rec.Read(1, base)
		})
	}
}

func TestMonitorLMRAndEGTEquivalence(t *testing.T) {
	monitorHarness{horizon: 3}.run(t, 2, func(rec *history.Recorder) {
		c := chainN(6)
		recordChain(rec, c)
		rec.Read(0, c)     // long first
		rec.Read(0, c[:3]) // score drop: LMR violation
		rec.Read(1, c[:2]) // stuck low
		rec.Read(0, c[:5]) // window grows past 2
		rec.Read(1, c[:2]) // still stuck: EGT stagnation
		rec.Read(0, c)
	})
}

func TestMonitorEventualPrefixDivergence(t *testing.T) {
	monitorHarness{horizon: 4}.run(t, 2, func(rec *history.Recorder) {
		base := chainN(5)
		fork := forkN(base, 1, 5)
		recordChain(rec, base, fork)
		rec.Read(0, base[:2])
		rec.Read(1, base[:2])
		rec.Read(0, base) // branch A in the final window
		rec.Read(1, fork) // branch B in the final window: diverge below both
		rec.Read(0, base)
		rec.Read(1, fork)
	})
}

func TestMonitorBlockValidityEquivalence(t *testing.T) {
	// Never-appended block, append-after-read, and a pending append.
	monitorHarness{}.run(t, 2, func(rec *history.Recorder) {
		c := chainN(3)
		recordChain(rec, c)
		forged := core.NewBlock(c.Head().ID, c.Head().Height+1, 9, 99, []byte("forged"))
		rec.InternBlock(forged)
		bad := slices.Clone(c).Append(forged)
		rec.Read(0, bad) // forged never appended

		late := core.NewBlock(c.Head().ID, c.Head().Height+1, 1, 50, []byte("late"))
		rec.InternBlock(late)
		withLate := slices.Clone(c).Append(late)
		rec.Read(1, withLate)     // read before its append
		rec.Append(1, late, true) // append only later
		rec.Read(1, withLate)     // now clean

		// Pending append: invoked, never responded. Its invocation
		// index still anchors Block Validity.
		pend := core.NewBlock(late.ID, late.Height+1, 0, 51, []byte("pend"))
		rec.InternBlock(pend)
		rec.InvokeAppend(0, pend)
		rec.Read(0, slices.Clone(withLate).Append(pend))
	})
}

func TestMonitorFaultyProcessExcluded(t *testing.T) {
	monitorHarness{segSize: 2}.run(t, 3, func(rec *history.Recorder) {
		rec.MarkFaulty(2)
		c := chainN(4)
		fork := forkN(c, 0, 4)
		recordChain(rec, c, fork)
		rec.Read(0, c)
		rec.Read(1, c)
		rec.Read(2, fork) // faulty: must not count anywhere
		rec.Read(2, c[:1])
		rec.Read(0, c)
	})
}

func TestMonitorInternedReadsEquivalence(t *testing.T) {
	// ReadHead path: interned (head, length) handles, no explicit chains.
	monitorHarness{k: 1}.run(t, 2, func(rec *history.Recorder) {
		c := chainN(5)
		for _, b := range c {
			rec.InternBlock(b)
		}
		recordChain(rec, c)
		for i := 1; i <= 5; i++ {
			rec.ReadHead(0, c[i])
			rec.ReadHead(1, c[i-1])
		}
	})
}

func TestMonitorManyViolationsCap(t *testing.T) {
	// Force > MaxViolations violations per property to exercise the
	// retention caps and the early-stop Checked reconstruction.
	monitorHarness{horizon: 2, epCheckedLoose: false}.run(t, 2, func(rec *history.Recorder) {
		base := chainN(30)
		fork := forkN(base, 1, 30)
		recordChain(rec, base, fork)
		for i := 2; i <= 29; i++ {
			rec.Read(0, base[:i+1])
			rec.Read(1, fork[:i+1])
			rec.Read(0, base[:2]) // repeated LMR drops + EGT stagnation
		}
		rec.Read(0, base)
		rec.Read(1, fork)
	})
}

func TestMonitorSpanningReads(t *testing.T) {
	// Overlapping completed operations: a read that spans other ops.
	// Everything must match except the documented EventualPrefix
	// Checked divergence.
	monitorHarness{epCheckedLoose: true}.run(t, 2, func(rec *history.Recorder) {
		c := chainN(4)
		recordChain(rec, c)
		op := rec.InvokeRead(0) // spans the next reads
		rec.Read(1, c)
		rec.Read(1, c[:3])
		rec.RespondRead(op, c[:2])
		rec.Read(1, c)
		rec.Read(0, c)
	})
}

func TestMonitorDuplicateAppends(t *testing.T) {
	monitorHarness{k: 1}.run(t, 2, func(rec *history.Recorder) {
		c := chainN(3)
		recordChain(rec, c)
		rec.Append(1, c[2], true) // duplicate successful append
		rec.Append(0, c[3], true) // another duplicate
		rec.Read(0, c)
		rec.Read(1, c)
	})
}

func TestMonitorTokenForks(t *testing.T) {
	monitorHarness{k: 1}.run(t, 3, func(rec *history.Recorder) {
		g := core.Genesis()
		tok := "tkn(seed)"
		b1 := core.NewBlock(g.ID, 1, 0, 1, nil).WithToken(tok)
		b2 := core.NewBlock(g.ID, 1, 1, 2, nil).WithToken(tok)
		b3 := core.NewBlock(g.ID, 1, 2, 3, nil).WithToken(tok)
		for _, b := range []*core.Block{b1, b2, b3} {
			rec.InternBlock(b)
			rec.Append(b.Creator, b, true)
		}
		rec.Read(0, core.GenesisChain().Append(b1))
	})
}

func TestMonitorLiveWitnesses(t *testing.T) {
	rec := history.NewRecorder(2, nil)
	var live []Witness
	mon := NewMonitor(MonitorConfig{
		Procs: 2, K: 1, Table: rec.Table(),
		OnWitness: func(w Witness) { live = append(live, w) },
	})
	rec.SetSink(mon)

	base := chainN(4)
	fork := forkN(base, 1, 4)
	recordChain(rec, base, fork)
	rec.Read(0, base)
	rec.Read(0, base[:2]) // live LMR drop
	rec.Read(1, fork)     // live SP incomparability vs base
	mon.Finalize()

	props := map[string]int{}
	for _, w := range live {
		props[w.Property]++
	}
	if props["LocalMonotonicRead"] == 0 {
		t.Errorf("no live LocalMonotonicRead witness: %v", props)
	}
	if props["StrongPrefix"] == 0 {
		t.Errorf("no live StrongPrefix witness: %v", props)
	}
	if props["1-ForkCoherence"] == 0 {
		t.Errorf("no live 1-ForkCoherence witness: %v", props)
	}
	if mon.LiveWitnesses() != len(live) {
		t.Errorf("LiveWitnesses=%d, callback saw %d", mon.LiveWitnesses(), len(live))
	}
	for _, w := range live {
		if w.Detail == "" || len(w.Ops) == 0 {
			t.Errorf("malformed live witness: %+v", w)
		}
	}
}

func TestMonitorWithoutRecorderTablePanics(t *testing.T) {
	// A monitor left on its own fresh index cannot materialize a
	// recorder's reads: rendering the live StrongPrefix witness must
	// fail loudly, not render the reads as empty chains.
	rec := history.NewRecorder(2, nil)
	rec.SetSink(NewMonitor(MonitorConfig{Procs: 2}))
	base := chainN(3)
	fork := forkN(base, 1, 2)
	rec.Read(0, base)
	defer func() {
		if recover() == nil {
			t.Fatal("a read the monitor's table does not hold was rendered")
		}
	}()
	rec.Read(1, fork)
}

func TestMonitorStatsBounded(t *testing.T) {
	// Retained compact records must stay bounded while reads grow 10x.
	retained := func(reads int) int {
		rec := history.NewRecorder(2, nil)
		mon := NewMonitor(MonitorConfig{Procs: 2, Table: rec.Table()})
		rec.SetSink(mon)
		rec.SetRetain(false)
		c := chainN(8)
		recordChain(rec, c)
		for i := 0; i < reads; i++ {
			rec.Read(i%2, c[:2+i%7])
		}
		st := mon.Stats()
		if st.Reads != reads {
			t.Fatalf("consumed %d reads, want %d", st.Reads, reads)
		}
		return st.Retained
	}
	small, big := retained(500), retained(5000)
	if big > small+8 {
		t.Errorf("retained state grew with read count: %d @500 reads vs %d @5000", small, big)
	}
}

// TestMonitorResponseOrderFeed exhibits the weaker half of the
// contract: a monitor fed in response order (the recorder's sink, as in
// a live deployment) while completed operations overlap reaches the
// oracle's OK flags and violated properties — FuzzClassifyOverlap holds
// it to that — but may name another Strong Prefix pair.
func TestMonitorResponseOrderFeed(t *testing.T) {
	// Two equal-length reads on different branches, the first invoked
	// responding last: the definition's tie-break is recording order, a
	// response-order feed sees them the other way round.
	rec := history.NewRecorder(2, nil)
	mon := NewMonitor(MonitorConfig{Procs: 2, Table: rec.Table()})
	rec.SetSink(mon)
	a := core.NewBlock(core.GenesisID, 1, 0, 1, []byte("a"))
	b := core.NewBlock(core.GenesisID, 1, 1, 2, []byte("b"))
	rec.InternBlock(a)
	rec.InternBlock(b)
	rec.Append(0, a, true)
	rec.Append(1, b, true)
	ra := rec.InvokeRead(0)
	rb := rec.InvokeRead(1)
	rec.RespondReadHead(rb, b)
	rec.RespondReadHead(ra, a)
	h := rec.Snapshot()
	msc, _ := mon.Finalize()
	osc, _ := oracleClassify(nil, nil, 0, h)
	csc, _ := NewChecker(nil, nil).Classify(h)
	if msc.OK || osc.OK || len(msc.Reports[2].Witnesses) != 1 {
		t.Fatalf("the fork must violate Strong Prefix once:\n%s%s", verdictDump(msc), verdictDump(osc))
	}
	if got, want := reportDump(csc.Reports[2]), reportDump(osc.Reports[2]); got != want {
		t.Errorf("recording-order replay names another pair than the oracle:\n--- oracle ---\n%s--- classify ---\n%s", want, got)
	}
	if got, want := msc.Reports[2].Witnesses[0].Ops, osc.Reports[2].Witnesses[0].Ops; got[0].ID != want[1].ID || got[1].ID != want[0].ID {
		t.Errorf("response-order feed was expected to name the oracle's pair reversed: got %s, oracle %s",
			msc.Reports[2].Violations, osc.Reports[2].Violations)
	}
}

package consistency

import (
	"testing"

	"repro/internal/core"
	"repro/internal/history"
)

// TestAppendTableLayout: the chunks double to their cap and only the
// last has room, a record added stays where add returned it while later
// chunks fill, and the table counts its successful appends.
func TestAppendTableLayout(t *testing.T) {
	var tb appendTable
	const n = 3*appendChunkMax + 100
	at := make([]*opRec, n)
	ok := 0
	for i := range n {
		r := opRec{ID: int32(i), OK: i%3 != 0, Pending: i%5 == 0}
		if at[i] = tb.add(r); *at[i] != r {
			t.Fatalf("record %d: add returned record %d", i, at[i].ID)
		}
		if r.succeeded() {
			ok++
		}
	}
	want := appendChunkMin
	for c, chunk := range tb.chunks {
		if cap(chunk) != want || c < len(tb.chunks)-1 && len(chunk) != cap(chunk) {
			t.Fatalf("chunk %d holds %d of %d, want a full chunk of %d", c, len(chunk), cap(chunk), want)
		}
		want = min(2*want, appendChunkMax)
	}
	i := 0
	for r := range tb.all() {
		if r != at[i] || r.ID != int32(i) {
			t.Fatalf("position %d: all yields record %d, not the one add returned", i, r.ID)
		}
		i++
	}
	if i != n || tb.ok != ok {
		t.Fatalf("all yields %d records of %d; the table counts %d successful, want %d", i, n, tb.ok, ok)
	}
}

// TestMonitorStatsRetainedCountsSuccessfulAppends pins Retained at one
// record per successful append — what it counted when the token groups
// held the appends — on appends that fail, stay pending and share a
// parent. The append table keeps all four, and Retained does not say so.
func TestMonitorStatsRetainedCountsSuccessfulAppends(t *testing.T) {
	rec := history.NewRecorder(2, nil)
	mon := NewMonitor(MonitorConfig{Procs: 2, Table: rec.Table()})
	rec.SetSink(mon)
	g := core.Genesis()
	a := core.NewBlock(g.ID, 1, 0, 1, []byte("a"))
	b := core.NewBlock(g.ID, 1, 1, 2, []byte("b")) // a's sibling
	bad := core.NewBlock(g.ID, 1, 0, 3, []byte("failed"))
	late := core.NewBlock(a.ID, 2, 1, 4, []byte("pending"))
	for _, blk := range []*core.Block{a, b, bad, late} {
		rec.InternBlock(blk)
	}
	rec.Append(0, a, true)
	rec.Append(1, b, true)
	rec.Append(0, bad, false)
	rec.InvokeAppend(1, late)
	for _, op := range rec.PendingOps() {
		mon.OpPending(op)
	}
	st := mon.Stats()
	kept := 0
	for range mon.Appends.all() {
		kept++
	}
	if st.Appends != 3 || st.Retained != 2 || kept != 4 {
		t.Fatalf("Appends %d, Retained %d, table %d; want 3, 2 and 4", st.Appends, st.Retained, kept)
	}
	if rep := mon.KForkReport(1); rep.OK || rep.Checked != 1 {
		t.Fatalf("the siblings share one token group over k=1:\n%s", reportDump(rep))
	}
}

// TestConsumeAppendAllocations bounds what 4 096 successful appends cost
// a fresh monitor in allocations: the append table's chunks and the
// growth of its index maps, not one allocation or more per append, as
// the token key "parent:<id>" built for every append once was.
func TestConsumeAppendAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates beyond the bound; the count holds in a plain build")
	}
	const n = 4096
	ops := make([]*history.Op, n)
	parent := core.Genesis()
	for i := range ops {
		b := core.NewBlock(parent.ID, parent.Height+1, i%4, i, nil)
		ops[i] = &history.Op{ID: i, Proc: i % 4, Kind: history.OpAppend, Block: b, OK: true, InvIndex: 2 * i, RspIndex: 2*i + 1}
		parent = b
	}
	for _, k := range []int{0, 1} {
		cfg := MonitorConfig{Procs: 4, K: k}
		fresh := testing.AllocsPerRun(3, func() { NewMonitor(cfg) })
		fed := testing.AllocsPerRun(3, func() {
			m := NewMonitor(cfg)
			for _, op := range ops {
				m.OpDone(op)
			}
		})
		// 7 chunks hold 4 096 records and the slice of chunks grows 4
		// times; each map that grows to 4 096 entries (appendAt, and the
		// armed per-token counts) allocates about 47 times.
		maps := 1 + min(k, 1)
		if feed := fed - fresh; feed > 7+4+64*float64(maps) {
			t.Errorf("k=%d: %d appends allocate %.0f times", k, n, feed)
		}
	}
}

// TestMonitorEarliestAppendFeedOrder feeds overlapping appends in
// response order, as the recorder's sink does. A read of b responds
// before any append of b has, so it stays a Block Validity suspect until
// Finalize, where b's earliest-invoked append clears it — not the
// duplicate that arrives last, invoked after the read responded. Two
// appends under one token respond in the reverse of their invocation,
// and the k-Fork report lists them by invocation.
func TestMonitorEarliestAppendFeedOrder(t *testing.T) {
	monitorHarness{}.run(t, 3, func(rec *history.Recorder) {
		g := core.Genesis()
		b := core.NewBlock(g.ID, 1, 0, 1, []byte("b"))
		x := core.NewBlock(b.ID, 2, 0, 2, nil).WithToken("tkn(x)")
		y := core.NewBlock(b.ID, 2, 1, 3, []byte("y")).WithToken("tkn(x)")
		for _, blk := range []*core.Block{b, x, y} {
			rec.InternBlock(blk)
		}
		first := rec.InvokeAppend(0, b)
		read := rec.InvokeRead(2)
		rec.RespondReadHead(read, b)
		rec.RespondAppend(first, true, nil)
		rec.Append(1, b, true) // invoked after the read responded
		ax := rec.InvokeAppend(0, x)
		ay := rec.InvokeAppend(1, y)
		rec.RespondAppend(ay, true, nil)
		rec.RespondAppend(ax, true, nil)
	})
}

package consistency_test

import (
	"testing"

	"repro/btsim"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/history"
)

// TestCommJudgeBounded: what the communication judge retains is the
// messages in flight, so a streamed lossless run ends with none, and once
// warm, judging a communication event and a read — its Monotonic Prefix
// probe included — allocates nothing.
func TestCommJudgeBounded(t *testing.T) {
	res, err := btsim.Run("fabric", btsim.WithN(8), btsim.WithRounds(40), btsim.WithSeed(3),
		btsim.WithReadEvery(2), btsim.WithStreaming(64))
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stream.MonitorStats; st.Comm == 0 || st.InFlight != 0 {
		t.Fatalf("streamed fabric run: %d communication events, %d messages still in flight", st.Comm, st.InFlight)
	}
	if !res.UpdateAgreement().OK || !res.LRC().OK {
		t.Fatalf("lossless run: %v, %v", res.UpdateAgreement(), res.LRC())
	}

	rec := history.NewRecorder(2, nil)
	mon := consistency.NewMonitor(consistency.MonitorConfig{Procs: 2, Table: rec.Table()})
	rec.SetSink(mon)
	g := core.Genesis()
	parent := core.NewBlock(g.ID, 1, 0, 1, []byte{1})
	child := core.NewBlock(parent.ID, 2, 0, 2, []byte{2})
	for _, b := range []*core.Block{parent, child} {
		rec.InternBlock(b)
		rec.Append(0, b, true)
	}
	// parent reaches both processes and leaves the flight; child reaches 0.
	for _, e := range []struct {
		kind history.CommKind
		p    int
		b    *core.Block
	}{
		{history.EvUpdate, 0, parent}, {history.EvSend, 0, parent}, {history.EvReceive, 0, parent},
		{history.EvReceive, 1, parent}, {history.EvUpdate, 1, parent},
		{history.EvUpdate, 0, child}, {history.EvSend, 0, child}, {history.EvReceive, 0, child},
	} {
		rec.RecordComm(e.kind, e.p, e.b.Parent, e.b.ID)
	}
	if st := mon.Stats(); st.InFlight != 1 {
		t.Fatalf("%d messages in flight, want the child's alone", st.InFlight)
	}
	// The steady state: a repeated receive and a remote update of a
	// delivered message, and process 0 reading parent then child — a
	// backwards step (whose reports fill up) and an extension the
	// ancestor probe clears.
	reads := []*history.Op{
		{ID: 100, Proc: 0, Kind: history.OpRead, Head: parent.ID, ChainLen: 2, InvIndex: 100, RspIndex: 101},
		{ID: 101, Proc: 0, Kind: history.OpRead, Head: child.ID, ChainLen: 3, InvIndex: 102, RspIndex: 103},
	}
	step := func() {
		mon.CommDone(history.CommEvent{Kind: history.EvReceive, Proc: 0, Parent: child.Parent, Block: child.ID, Index: 104})
		mon.CommDone(history.CommEvent{Kind: history.EvUpdate, Proc: 1, Parent: parent.Parent, Block: parent.ID, Index: 105})
		for _, op := range reads {
			mon.OpDone(op)
		}
	}
	for range 2 * consistency.MaxViolations {
		step()
	}
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Fatalf("a warm monitor allocates %.1f times per communication event and read pair", n)
	}
	if mp := mon.MonotonicPrefix(); mp.OK || mp.Checked < 2*consistency.MaxViolations {
		t.Fatalf("the backwards reads went unjudged: %v", mp)
	}
}

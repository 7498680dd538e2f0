package consistency

import (
	"testing"

	"repro/internal/core"
	"repro/internal/history"
)

// scenario records the canonical Figure 13 pattern for three processes:
// 0 creates block b, updates, sends; 1 and 2 receive then update; 0
// receives its own send (loopback).
func scenario(skip func(kind history.CommKind, proc int) bool) *history.History {
	rec := history.NewRecorder(3, nil)
	b := core.NewBlock(core.GenesisID, 1, 0, 1, []byte("ua"))
	rec.InternBlock(b) // its Creator field says it was generated at 0
	emit := func(kind history.CommKind, proc int) {
		if skip != nil && skip(kind, proc) {
			return
		}
		rec.RecordComm(kind, proc, core.GenesisID, b.ID)
	}
	emit(history.EvUpdate, 0)
	emit(history.EvSend, 0)
	emit(history.EvReceive, 0)
	emit(history.EvReceive, 1)
	emit(history.EvUpdate, 1)
	emit(history.EvReceive, 2)
	emit(history.EvUpdate, 2)
	return rec.Snapshot()
}

func TestUpdateAgreementHolds(t *testing.T) {
	h := scenario(nil)
	rep := UpdateAgreement(h)
	if !rep.OK {
		t.Fatalf("clean scenario violated: %v", rep.Violations)
	}
	if rep.Checked != 3 {
		t.Fatalf("checked %d updates, want 3", rep.Checked)
	}
}

func TestR1ViolatedWhenSendMissing(t *testing.T) {
	h := scenario(func(kind history.CommKind, proc int) bool {
		return kind == history.EvSend
	})
	rep := UpdateAgreement(h)
	if rep.OK {
		t.Fatal("missing send (R1) not detected")
	}
}

func TestR2ViolatedWhenReceiveMissing(t *testing.T) {
	h := scenario(func(kind history.CommKind, proc int) bool {
		return kind == history.EvReceive && proc == 1
	})
	rep := UpdateAgreement(h)
	if rep.OK {
		t.Fatal("update without receive (R2) not detected")
	}
}

func TestR2ViolatedWhenReceiveAfterUpdate(t *testing.T) {
	rec := history.NewRecorder(2, nil)
	b := core.NewBlock(core.GenesisID, 1, 0, 1, nil)
	rec.InternBlock(b)
	rec.RecordComm(history.EvUpdate, 0, core.GenesisID, b.ID)
	rec.RecordComm(history.EvSend, 0, core.GenesisID, b.ID)
	rec.RecordComm(history.EvReceive, 0, core.GenesisID, b.ID)
	// Process 1 updates BEFORE its receive: R2 ordering violated.
	rec.RecordComm(history.EvUpdate, 1, core.GenesisID, b.ID)
	rec.RecordComm(history.EvReceive, 1, core.GenesisID, b.ID)
	rep := UpdateAgreement(rec.Snapshot())
	if rep.OK {
		t.Fatal("receive-after-update (R2 order) not detected")
	}
}

func TestR3ViolatedWhenOneProcessNeverReceives(t *testing.T) {
	h := scenario(func(kind history.CommKind, proc int) bool {
		return proc == 2 // process 2 sees nothing
	})
	rep := UpdateAgreement(h)
	if rep.OK {
		t.Fatal("missing receive at process 2 (R3) not detected")
	}
}

func TestR3IgnoresFaultyProcesses(t *testing.T) {
	rec := history.NewRecorder(3, nil)
	b := core.NewBlock(core.GenesisID, 1, 0, 1, nil)
	rec.InternBlock(b)
	rec.RecordComm(history.EvUpdate, 0, core.GenesisID, b.ID)
	rec.RecordComm(history.EvSend, 0, core.GenesisID, b.ID)
	rec.RecordComm(history.EvReceive, 0, core.GenesisID, b.ID)
	rec.RecordComm(history.EvReceive, 1, core.GenesisID, b.ID)
	rec.RecordComm(history.EvUpdate, 1, core.GenesisID, b.ID)
	// Process 2 is Byzantine and receives nothing: no violation.
	rec.MarkFaulty(2)
	rep := UpdateAgreement(rec.Snapshot())
	if !rep.OK {
		t.Fatalf("faulty process counted: %v", rep.Violations)
	}
}

func TestUnknownCreatorTreatedAsRemote(t *testing.T) {
	rec := history.NewRecorder(1, nil)
	b := core.NewBlock(core.GenesisID, 1, 0, 1, nil)
	// No receive precedes the update and the block index does not know
	// the block: R2 must flag it (conservative direction).
	rec.RecordComm(history.EvUpdate, 0, core.GenesisID, b.ID)
	rep := UpdateAgreement(rec.Snapshot())
	if rep.OK {
		t.Fatal("unknown-creator update without receive accepted")
	}
}

func TestLRCHolds(t *testing.T) {
	h := scenario(nil)
	rep := LRC(h)
	if !rep.OK {
		t.Fatalf("clean scenario violated LRC: %v", rep.Violations)
	}
}

func TestLRCValidityViolated(t *testing.T) {
	// Sender never receives its own message.
	h := scenario(func(kind history.CommKind, proc int) bool {
		return kind == history.EvReceive && proc == 0
	})
	rep := LRC(h)
	if rep.OK {
		t.Fatal("missing loopback receive (Validity) not detected")
	}
}

func TestLRCAgreementViolated(t *testing.T) {
	h := scenario(func(kind history.CommKind, proc int) bool {
		return kind == history.EvReceive && proc == 2
	})
	rep := LRC(h)
	if rep.OK {
		t.Fatal("partial delivery (Agreement) not detected")
	}
}

func TestLRCIgnoresFaultySenders(t *testing.T) {
	rec := history.NewRecorder(2, nil)
	b := core.NewBlock(core.GenesisID, 1, 0, 1, nil)
	// A Byzantine process sends but nobody receives: not a violation
	// (the properties quantify over correct processes).
	rec.RecordComm(history.EvSend, 1, core.GenesisID, b.ID)
	rec.MarkFaulty(1)
	rep := LRC(rec.Snapshot())
	if !rep.OK {
		t.Fatalf("faulty sender counted: %v", rep.Violations)
	}
}

package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/consistency"
)

// TestAllExperimentsReproduce is the repository's headline test: every
// figure and table of the paper must regenerate with OK status, across
// several seeds.
func TestAllExperimentsReproduce(t *testing.T) {
	for _, seed := range []uint64{42, 7, 123} {
		for _, e := range All() {
			e := e
			res := e.Run(seed)
			if !res.OK {
				t.Errorf("seed %d: %s (%s) MISMATCH:\n%s", seed, res.ID, e.Name, res)
			}
			if len(res.Lines) == 0 {
				t.Errorf("seed %d: %s produced no output", seed, res.ID)
			}
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
		if e.Run == nil || e.Name == "" {
			t.Fatalf("experiment %q incomplete", e.ID)
		}
	}
	// One per figure (1-14), Table 1, plus the two theorem witnesses.
	for _, want := range []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
		"lrc", "thm48", "table1",
	} {
		if !ids[want] {
			t.Errorf("experiment %q missing", want)
		}
	}
}

func TestByID(t *testing.T) {
	if ByID("fig3") == nil {
		t.Fatal("fig3 not found")
	}
	if ByID("nope") != nil {
		t.Fatal("unknown id found")
	}
}

func TestResultRendering(t *testing.T) {
	res := Figure2(1)
	s := res.String()
	if !strings.Contains(s, "Figure 2") || !strings.Contains(s, "REPRODUCED") {
		t.Fatalf("render: %s", s)
	}
	bad := &Result{ID: "X", Title: "t"}
	if !strings.Contains(bad.String(), "MISMATCH") {
		t.Fatal("not-OK result must render MISMATCH")
	}
}

func TestTable1RowsCoverAllSystems(t *testing.T) {
	res := Table1(42)
	for _, sys := range []string{"Bitcoin", "Ethereum", "Algorand", "ByzCoin", "PeerCensus", "RedBelly", "Hyperledger"} {
		found := false
		for _, l := range res.Lines {
			if strings.Contains(l, sys) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("system %s missing from Table 1", sys)
		}
	}
}

func TestTable1SCFamilyClassification(t *testing.T) {
	rows, err := Rows(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		switch row.PaperCriterion {
		case "SC", "SC w.h.p.":
			if !row.SCHolds {
				t.Errorf("%s: SC does not hold", row.System)
			}
			if row.OracleMeasured != "ΘF,k=1" {
				t.Errorf("%s: measured oracle %s", row.System, row.OracleMeasured)
			}
		case "EC":
			if !row.ECHolds {
				t.Errorf("%s: EC does not hold", row.System)
			}
		}
	}
}

func TestFigure3SeparatesCriteria(t *testing.T) {
	res := Figure3(1)
	joined := strings.Join(res.Lines, "\n")
	if !strings.Contains(joined, "SC: VIOLATED") || !strings.Contains(joined, "EC: HOLDS") {
		t.Fatalf("Figure 3 verdicts wrong:\n%s", joined)
	}
}

func TestTheorem48WitnessesFork(t *testing.T) {
	res := Theorem48(42)
	joined := strings.Join(res.Lines, "\n")
	if !strings.Contains(joined, "StrongPrefix: VIOLATED") {
		t.Fatalf("no Strong Prefix violation:\n%s", joined)
	}
	if !strings.Contains(joined, "LRC: OK") {
		t.Fatalf("LRC should hold:\n%s", joined)
	}
}

// TestAntiEntropyLRCReportIsStable: LRC's Agreement pass used to range
// over a map, so the violations — and the "e.g." of the experiment's
// unrepaired row — changed from run to run. They are reported in
// first-receive order; the row is pinned.
func TestAntiEntropyLRCReportIsStable(t *testing.T) {
	h := antiEntropyRun(42, 45, false).History()
	want := consistency.LRC(h).Violations
	if len(want) < 2 {
		t.Fatalf("unrepaired partition produced %d LRC violations, want several", len(want))
	}
	for i := 0; i < 20; i++ {
		if got := consistency.LRC(h).Violations; !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: violations reordered:\n got %v\nwant %v", i, got, want)
		}
	}
	const row = "partition, no repair    : EC: VIOLATED (EverGrowingTree) ; LRC: VIOLATED (20 facts, e.g. " +
		"Agreement: (b0,a003c840) received by some correct process but not by 3) ; heights [10 10 10 0]"
	if got := ExtensionAntiEntropy(42).Lines[1]; got != row {
		t.Errorf("unrepaired row:\n got %s\nwant %s", got, row)
	}
}

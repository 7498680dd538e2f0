package scenario

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/btsim"
	"repro/internal/consistency"
)

// outcomeText flattens everything an Outcome derives from the verdicts:
// digest, violated set, and the full per-report detail including
// witness op renderings — the byte-equivalence surface of the
// online-feed-vs-replay acceptance criterion.
func outcomeText(o *Outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digest=%s violated=%v\n", o.Digest, o.Violated)
	dump := func(v *consistency.Verdict) {
		fmt.Fprintf(&b, "%s ok=%v failing=%v\n", v.Criterion, v.OK, v.Failing())
		for _, rep := range v.Reports {
			fmt.Fprintf(&b, "%s ok=%v checked=%d\n", rep.Property, rep.OK, rep.Checked)
			for _, viol := range rep.Violations {
				fmt.Fprintf(&b, "V %s\n", viol)
			}
			for _, w := range rep.Witnesses {
				fmt.Fprintf(&b, "W %s |", w.Detail)
				for _, op := range w.Ops {
					fmt.Fprintf(&b, " %s", op)
				}
				for _, id := range w.Blocks {
					fmt.Fprintf(&b, " %s", id.Short())
				}
				b.WriteString("\n")
			}
		}
	}
	dump(o.SC)
	dump(o.EC)
	if o.KFork != nil {
		fmt.Fprintf(&b, "kfork ok=%v checked=%d viol=%v\n", o.KFork.OK, o.KFork.Checked, o.KFork.Violations)
	}
	return b.String()
}

// TestStreamingMatchesBatchCatalogue is the acceptance diff test: every
// pinned scenario run twice — Classify's replay of the retained history
// vs. the monitor fed online — must produce byte-identical outcomes
// (digest, verdicts, violations, witnesses). Both sides are the Monitor;
// what holds it to the definitions on these runs is
// consistency.TestClassifyMatchesOracleOnRuns.
func TestStreamingMatchesBatchCatalogue(t *testing.T) {
	for _, spec := range Catalogue() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			batch, err := spec.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := spec.RunStream(0)
			if err != nil {
				t.Fatal(err)
			}
			want, got := outcomeText(batch), outcomeText(stream)
			if got != want {
				t.Errorf("online outcome differs from the replay:\n--- replay ---\n%s--- stream ---\n%s", want, got)
			}
		})
	}
}

// TestCheckpointedStreamingMatchesBatchCatalogue is the restart-safety
// acceptance diff: every pinned scenario re-run with the online monitor
// checkpoint-cycled every 64 operations (serialize → restore →
// continue) must still produce the byte-identical outcome — digest,
// verdicts, violations, witnesses — proving a crashed-and-recovered
// monitor is indistinguishable from one that never went down.
func TestCheckpointedStreamingMatchesBatchCatalogue(t *testing.T) {
	for _, spec := range Catalogue() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			batch, err := spec.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			spec.MonitorCheckpoint = 64
			stream, err := spec.RunStream(0)
			if err != nil {
				t.Fatal(err)
			}
			so := stream.Res.Stream
			if so.CheckpointErr != nil {
				t.Fatalf("checkpoint cycle failed: %v", so.CheckpointErr)
			}
			if so.Checkpoints == 0 {
				t.Fatalf("run consumed %d ops but never cycled the monitor", so.Ops)
			}
			want, got := outcomeText(batch), outcomeText(stream)
			if got != want {
				t.Errorf("checkpointed online outcome differs from the replay (%d cycles):\n--- replay ---\n%s--- checkpointed ---\n%s",
					so.Checkpoints, want, got)
			}
		})
	}
}

// TestLongRunStreamingSmoke runs the scaled-down long-run scenario —
// the same streaming/drop-mode shape CI exercises under -race — and
// checks the bounded-memory bookkeeping is alive.
func TestLongRunStreamingSmoke(t *testing.T) {
	spec := SmokeLongRun()
	var peak uint64
	spec.Observer = func(p btsim.Progress) bool { // cmd/scenarios -long's sampler
		if p.Round%256 == 0 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapAlloc)
		}
		return true
	}
	o, err := spec.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	st := o.Res.Stream
	if st.Ops < 10_000 {
		t.Errorf("smoke long run recorded only %d ops", st.Ops)
	}
	if st.Segments < 2 {
		t.Errorf("smoke long run sealed only %d segments", st.Segments)
	}
	if o.SC == nil || o.EC == nil {
		t.Fatal("missing streaming verdicts")
	}
	if len(o.Violated) != 0 {
		t.Errorf("benign long run violated %v", o.Violated)
	}
	if st.Stats.Retained > 10_000 {
		t.Errorf("monitor retained %d records — not bounded", st.Stats.Retained)
	}
	if peak == 0 {
		t.Error("no heap samples taken")
	}
}

// TestLiveSpecRunStream: a catalogue entry may carry Live/Load, and the
// online verdicts of a deployed run are in Result.Stream like a
// simulated one's, so RunStream judges it (it used to dereference a nil
// Stream) and agrees with the replay behind Run on a benign run.
func TestLiveSpecRunStream(t *testing.T) {
	spec := Spec{Name: "live/bitcoin", System: "bitcoin",
		Config: btsim.Config{N: 4, Live: true, Load: btsim.Load{Appends: 50}}}
	replay, err := spec.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	online, err := spec.RunStream(0)
	if err != nil {
		t.Fatal(err)
	}
	if online.SC == nil || online.EC == nil || online.Res.Stream.Ops == 0 {
		t.Fatalf("RunStream on a live spec: verdicts %v/%v over %d ops", online.SC, online.EC, online.Res.Stream.Ops)
	}
	if len(replay.Violated) != 0 || len(online.Violated) != 0 {
		t.Errorf("benign live run: Run violated %v, RunStream violated %v", replay.Violated, online.Violated)
	}
}

package scenario

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/btsim"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/history"
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

// rejudged is o with its verdicts replaced by v and everything an
// Outcome derives from them (violated set, witnesses, digest) derived
// again — the other side of a byte-for-byte outcomeText comparison.
func rejudged(o *Outcome, v consistency.Verdicts) *Outcome {
	r := &Outcome{Spec: o.Spec, Seed: o.Seed, Res: o.Res}
	r.judge(v)
	return r
}

// TestStreamingMatchesBatchCatalogue is the acceptance diff test: every
// pinned scenario's outcome — built from the verdicts of the monitor
// that watched the run — must equal byte for byte (digest, verdicts,
// violations, witnesses) an explicit consistency.Checker replay of the
// run's retained history. Both sides are the Monitor; what holds it to
// the definitions on these runs is
// consistency.TestClassifyMatchesOracleOnRuns.
func TestStreamingMatchesBatchCatalogue(t *testing.T) {
	for _, spec := range Catalogue() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			online, err := spec.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			h := online.Res.History
			chk := consistency.NewChecker(online.Res.Score, core.WellFormed{})
			var v consistency.Verdicts
			v.SC, v.EC = chk.Classify(h)
			if spec.CheckK > 0 {
				v.KFork = chk.KForkCoherence(h, spec.CheckK)
			}
			want, got := outcomeText(rejudged(online, v)), outcomeText(online)
			if got != want {
				t.Errorf("online outcome differs from the replay:\n--- replay ---\n%s--- online ---\n%s", want, got)
			}
		})
	}
}

// cycledReplay feeds h to a monitor the way Checker's replay does —
// faulty processes first, then the operations in recording order — and
// checkpoint-cycles it every `every` operations: serialize, restore a
// fresh monitor from the bytes, continue on the restored one.
func cycledReplay(t *testing.T, h *history.History, score core.Score, k, every int) (v consistency.Verdicts, cycles int) {
	t.Helper()
	cfg := consistency.MonitorConfig{Procs: h.Procs, Score: score, P: core.WellFormed{}, K: k, Table: h.Table}
	m := consistency.NewMonitor(cfg)
	for p, ok := range h.Correct {
		if !ok {
			m.Faulty(p)
		}
	}
	for i, op := range h.Ops {
		if op.Pending {
			m.OpPending(op)
		} else {
			m.OpDone(op)
		}
		if (i+1)%every != 0 {
			continue
		}
		data, err := m.Checkpoint()
		if err != nil {
			t.Fatalf("checkpoint after %d ops: %v", i+1, err)
		}
		if m, err = consistency.RestoreMonitor(data, cfg); err != nil {
			t.Fatalf("restore after %d ops: %v", i+1, err)
		}
		cycles++
	}
	v.SC, v.EC = m.Finalize()
	if k > 0 {
		v.KFork = m.KForkReport(k)
	}
	return v, cycles
}

// TestCheckpointedStreamingMatchesBatchCatalogue is the restart-safety
// acceptance diff: every pinned scenario's retained history replayed
// through a monitor checkpoint-cycled every 64 operations (serialize →
// restore → continue) must give the byte-identical outcome — digest,
// verdicts, violations, witnesses — the run's own monitor gave, proving
// a crashed-and-recovered monitor is indistinguishable from one that
// never went down.
func TestCheckpointedStreamingMatchesBatchCatalogue(t *testing.T) {
	for _, spec := range Catalogue() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			online, err := spec.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			v, cycles := cycledReplay(t, online.Res.History, online.Res.Score, spec.CheckK, 64)
			if cycles == 0 {
				t.Fatalf("%d ops replayed but the monitor never cycled", len(online.Res.History.Ops))
			}
			want, got := outcomeText(online), outcomeText(rejudged(online, v))
			if got != want {
				t.Errorf("checkpointed replay differs from the online outcome (%d cycles):\n--- online ---\n%s--- checkpointed ---\n%s",
					cycles, want, got)
			}
		})
	}
}

// TestStreamedCheckIsTheMonitors: a WithStreaming run retains no
// history, so a replay behind Check() or KFork() would judge an empty run
// and find nothing. On three catalogue entries that break properties,
// streamed, Check() and KFork(1) must report what the run's own monitor
// found — the violations the same run measures with its history kept.
func TestStreamedCheckIsTheMonitors(t *testing.T) {
	for _, name := range []string{"bitcoin/selfish", "bitcoin/crash-amnesia", "fabric/equivocate"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec := *ByName(name)
			spec.CheckK = 1
			kept := mustRun(t, spec, 0)
			spec.Streaming = true
			o := mustRun(t, spec, 0)
			if len(o.Res.History.Ops) >= len(kept.Res.History.Ops) {
				t.Fatalf("the streamed run retained its history: %d ops (kept: %d)", len(o.Res.History.Ops), len(kept.Res.History.Ops))
			}
			if len(o.Violated) == 0 || fmt.Sprint(o.Violated) != fmt.Sprint(kept.Violated) {
				t.Fatalf("streamed run violated %v, the kept run %v", o.Violated, kept.Violated)
			}
			sc, ec := o.Res.Check()
			checked := rejudged(o, consistency.Verdicts{SC: sc, EC: ec, KFork: o.Res.KFork(1)})
			if want, got := outcomeText(o), outcomeText(checked); got != want {
				t.Errorf("Check()/KFork(1) differ from Stream:\n--- Stream ---\n%s--- Check/KFork ---\n%s", want, got)
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
	if st.MonitorStats.Retained > 10_000 {
		t.Errorf("monitor retained %d records — not bounded", st.MonitorStats.Retained)
	}
	if peak == 0 {
		t.Error("no heap samples taken")
	}
}

// TestLiveSpecRunStream: a catalogue entry may carry Live/Load. A
// deployed run's verdicts are in Result.Stream like a simulated one's, so
// Run judges it from there (a live spec once dereferenced a nil Stream),
// and Check() reports the same verdicts.
func TestLiveSpecRunStream(t *testing.T) {
	spec := Spec{Name: "live/bitcoin", System: "bitcoin",
		Config: btsim.Config{N: 4, Live: true, Load: btsim.Load{Appends: 50}}}
	o, err := spec.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if o.SC == nil || o.EC == nil || o.Res.Stream.Ops == 0 {
		t.Fatalf("live spec: verdicts %v/%v over %d ops", o.SC, o.EC, o.Res.Stream.Ops)
	}
	if len(o.Violated) != 0 {
		t.Errorf("benign live run violated %v", o.Violated)
	}
	if sc, ec := o.Res.Check(); sc != o.SC || ec != o.EC {
		t.Errorf("Check() on a live run: %v/%v, Stream: %v/%v", sc, ec, o.SC, o.EC)
	}
}

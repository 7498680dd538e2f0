package btsim_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/btsim"
	_ "repro/btsim/systems"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/protocols/bitcoin"
	"repro/internal/scenario"
)

// verdictText flattens a verdict for equality checks: OK flags, failing
// property names, Checked counts, every violation string and witness.
func verdictText(v *consistency.Verdict) string {
	var b strings.Builder
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
			b.WriteString("\n")
		}
	}
	return b.String()
}

func reportText(rep *consistency.Report) string {
	if rep == nil {
		return "<nil>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s ok=%v checked=%d viol=%v\n", rep.Property, rep.OK, rep.Checked, rep.Violations)
	for _, w := range rep.Witnesses {
		fmt.Fprintf(&b, "W %s | %s | %v %v\n", w.Property, w.Detail, w.Ops, w.Blocks)
	}
	return b.String()
}

// commText renders the reports a run's monitor answers beside its
// verdicts: Update Agreement, LRC and Monotonic Prefix.
func commText(ua, lrc, mp *consistency.Report) string {
	return reportText(ua) + reportText(lrc) + reportText(mp)
}

// replayText is commText of the replays of a retained history.
func replayText(res *btsim.Result) string {
	h := res.History
	return commText(consistency.UpdateAgreement(h), consistency.LRC(h),
		consistency.NewChecker(res.Score, core.WellFormed{}).MonotonicPrefix(h))
}

// ownText is commText as the run's own monitor answers.
func ownText(res *btsim.Result) string {
	return commText(res.UpdateAgreement(), res.LRC(), res.MonotonicPrefix())
}

// TestStreamedCommPropertiesAreTheMonitors: Update Agreement, LRC and
// Monotonic Prefix are judged by the monitor that watched the run, so a
// WithStreaming run, which retains no history, reports them exactly as a
// replay of the same run's retained history does — OK, Checked,
// violations and witnesses. Probed on Theorem 4.6/4.7's lossy run and
// on Extension MPC's reorganising bitcoin run, then on every catalogue
// entry; a live deployment's reports come from its own monitor and
// equal a replay of its history.
func TestStreamedCommPropertiesAreTheMonitors(t *testing.T) {
	probes := []struct {
		opts []btsim.Option
		want []string
	}{
		{[]btsim.Option{
			btsim.WithN(4), btsim.WithRounds(120), btsim.WithSeed(1), btsim.WithReadEvery(15),
			btsim.WithDifficulty(10), btsim.WithMerits(1, 0, 0, 0), btsim.WithDropNth(0, 2),
		}, []string{"UpdateAgreement: VIOLATED (39 facts", "LRC: VIOLATED (26 facts"}},
		{[]btsim.Option{
			btsim.WithN(4), btsim.WithRounds(300), btsim.WithSeed(1), btsim.WithReadEvery(4), btsim.WithDifficulty(5),
		}, []string{"MonotonicPrefix: VIOLATED (253 facts"}},
	}
	for _, pr := range probes {
		kept, err := btsim.Run("bitcoin", pr.opts...)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := btsim.Run("bitcoin", append(pr.opts, btsim.WithStreaming(0))...)
		if err != nil {
			t.Fatal(err)
		}
		if len(streamed.History.Comm) != 0 {
			t.Fatalf("the streamed run retained %d communication events", len(streamed.History.Comm))
		}
		if got, want := ownText(streamed), replayText(kept); got != want {
			t.Errorf("streamed:\n%sreplay of the retained run:\n%s", got, want)
		}
		reports := streamed.UpdateAgreement().String() + streamed.LRC().String() + streamed.MonotonicPrefix().String()
		for _, w := range pr.want {
			if !strings.Contains(reports, w) {
				t.Errorf("streamed reports %q, want %q", reports, w)
			}
		}
	}

	for _, spec := range scenario.Catalogue() {
		kept, err := spec.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		spec.Streaming = true
		streamed, err := spec.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ownText(streamed.Res), replayText(kept.Res); got != want {
			t.Errorf("%s streamed:\n%sreplay of the retained run:\n%s", spec.Name, got, want)
		}
	}

	live, err := btsim.Run("fabric", btsim.WithN(8), btsim.WithSeed(42),
		btsim.WithLive("chan"), btsim.WithLoad(btsim.Load{Clients: 2, Appends: 20}))
	if err != nil {
		t.Fatal(err)
	}
	mon := live.Live.Monitor
	if mon == nil {
		t.Fatal("the deployment handed over no monitor")
	}
	own := ownText(live) + reportText(live.KFork(1))
	if deployed := commText(mon.UpdateAgreement(), mon.LRC(), mon.MonotonicPrefix()) + reportText(mon.KForkReport(1)); own != deployed {
		t.Errorf("live run reports\n%sits deployment's monitor\n%s", own, deployed)
	}
	h := live.Live.History
	if replay := replayText(live) + reportText(consistency.NewChecker(nil, nil).KForkCoherence(h, 1)); own != replay {
		t.Errorf("live run reports\n%sa replay of its history\n%s", own, replay)
	}
	if st := live.Stream.Stats; st.Comm == 0 || st.InFlight != 0 {
		t.Errorf("live monitor consumed %d communication events and ends with %d messages in flight", st.Comm, st.InFlight)
	}
}

// TestMonitorMatchesBatchAcrossSystems runs every registered system and
// requires the verdicts of the monitor that watched the run (Stream) to
// equal an explicit consistency.Checker replay of the retained history
// exactly — including an adversarial bitcoin run that actually violates
// properties. (The replay is held to the definitions, one run per
// system, by consistency.TestClassifyMatchesOracleOnRuns.)
func TestMonitorMatchesBatchAcrossSystems(t *testing.T) {
	type run struct {
		name string
		opts []btsim.Option
	}
	runs := []run{}
	for _, sys := range btsim.Systems() {
		runs = append(runs, run{sys.Name(), []btsim.Option{
			btsim.WithN(4), btsim.WithRounds(30), btsim.WithSeed(11),
		}})
	}
	runs = append(runs, run{"bitcoin", []btsim.Option{
		btsim.WithN(4), btsim.WithRounds(60), btsim.WithSeed(7),
		btsim.WithMerits(1, 1, 1, 2),
		btsim.WithAdversary(btsim.Adversary{Strategy: btsim.Equivocate, Forks: 2}),
	}})
	runs = append(runs, run{"ethereum", []btsim.Option{
		btsim.WithN(4), btsim.WithRounds(50), btsim.WithSeed(3),
		btsim.WithFaults(btsim.Fault{Start: 40, End: btsim.NoHeal, Left: []int{0, 1}}),
	}})

	for _, r := range runs {
		res, err := btsim.Run(r.name, append(r.opts, btsim.WithMonitorK(1))...)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if res.Stream == nil {
			t.Fatalf("%s: no StreamOutcome", r.name)
		}
		chk := consistency.NewChecker(res.Score, core.WellFormed{})
		bsc, bec := chk.Classify(res.History)
		if got, want := verdictText(res.Stream.SC), verdictText(bsc); got != want {
			t.Errorf("%s: SC stream != replay:\n--- replay ---\n%s--- stream ---\n%s", r.name, want, got)
		}
		if got, want := verdictText(res.Stream.EC), verdictText(bec); got != want {
			t.Errorf("%s: EC stream != replay:\n--- replay ---\n%s--- stream ---\n%s", r.name, want, got)
		}
		if got, want := reportText(res.Stream.KFork), reportText(chk.KForkCoherence(res.History, 1)); got != want {
			t.Errorf("%s: KFork stream != replay:\n--- replay ---\n%s--- stream ---\n%s", r.name, want, got)
		}
		if res.Stream.Ops == 0 {
			t.Errorf("%s: monitor consumed no ops", r.name)
		}
	}
}

// TestStreamingModeMatchesTeeMode runs the same configuration twice —
// bounded-memory streaming vs. history retained beside the monitor — and
// requires identical verdicts, while the streaming run's Result.History
// must not have retained the run.
func TestStreamingModeMatchesTeeMode(t *testing.T) {
	base := []btsim.Option{
		btsim.WithN(4), btsim.WithRounds(60), btsim.WithSeed(5),
		btsim.WithMerits(1, 1, 1, 2),
		btsim.WithAdversary(btsim.Adversary{Strategy: btsim.Selfish, Lead: 2}),
	}
	tee, err := btsim.Run("bitcoin", base...)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := btsim.Run("bitcoin", append(base[:len(base):len(base)], btsim.WithStreaming(128))...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := verdictText(stream.Stream.SC), verdictText(tee.Stream.SC); got != want {
		t.Errorf("streaming SC != tee SC:\n--- tee ---\n%s--- streaming ---\n%s", want, got)
	}
	if got, want := verdictText(stream.Stream.EC), verdictText(tee.Stream.EC); got != want {
		t.Errorf("streaming EC != tee EC:\n--- tee ---\n%s--- streaming ---\n%s", want, got)
	}
	if stream.Stream.Segments == 0 {
		t.Error("streaming run sealed no segments")
	}
	if len(stream.History.Ops) >= len(tee.History.Ops) {
		t.Errorf("streaming run retained the history: %d ops (tee run: %d)",
			len(stream.History.Ops), len(tee.History.Ops))
	}
}

// TestStreamingCheckpointCycles pins checkpoint cycling in
// bounded-memory mode on a real run: the run's segment sink feeds a
// monitor that is serialized and restored at segment boundaries (every
// 10 consumed operations or more), wired through protocols.Config.Stream
// the way WithStreaming wires its own, and the finalized verdicts still
// match a plain WithStreaming run exactly — restart-safe online checking
// without retained history.
func TestStreamingCheckpointCycles(t *testing.T) {
	cfg := btsim.NewConfig(
		btsim.WithN(4), btsim.WithRounds(60), btsim.WithSeed(5),
		btsim.WithMerits(1, 1, 1, 2),
		btsim.WithAdversary(btsim.Adversary{Strategy: btsim.Selfish, Lead: 2}),
		btsim.WithStreaming(8),
	)
	sys, _ := btsim.Lookup("bitcoin")
	plain, err := sys.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var (
		rec      *history.Recorder
		mon      *consistency.Monitor
		seg      *history.SegmentSink
		mcfg     consistency.MonitorConfig
		consumed int
		cycles   int
	)
	pc := cfg.Base()
	pc.Stream = func(r *history.Recorder, score core.Score) {
		rec = r
		mcfg = consistency.MonitorConfig{Procs: r.Procs(), Score: score, P: core.WellFormed{}, Table: r.Table()}
		mon = consistency.NewMonitor(mcfg)
		seg = history.NewSegmentSink(cfg.StreamSegment, func(s *history.Segment) {
			mon.ConsumeSegment(s)
			if s == nil {
				return
			}
			if consumed += len(s.Ops); consumed < 10 {
				return
			}
			consumed = 0
			data, err := mon.Checkpoint()
			if err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			if mon, err = consistency.RestoreMonitor(data, mcfg); err != nil {
				t.Fatalf("restore: %v", err)
			}
			cycles++
		})
		seg.OnFaulty = func(p int) { mon.Faulty(p) }
		r.SetSink(seg)
		r.SetRetain(false)
	}
	bitcoin.Run(pc)
	seg.Seal()
	for _, op := range rec.PendingOps() {
		mon.OpPending(op)
	}
	sc, ec := mon.Finalize()
	if cycles == 0 {
		t.Fatalf("%d segments sealed but the monitor never cycled", seg.Sealed())
	}
	if got, want := verdictText(sc), verdictText(plain.Stream.SC); got != want {
		t.Errorf("cycled SC != plain SC:\n--- plain ---\n%s--- cycled ---\n%s", want, got)
	}
	if got, want := verdictText(ec), verdictText(plain.Stream.EC); got != want {
		t.Errorf("cycled EC != plain EC:\n--- plain ---\n%s--- cycled ---\n%s", want, got)
	}
}

// TestObserverSeesLiveWitnesses checks the live channel: the observer's
// Progress carries a growing witness count during a violating run, and
// OnWitness receives the structured witnesses themselves.
func TestObserverSeesLiveWitnesses(t *testing.T) {
	var fromCallback []consistency.Witness
	maxSeen := 0
	res, err := btsim.Run("bitcoin",
		btsim.WithN(4), btsim.WithRounds(80), btsim.WithSeed(7),
		btsim.WithMerits(1, 1, 1, 2),
		btsim.WithAdversary(btsim.Adversary{Strategy: btsim.Equivocate, Forks: 2}),
		btsim.WithMonitor(func(w consistency.Witness) { fromCallback = append(fromCallback, w) }),
		btsim.WithMonitorK(1),
		btsim.WithObserver(func(p btsim.Progress) bool {
			if p.LiveWitnesses > maxSeen {
				maxSeen = p.LiveWitnesses
			}
			return true
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromCallback) == 0 {
		t.Fatal("equivocation run emitted no live witnesses")
	}
	if maxSeen == 0 {
		t.Error("observer never saw a nonzero LiveWitnesses count")
	}
	if res.Stream.LiveCount != len(fromCallback) {
		t.Errorf("LiveCount=%d but callback saw %d", res.Stream.LiveCount, len(fromCallback))
	}
	for _, w := range fromCallback {
		if w.Property == "" || w.Detail == "" {
			t.Errorf("malformed live witness: %+v", w)
		}
	}
}

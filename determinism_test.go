package repro

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"repro/btsim"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/protocols"
	"repro/internal/protocols/bitcoin"
	"repro/internal/scenario"
)

// pipelineDigest folds a full protocol run — every recorded operation
// (with its returned chain), every communication event, every replica's
// final tree and both checker verdicts — into one hash. The golden
// values below were captured before the pipeline performance pass
// (closure-heap scheduler, copied chain reads, multi-pass checkers) and
// pin that the rewritten pipeline replays byte-identical histories and
// verdicts for fixed seeds. Since the btsim API redesign the runs go
// through the public registry + functional options, so the same pinned
// values also prove the option-based dispatch is behavior-preserving
// against the original per-protocol config structs.
func pipelineDigest(res *btsim.Result) string {
	h := fnv.New64a()
	res.DigestInto(h)
	chk := consistency.NewChecker(res.Score, nil)
	sc, ec := chk.Classify(res.History)
	fmt.Fprintf(h, "SC=%v%v EC=%v%v", sc.OK, sc.Failing(), ec.OK, ec.Failing())
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPipelineDeterminismPinned replays fixed-seed runs across every
// layer the performance pass touches — PoW flooding over FIFO links,
// message loss via DropNth, GHOST selection (subtree-weight index) —
// and compares against digests recorded from the pre-rewrite pipeline.
func TestPipelineDeterminismPinned(t *testing.T) {
	runs := []struct {
		name   string
		want   string
		system string
		opts   []btsim.Option
	}{
		{"bitcoin-seed1", "6e285a33a4969092", "bitcoin", []btsim.Option{
			btsim.WithN(4), btsim.WithRounds(120), btsim.WithSeed(1),
			btsim.WithReadEvery(15), btsim.WithDifficulty(5),
		}},
		{"bitcoin-drop-seed9", "3a874a69fa33c8b7", "bitcoin", []btsim.Option{
			btsim.WithN(4), btsim.WithRounds(120), btsim.WithSeed(9),
			btsim.WithReadEvery(15), btsim.WithDifficulty(5),
			btsim.WithDropNth(3, 2),
		}},
		{"ethereum-seed7", "20447fd3bd895c9b", "ethereum", []btsim.Option{
			btsim.WithN(4), btsim.WithRounds(60), btsim.WithSeed(7),
			btsim.WithReadEvery(10), btsim.WithDifficulty(4),
		}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			res, err := btsim.Run(r.system, r.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if got := pipelineDigest(res); got != r.want {
				t.Fatalf("pipeline digest changed: got %s, want %s (fixed-seed histories/trees/verdicts must be identical)", got, r.want)
			}
		})
		// The same pinned values must hold with the observability layer
		// attached: metrics and tracing are read-only with respect to
		// the simulation, so they cannot move a single event.
		t.Run(r.name+"-instrumented", func(t *testing.T) {
			opts := append(append([]btsim.Option{}, r.opts...),
				btsim.WithMetrics(),
				btsim.WithTrace(io.Discard, btsim.TraceOptions{SampleEvery: 4}))
			res, err := btsim.Run(r.system, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if got := pipelineDigest(res); got != r.want {
				t.Fatalf("instrumented pipeline digest changed: got %s, want %s (metrics/trace must be digest-neutral)", got, r.want)
			}
		})
	}
}

// TestDigestIndependentOfHandleOrder: the run's block index names blocks
// by handles in intern order, and that order is an accident of
// scheduling (in a live run, the nodes' event loops race to intern).
// Interning every block of the run beforehand, in reverse — children
// before parents, so no tree ever assigns a handle and each tree's
// attach order is the opposite of handle order — must leave the pinned
// digest untouched.
func TestDigestIndependentOfHandleOrder(t *testing.T) {
	const want = "6e285a33a4969092" // bitcoin-seed1 of TestPipelineDeterminismPinned
	run := func(pre []*core.Block) *btsim.Result {
		cfg := protocols.Config{
			N: 4, Rounds: 120, Seed: 1, ReadEvery: 15, Difficulty: 5,
			Stream: func(rec *history.Recorder, _ core.Score) {
				for i := len(pre) - 1; i >= 0; i-- {
					rec.Table().Intern(pre[i])
				}
			},
		}
		return &btsim.Result{Result: bitcoin.Run(cfg)}
	}
	base := run(nil)
	if got := pipelineDigest(base); got != want {
		t.Fatalf("untouched run: digest %s, want %s", got, want)
	}
	var blocks []*core.Block
	seen := map[core.BlockID]bool{}
	for _, tr := range base.Trees {
		for _, b := range tr.Blocks() {
			if !seen[b.ID] {
				seen[b.ID] = true
				blocks = append(blocks, b)
			}
		}
	}
	if len(blocks) < 20 {
		t.Fatalf("fixture: only %d blocks in the run", len(blocks))
	}
	if got := pipelineDigest(run(blocks)); got != want {
		t.Errorf("blocks pre-interned in reverse: digest %s, want %s", got, want)
	}
}

// TestSimScaleDeterminismPinned pins the benchmark workload itself: the
// block/read/comm counts and verdicts of a small SimScale run must not
// drift across the scheduler and history-interning rewrites.
func TestSimScaleDeterminismPinned(t *testing.T) {
	pin := simCase{N: 8, Blocks: 300, Seed: 5}
	got, _ := runSimScale(pin)
	want := simStats{Blocks: 300, Reads: 72, CommEvts: 5100, MaxHeight: 106, SCOK: false, ECOK: true}
	if got != want {
		t.Fatalf("SimScale drifted:\n got %+v\nwant %+v", got, want)
	}
	// The adversarial variant: partition windows + an equivocator. The
	// fault-schedule routing, withholding and forgery must replay
	// exactly too.
	adv := pin
	adv.Variant = simAdversarial
	gotAdv, _ := runSimScale(adv)
	wantAdv := simStats{Blocks: 337, Reads: 70, CommEvts: 5729, MaxHeight: 93, SCOK: false, ECOK: true}
	if gotAdv != wantAdv {
		t.Fatalf("adversarial SimScale drifted:\n got %+v\nwant %+v", gotAdv, wantAdv)
	}
	// The streaming variant runs the identical workload through the
	// online monitor in drop mode: same blocks, same reads, same comm
	// events, same verdicts — with no retained history at all.
	stream := pin
	stream.Variant = simStream
	if gotStream, _ := runSimScale(stream); gotStream != want {
		t.Fatalf("streaming SimScale diverged from batch:\n got %+v\nwant %+v", gotStream, want)
	}
	// The metered variant attaches the metrics layer to the identical
	// workload: same stats (instrumentation is observational), and a
	// pinned snapshot.
	met := pin
	met.Variant = simMetered
	gotMet, snap := runSimScale(met)
	if gotMet != want {
		t.Fatalf("metered SimScale diverged from bare:\n got %+v\nwant %+v", gotMet, want)
	}
	if got, wantSnap := snap.Digest(), "522d79cb7af2e7a2"; got != wantSnap {
		t.Fatalf("metered SimScale snapshot digest %s, want %s", got, wantSnap)
	}
}

// TestScenarioDigestsPinned pins the replay digest of every catalogue
// scenario: each adversarial execution — fault schedules, withheld and
// released branches, forged siblings, and the verdicts measured on the
// resulting histories — must replay byte-identically from its seed.
// The digest folds every operation (with its returned chain), every
// communication event, every replica tree, the fault-event log and the
// criterion verdicts (scenario.Digest).
func TestScenarioDigestsPinned(t *testing.T) {
	want := map[string]string{
		"bitcoin/benign":           "7e7efa79e80e836e",
		"fabric/benign":            "e3cc195680f21dd9",
		"byzcoin/benign":           "8bbf59235ba8fdae",
		"algorand/benign":          "1aebd9dadd5c20df",
		"peercensus/benign":        "3a928d600ef20058",
		"redbelly/benign":          "e4fc2580e66b9980",
		"bitcoin/selfish":          "2e1e57c2bd2922ae",
		"bitcoin/withhold-release": "ef743d0e60bb2517",
		"bitcoin/partition-heal":   "810b840ea7957262",
		"bitcoin/partition-noheal": "1d7aa61e2e4da285",
		"bitcoin/eclipse":          "d3082e19daeaf734",
		"bitcoin/churn":            "70b1748a305da816",
		"bitcoin/crashstop":        "5cf9c33ab25ea14d",
		"bitcoin/crash-durable":    "57986243b62b4e3a",
		"bitcoin/crash-amnesia":    "c38059b18e609f9a",
		"ethereum/forkflood":       "b21a721fd18bf5fa",
		"fabric/equivocate":        "b6f94a45a7e46d66",
	}
	specs := scenario.Catalogue()
	if len(specs) != len(want) {
		t.Fatalf("catalogue has %d scenarios, digests pinned for %d — pin the new ones", len(specs), len(want))
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			w, ok := want[spec.Name]
			if !ok {
				t.Fatalf("no pinned digest for %s", spec.Name)
			}
			if got := spec.MustRun(0).Digest; got != w {
				t.Fatalf("digest changed: got %s, want %s (adversarial runs must replay byte-identically)", got, w)
			}
		})
	}
}

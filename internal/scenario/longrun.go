// The long-run scenario: a ≥1M-operation execution that only the
// streaming path can check. It deliberately lives outside Catalogue()
// — the catalogue is the pinned 14-scenario replay matrix, while this
// one exists to exercise the bounded-memory property: the run records
// in drop mode (history streamed through sealed segments into the
// online monitor and released), so resident memory is governed by the
// block tree and the monitor's window, not by the operation count.
// Classify on the same run would have to retain every operation to
// replay it — at ~1.2M ops that is two orders of magnitude more resident
// heap (the measured gap is ablation #10 in DESIGN.md).
package scenario

import (
	"fmt"
	"runtime"

	"repro/btsim"
	"repro/internal/consistency"
)

// LongRunSpec configures the streaming long-run scenario.
type LongRunSpec struct {
	// Name labels the run in tool output.
	Name string
	// System, N, Rounds, Seed are the usual run knobs; reads fire every
	// virtual-time unit (the densest schedule), so the op count scales
	// with N × virtual time.
	System    string
	N, Rounds int
	Seed      uint64
	// Segment is the streaming segment size in ops (0 = default).
	Segment int
	// SampleEvery is the heap-sampling period in protocol rounds.
	SampleEvery int
}

// DefaultLongRun is the ≥1M-op configuration: fabric at N=48 records
// ~1.16M operations in ~8000 rounds.
func DefaultLongRun() LongRunSpec {
	return LongRunSpec{
		Name:   "longrun/fabric-48x8000",
		System: "fabric", N: 48, Rounds: 8000, Seed: 2026,
		Segment: 4096, SampleEvery: 256,
	}
}

// SmokeLongRun is the scaled-down variant CI runs under -race: the same
// shape (streaming, drop mode, heap sampling), two orders of magnitude
// fewer ops.
func SmokeLongRun() LongRunSpec {
	s := DefaultLongRun()
	s.Name = "longrun/smoke-8x800"
	s.N, s.Rounds = 8, 800
	return s
}

// LongOutcome is one checked long run.
type LongOutcome struct {
	Spec LongRunSpec
	// SC and EC are the online verdicts (there is nothing to replay:
	// the run retained no history).
	SC, EC *consistency.Verdict
	// Violated lists the violated property names in checking order.
	Violated []string
	// Ops and Segments describe the streamed history.
	Ops, Segments int
	// PeakHeap is the maximum live-heap sample (bytes) observed during
	// the run — the memory high-water mark of ablation #10.
	PeakHeap uint64
	// Stats is the monitor's retained-state summary at finalization.
	Stats consistency.MonitorStats
}

// Run executes the long-run scenario. The observer samples the heap
// every SampleEvery rounds; the peak is the run's high-water mark.
func (s LongRunSpec) Run() (*LongOutcome, error) {
	every := s.SampleEvery
	if every <= 0 {
		every = 256
	}
	var peak uint64
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
	}
	res, err := btsim.Run(s.System,
		btsim.WithN(s.N),
		btsim.WithRounds(s.Rounds),
		btsim.WithSeed(s.Seed),
		btsim.WithReadEvery(1),
		btsim.WithStreaming(s.Segment),
		btsim.WithObserver(func(p btsim.Progress) bool {
			if p.Round%every == 0 {
				sample()
			}
			return true
		}),
	)
	if err != nil {
		return nil, fmt.Errorf("long run %q: %w", s.Name, err)
	}
	sample()
	o := &LongOutcome{
		Spec: s,
		SC:   res.Stream.SC, EC: res.Stream.EC,
		Ops: res.Stream.Ops, Segments: res.Stream.Segments,
		PeakHeap: peak,
		Stats:    res.Stream.Stats,
	}
	seen := map[string]bool{}
	for _, v := range [...]*consistency.Verdict{o.SC, o.EC} {
		for _, rep := range v.Reports {
			if !rep.OK && !seen[rep.Property] {
				seen[rep.Property] = true
				o.Violated = append(o.Violated, rep.Property)
			}
		}
	}
	return o, nil
}

// String renders the outcome for tool output.
func (o *LongOutcome) String() string {
	verdict := "all properties hold"
	if len(o.Violated) > 0 {
		verdict = fmt.Sprintf("violated: %v", o.Violated)
	}
	return fmt.Sprintf("%s: %d ops in %d segments, peak heap %.1f MB, %d records retained — %s",
		o.Spec.Name, o.Ops, o.Segments, float64(o.PeakHeap)/1e6, o.Stats.Retained, verdict)
}

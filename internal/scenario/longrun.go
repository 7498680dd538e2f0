package scenario

import "repro/btsim"

// DefaultLongRun is the ≥1M-operation execution that only the streaming
// path can check: fabric at N=48 with a read every virtual-time unit (the
// densest schedule) records ~1.16M operations in 8000 rounds. It lives
// outside Catalogue() — the catalogue is the pinned replay matrix, while
// this spec exercises the bounded-memory property: the run records in
// drop mode (history streamed through sealed segments into the online
// monitor and released), so resident memory is governed by the block
// tree and the monitor's window, not by the operation count, and Run
// takes the online verdicts (Res.Stream has the ops, segments and
// retained-record counts). Classify on the same run would have to retain
// every operation to replay it — two orders of magnitude more resident
// heap (the measured gap is ablation #10 in DESIGN.md).
func DefaultLongRun() Spec {
	return Spec{
		Name: "longrun/fabric-48x8000", System: "fabric",
		Config: btsim.Config{N: 48, Rounds: 8000, Seed: 2026, ReadEvery: 1, Streaming: true, StreamSegment: 4096},
	}
}

// SmokeLongRun is the scaled-down variant CI runs under -race: the same
// shape, two orders of magnitude fewer ops.
func SmokeLongRun() Spec {
	s := DefaultLongRun()
	s.Name = "longrun/smoke-8x800"
	s.N, s.Rounds = 8, 800
	return s
}

package main

import "fmt"

// pin is the part of an iteration's output that is a pure function of
// the workload and its seed: the simulated workloads are deterministic,
// so every iteration of one run must pin the same values, traced or
// not. The live workloads run on real goroutines and pin nothing; their
// checks are in liveCfg.run.
type pin struct {
	Blocks   int  `json:"blocks"`   // attached at replica 0
	Reads    int  `json:"reads"`    // completed reads of correct processes
	Ops      int  `json:"ops"`      // recorded operations
	Comm     int  `json:"comm"`     // recorded send/receive/update events
	Height   int  `json:"height"`   // of replica 0's tree
	Segments int  `json:"segments"` // sealed by the streaming sink
	SC       bool `json:"sc"`
	EC       bool `json:"ec"`
}

// Pinned outputs at the default seeds. A change that moves one of these
// changed what the system computes, not how fast.
var (
	pinFloodN64    = pin{Blocks: 5000, Reads: 576, Ops: 5576, Comm: 645000, Height: 1769, SC: false, EC: true}
	pinAdvN512     = pin{Blocks: 1202, Reads: 5110, Ops: 6322, Comm: 1232050, Height: 407, SC: false, EC: true}
	pinReadsFabric = pin{Ops: 433998, Segments: 106, SC: true, EC: true}
)

// checkPin compares one iteration's pin with the expected value at the
// default seed, and with the first iteration's under any seed.
func checkPin(w *workload, seed uint64, first, got pin) error {
	if w.want != nil && seed == w.seed && got != *w.want {
		return fmt.Errorf("pinned output moved: got %+v, want %+v", got, *w.want)
	}
	if got != first {
		return fmt.Errorf("iterations of one run differ: %+v vs %+v", got, first)
	}
	return nil
}

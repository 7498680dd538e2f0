package btsim_test

import (
	"fmt"

	"repro/btsim"
	_ "repro/btsim/systems" // register the Section 5 seven
)

// The minimal loop: run a registered system by name, check the measured
// consistency verdicts, and print the replay digest's determinism — the
// same (system, options, seed) triple always replays byte-identically.
func Example() {
	opts := []btsim.Option{
		btsim.WithN(4), btsim.WithRounds(120), btsim.WithSeed(42),
	}
	res, err := btsim.Run("bitcoin", opts...)
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	sc, ec := res.Check()
	replay, _ := btsim.Run("bitcoin", opts...)
	fmt.Println("eventual consistency holds:", ec.OK)
	fmt.Println("strong consistency holds:", sc.OK)
	fmt.Println("replay digest identical:", replay.Digest() == res.Digest())
	// Output:
	// eventual consistency holds: true
	// strong consistency holds: false
	// replay digest identical: true
}

// Systems lists every registered system (in paper-section order) with
// the oracle family and consistency criterion the paper claims for it.
func ExampleSystems() {
	for _, sys := range btsim.Systems() {
		fmt.Println(sys.Name())
	}
	// Output:
	// bitcoin
	// ethereum
	// byzcoin
	// algorand
	// peercensus
	// redbelly
	// fabric
}

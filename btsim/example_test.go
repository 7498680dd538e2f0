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

// WithShards moves the run onto the sharded deterministic scheduler, a
// determinism and race-detection instrument: the contract — pinned by
// the catalogue-wide digest-diff test — is that every shard count
// replays the byte-identical history, fault log and digest of the
// serial run.
func ExampleWithShards() {
	opts := func(shards int) []btsim.Option {
		return []btsim.Option{
			btsim.WithN(8), btsim.WithRounds(120), btsim.WithSeed(42),
			btsim.WithShards(shards),
		}
	}
	serial, err := btsim.Run("bitcoin", opts(1)...)
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	for _, k := range []int{2, 4} {
		sharded, err := btsim.Run("bitcoin", opts(k)...)
		if err != nil {
			fmt.Println("run:", err)
			return
		}
		fmt.Printf("shards=%d digest equals serial: %v\n", k, sharded.Digest() == serial.Digest())
	}
	// Output:
	// shards=2 digest equals serial: true
	// shards=4 digest equals serial: true
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

package btsim_test

import (
	"testing"

	"repro/btsim"
	_ "repro/btsim/systems"
)

// TestWithShardsDigestNeutral pins the WithShards contract on every
// registered system: a sharded run replays to the byte-identical digest
// of the serial run — sharding is a determinism and race-detection
// instrument. Systems whose handlers are order-sensitive simply run
// serially under the option; either way the digest must not move.
func TestWithShardsDigestNeutral(t *testing.T) {
	for _, sys := range btsim.Systems() {
		sys := sys
		t.Run(sys.Name(), func(t *testing.T) {
			serial := mustRun(t, sys, benignOpts(sys, 42)...)
			for _, k := range []int{2, 4} {
				opts := append(benignOpts(sys, 42), btsim.WithShards(k))
				sharded := mustRun(t, sys, opts...)
				if sharded.Digest() != serial.Digest() {
					t.Fatalf("WithShards(%d) digest %s != serial %s", k, sharded.Digest(), serial.Digest())
				}
			}
		})
	}
}

// TestWithShardsValidates pins the validation error on a negative
// shard count.
func TestWithShardsValidates(t *testing.T) {
	if _, err := btsim.Run("bitcoin", btsim.WithShards(-1)); err == nil {
		t.Fatal("WithShards(-1) did not fail validation")
	}
}

// TestWithShardsAdversarial pins digest neutrality on the run shape the
// sharded engine stresses hardest: an adversary noting fault events and
// publishing withheld blocks from inside delivery handlers, under
// partition windows crossing shard boundaries.
func TestWithShardsAdversarial(t *testing.T) {
	opts := func(k int) []btsim.Option {
		return []btsim.Option{
			btsim.WithN(8), btsim.WithRounds(150), btsim.WithSeed(11), btsim.WithReadEvery(6),
			btsim.WithMerits(1, 1, 1, 1, 1, 1, 1, 3),
			btsim.WithAdversary(btsim.Adversary{Strategy: btsim.Selfish, Lead: 2}),
			btsim.WithFaults(btsim.Fault{Start: 40, End: 90, Left: []int{0, 1, 2}}),
			btsim.WithShards(k),
		}
	}
	sys, err := btsim.Get("bitcoin")
	if err != nil {
		t.Fatal(err)
	}
	serial := mustRun(t, sys, opts(1)...)
	for _, k := range []int{2, 3, 8} {
		sharded := mustRun(t, sys, opts(k)...)
		if sharded.Digest() != serial.Digest() {
			t.Fatalf("WithShards(%d) adversarial digest %s != serial %s", k, sharded.Digest(), serial.Digest())
		}
	}
}

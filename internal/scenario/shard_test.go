package scenario

import (
	"testing"
)

// TestShardDigestEquivalenceCatalogue pins the sharded scheduler's
// determinism claim across the entire curated catalogue: every scenario
// — benign, adversarial, partitioned, crashing — run with shards=4 must
// produce the byte-identical replay digest (operations, communication
// events, replica trees, fault log, verdicts) as its serial run. This
// is the diff test behind sharding as a determinism and race-detection
// instrument; with the serial digests pinned in the root determinism
// test, it transitively pins the sharded ones too.
func TestShardDigestEquivalenceCatalogue(t *testing.T) {
	for _, spec := range Catalogue() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			serial := spec.MustRun(spec.Seed)
			sharded := spec
			sharded.Shards = 4
			got := sharded.MustRun(spec.Seed)
			if got.Digest != serial.Digest {
				t.Fatalf("shards=4 digest %s != serial digest %s", got.Digest, serial.Digest)
			}
			if len(got.Violated) != len(serial.Violated) {
				t.Fatalf("shards=4 violated %v != serial %v", got.Violated, serial.Violated)
			}
			for i := range serial.Violated {
				if got.Violated[i] != serial.Violated[i] {
					t.Fatalf("shards=4 violated %v != serial %v", got.Violated, serial.Violated)
				}
			}
		})
	}
}

// TestShardCountIndependence spot-checks that the digest is independent
// of the exact shard count, not merely equal between 1 and 4, on the
// scenario exercising the most machinery (crash recovery + flooding).
func TestShardCountIndependence(t *testing.T) {
	spec := *ByName("bitcoin/crash-durable")
	base := spec.MustRun(spec.Seed)
	for _, k := range []int{2, 3, 5, 8} {
		s := spec
		s.Shards = k
		if got := s.MustRun(spec.Seed); got.Digest != base.Digest {
			t.Fatalf("shards=%d digest %s != serial digest %s", k, got.Digest, base.Digest)
		}
	}
}

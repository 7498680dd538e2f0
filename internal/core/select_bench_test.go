package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkIndexedVsLegacySelect pits the indexed selectors against the
// preserved full-rescan originals on the same heavily-forked trees
// (randomTree with zero chain bias — every block under a uniformly
// random earlier block) — the measured form of the differential tests.
func BenchmarkIndexedVsLegacySelect(b *testing.B) {
	for _, n := range []int{1_000, 10_000} {
		tree := randomTree(b, rand.New(rand.NewSource(42)), n, 0)
		cases := []struct {
			name    string
			indexed func(*Tree) Chain
			legacy  func(*Tree) Chain
		}{
			{"longest", LongestChain{}.Select, legacySelectLongest},
			{"single", SingleChain{}.Select, legacySelectSingle},
		}
		for _, c := range cases {
			b.Run(fmt.Sprintf("%dk/%s/indexed", n/1000, c.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if ch := c.indexed(tree); len(ch) == 0 {
						b.Fatal("empty selection")
					}
				}
			})
			b.Run(fmt.Sprintf("%dk/%s/legacy", n/1000, c.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if ch := c.legacy(tree); len(ch) == 0 {
						b.Fatal("empty selection")
					}
				}
			})
		}
	}
}

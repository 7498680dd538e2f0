package history

import (
	"slices"
	"testing"

	"repro/internal/core"
)

// BenchmarkRecordRead measures recording one read of a deep chain:
// materializing the chain and recording it explicitly (RespondRead
// interns it, O(height)) against the interned (head, length) handle
// (DESIGN.md ablation #7).
func BenchmarkRecordRead(b *testing.B) {
	chain := core.GenesisChain()
	for i := 1; i <= 2000; i++ {
		h := chain.Head()
		chain = chain.Append(core.NewBlock(h.ID, h.Height+1, 0, i, []byte{byte(i)}))
	}
	b.Run("copied", func(b *testing.B) {
		b.ReportAllocs()
		rec := NewRecorder(4, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// What replica.Read did before interning: materialize the
			// selected chain, then copy-record it.
			rec.Read(i%4, slices.Clone(chain))
		}
	})
	b.Run("interned", func(b *testing.B) {
		b.ReportAllocs()
		rec := NewRecorder(4, nil)
		for _, blk := range chain {
			rec.InternBlock(blk)
		}
		head := chain.Head()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.ReadHead(i%4, head)
		}
	})
}

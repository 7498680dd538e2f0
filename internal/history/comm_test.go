package history

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// commBlock names the i-th event's block, so a flattened log can be
// checked position by position.
func commBlock(i int) core.BlockID { return core.BlockID(fmt.Sprintf("b%d", i)) }

// checkFlatComm asserts comm is the serial sequence 0..n-1 of events
// recorded with commBlock, with strictly increasing indices.
func checkFlatComm(t *testing.T, comm []CommEvent, n int) {
	t.Helper()
	if len(comm) != n {
		t.Fatalf("snapshot holds %d comm events, want %d", len(comm), n)
	}
	for i, e := range comm {
		if e.Block != commBlock(i) || e.Proc != i%3 {
			t.Fatalf("comm[%d] = %v, want block %s of process %d", i, e, commBlock(i), i%3)
		}
		if i > 0 && e.Index <= comm[i-1].Index {
			t.Fatalf("comm[%d].Index %d not above comm[%d].Index %d", i, e.Index, i-1, comm[i-1].Index)
		}
	}
}

// TestCommLogAcrossChunkBoundaries records one event short of, exactly
// onto and one past every chunk boundary — through the doubling chunks
// and three chunks of the constant capacity — and checks Snapshot
// flattens the chunks to the recorded sequence.
func TestCommLogAcrossChunkBoundaries(t *testing.T) {
	sizes := []int{0, 1}
	for boundary, c := 0, commChunkMin; boundary < 3*commChunkMax; c = min(2*c, commChunkMax) {
		boundary += c
		sizes = append(sizes, boundary-1, boundary, boundary+1)
	}
	for _, n := range sizes {
		rec := NewRecorder(3, nil)
		for i := 0; i < n; i++ {
			rec.RecordComm(CommKind(i%3), i%3, core.GenesisID, commBlock(i))
		}
		checkFlatComm(t, rec.Snapshot().Comm, n)
		for i, chunk := range rec.comm {
			if cap(chunk) > commChunkMax || (i < len(rec.comm)-1 && len(chunk) != cap(chunk)) {
				t.Fatalf("n=%d: chunk %d has len %d cap %d", n, i, len(chunk), cap(chunk))
			}
		}
	}
}

// TestSnapshotCommIsIndependent pins that History.Comm is a copy: a
// snapshot taken mid-run is not extended or overwritten by later
// recording, also when the later events land in the chunk the snapshot
// was cut from.
func TestSnapshotCommIsIndependent(t *testing.T) {
	rec := NewRecorder(3, nil)
	mid := commChunkMin + commChunkMin/2 // inside the second chunk
	for i := 0; i < mid; i++ {
		rec.RecordComm(CommKind(i%3), i%3, core.GenesisID, commBlock(i))
	}
	h := rec.Snapshot()
	for i := mid; i < 4*commChunkMin; i++ {
		rec.RecordComm(CommKind(i%3), i%3, core.GenesisID, commBlock(i))
	}
	checkFlatComm(t, h.Comm, mid)
	if cap(h.Comm) != mid {
		t.Fatalf("snapshot copy has capacity %d, want the exact size %d", cap(h.Comm), mid)
	}
	checkFlatComm(t, rec.Snapshot().Comm, 4*commChunkMin)
}

// TestCommitStagedCommsAcrossChunkBoundary stages events in per-shard
// buffers so that one barrier commit straddles a chunk boundary, and
// checks the flushed log equals the serial recording whatever the shard
// count.
func TestCommitStagedCommsAcrossChunkBoundary(t *testing.T) {
	const n = 2*commChunkMin + 7
	for _, shards := range []int{1, 4} {
		rec := NewRecorder(3, nil)
		var tag int64
		staging := false
		rec.SetShardContext(shards, func(p int) (int, int64, bool) {
			return int(tag) % shards, tag, staging
		})
		serial := commChunkMin - 5 // recorded outside a parallel phase
		for i := 0; i < serial; i++ {
			rec.RecordComm(CommKind(i%3), i%3, core.GenesisID, commBlock(i))
		}
		staging = true
		for i := serial; i < n; i++ {
			tag = int64(i)
			rec.RecordComm(CommKind(i%3), i%3, core.GenesisID, commBlock(i))
		}
		if got := rec.StagedComms(); got != n-serial {
			t.Fatalf("shards=%d: %d events staged, want %d", shards, got, n-serial)
		}
		rec.CommitStagedComms()
		if rec.StagedComms() != 0 {
			t.Fatalf("shards=%d: staging buffers not drained", shards)
		}
		checkFlatComm(t, rec.Snapshot().Comm, n)
	}
}

// TestRecordCommConcurrentWithSnapshot is the -race check of the chunked
// log: writers append while a reader flattens, and every snapshot is a
// prefix-consistent log.
func TestRecordCommConcurrentWithSnapshot(t *testing.T) {
	rec := NewRecorder(4, nil)
	const perWriter = 3 * commChunkMin
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec.RecordComm(EvUpdate, w, core.GenesisID, "b1")
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			comm := rec.Snapshot().Comm
			for j := 1; j < len(comm); j++ {
				if comm[j].Index != comm[j-1].Index+1 {
					t.Errorf("snapshot %d: index %d follows %d", i, comm[j].Index, comm[j-1].Index)
					return
				}
			}
		}
	}()
	wg.Wait()
	if got := len(rec.Snapshot().Comm); got != 4*perWriter {
		t.Fatalf("%d comm events retained, want %d", got, 4*perWriter)
	}
}

// TestDropModeRetainsNoComm pins that a drop-mode recorder keeps no comm
// chunk at all while the hist.comm gauge (and the sink) still see every
// event.
func TestDropModeRetainsNoComm(t *testing.T) {
	rec := NewRecorder(3, nil)
	sink := &countingSink{}
	rec.SetSink(sink)
	rec.SetRetain(false)
	reg := metrics.New(0)
	rec.RegisterMetrics(reg)
	const n = 2*commChunkMin + 1
	for i := 0; i < n; i++ {
		rec.RecordComm(EvUpdate, i%3, core.GenesisID, commBlock(i))
	}
	if len(rec.comm) != 0 || len(rec.Snapshot().Comm) != 0 {
		t.Fatalf("drop mode retained %d chunks, %d snapshot events", len(rec.comm), len(rec.Snapshot().Comm))
	}
	if got, _ := reg.Snapshot().Value("hist.comm.last"); got != n || sink.comm != n {
		t.Fatalf("hist.comm = %d, sink saw %d, want %d each", got, sink.comm, n)
	}
}

// TestRecordCommBytesPerEvent is the tier-1 guard on the log's growth
// cost: a CommEvent is 64 B, and a log that is never regrown allocates
// little more than that per event (a flat slice grown by append
// allocated ~330 B per event at this size).
func TestRecordCommBytesPerEvent(t *testing.T) {
	const n = 100_000
	rec := NewRecorder(3, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		rec.RecordComm(EvUpdate, i%3, core.GenesisID, "b1")
	}
	runtime.ReadMemStats(&after)
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / n
	if perEvent > 80 {
		t.Errorf("RecordComm allocates %.1f B per event, want ≤ 80", perEvent)
	}
	if got := len(rec.Snapshot().Comm); got != n {
		t.Fatalf("%d events retained, want %d", got, n)
	}
}

package history

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/metrics"
)

// commBlock names the i-th event's block, so a flattened log can be
// checked position by position.
func commBlock(i int) core.BlockID { return core.BlockID(fmt.Sprintf("b%d", i)) }

// checkFlatComm asserts h's log is the serial sequence 0..n-1 of events
// recorded with commBlock, with strictly increasing indices.
func checkFlatComm(t *testing.T, h *History, n int) {
	t.Helper()
	if len(h.Comm) != n {
		t.Fatalf("snapshot holds %d comm events, want %d", len(h.Comm), n)
	}
	i, prev := 0, -1
	for e := range h.Events() {
		if e.Block != commBlock(i) || e.Parent != core.GenesisID || e.Proc != i%3 || e.Kind != CommKind(i%3) {
			t.Fatalf("comm[%d] = %v, want %s of block %s under genesis at process %d", i, e, CommKind(i%3), commBlock(i), i%3)
		}
		if e.Index <= prev {
			t.Fatalf("comm[%d].Index %d not above comm[%d].Index %d", i, e.Index, i-1, prev)
		}
		prev, i = e.Index, i+1
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
		checkFlatComm(t, rec.Snapshot(), n)
		for i, chunk := range rec.comm {
			if cap(chunk) > commChunkMax || (i < len(rec.comm)-1 && len(chunk) != cap(chunk)) {
				t.Fatalf("n=%d: chunk %d has len %d cap %d", n, i, len(chunk), cap(chunk))
			}
		}
	}
}

// TestSnapshotCommIsIndependent pins that History.Comm is a copy, its ID
// table a capped view and its first-parent table a copy: a snapshot
// taken mid-run is not extended or overwritten by later recording, also
// when the later events land in the chunk the snapshot was cut from.
func TestSnapshotCommIsIndependent(t *testing.T) {
	rec := NewRecorder(3, nil)
	mid := commChunkMin + commChunkMin/2 // inside the second chunk
	for i := 0; i < mid; i++ {
		rec.RecordComm(CommKind(i%3), i%3, core.GenesisID, commBlock(i))
	}
	h := rec.Snapshot()
	if &h.tables.parent[0] == &rec.ids.parent[0] {
		t.Fatal("snapshot shares the recorder's first-parent table")
	}
	for i := mid; i < 4*commChunkMin; i++ {
		rec.RecordComm(CommKind(i%3), i%3, core.GenesisID, commBlock(i))
	}
	checkFlatComm(t, h, mid)
	if cap(h.Comm) != mid {
		t.Fatalf("snapshot copy has capacity %d, want the exact size %d", cap(h.Comm), mid)
	}
	// One ID per event (commBlock(0) is the genesis ID every event names
	// as parent), and no room to append into.
	if names := h.tables.names; len(names) != mid || cap(names) != mid {
		t.Fatalf("snapshot ID table has len %d cap %d, want %d each", len(names), cap(names), mid)
	}
	checkFlatComm(t, rec.Snapshot(), 4*commChunkMin)
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
			h := rec.Snapshot()
			prev := -1
			for e := range h.Events() {
				if prev >= 0 && e.Index != prev+1 {
					t.Errorf("snapshot %d: index %d follows %d", i, e.Index, prev)
					return
				}
				prev = e.Index
			}
		}
	}()
	wg.Wait()
	if got := len(rec.Snapshot().Comm); got != 4*perWriter {
		t.Fatalf("%d comm events retained, want %d", got, 4*perWriter)
	}
}

// TestDropModeRetainsNoComm pins that bounded-memory mode stays bounded:
// a drop-mode recorder fed distinct IDs keeps no comm chunk and numbers
// no ID, while the hist.comm gauge sees every event and the sink gets
// each one wide, built from the arguments.
func TestDropModeRetainsNoComm(t *testing.T) {
	rec := NewRecorder(3, nil)
	sink := &lastCommSink{}
	rec.SetSink(sink)
	rec.SetRetain(false)
	reg := metrics.New(0)
	rec.RegisterMetrics(reg)
	const n = 100_000
	for i := 0; i < n; i++ {
		rec.RecordComm(EvUpdate, i%3, commBlock(i), commBlock(i+1))
	}
	if h := rec.Snapshot(); len(rec.comm) != 0 || len(h.Comm) != 0 || len(h.tables.names) != 0 {
		t.Fatalf("drop mode retained %d chunks, %d snapshot events, %d snapshot IDs", len(rec.comm), len(h.Comm), len(h.tables.names))
	}
	if ids := &rec.ids; len(ids.names) != 0 || len(ids.num) != 0 || len(ids.parent) != 0 || len(ids.odd) != 0 || len(ids.jumps) != 0 {
		t.Fatalf("drop mode numbered %d IDs (%d in the map, %d first parents) and listed %d odd parents and %d jumps",
			len(ids.names), len(ids.num), len(ids.parent), len(ids.odd), len(ids.jumps))
	}
	if got, _ := reg.Snapshot().Value("hist.comm.last"); got != n || sink.comm != n {
		t.Fatalf("hist.comm = %d, sink saw %d, want %d each", got, sink.comm, n)
	}
	if want := (CommEvent{Kind: EvUpdate, Proc: (n - 1) % 3, Parent: commBlock(n - 1), Block: commBlock(n), Index: n - 1}); sink.last != want {
		t.Fatalf("sink's last event is %+v, want %+v", sink.last, want)
	}
}

// lastCommSink is a countingSink that also keeps the last comm event.
type lastCommSink struct {
	countingSink
	last CommEvent
}

func (s *lastCommSink) CommDone(e CommEvent) { s.comm++; s.last = e }

// TestRecordCommBytesPerEvent is the tier-1 guard on the log's growth
// cost: a CommRecord is 4 B, and a log that is never regrown allocates
// little more than that per event (the 8 B record did 8.2, the 16 B one
// 16.4, the 24 B one 24.4, the wide 64 B event 64.2; a flat slice of
// those grown by append ~330 B per event at this size).
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
	t.Logf("%.1f B per event", perEvent)
	if perEvent > 6 {
		t.Errorf("RecordComm allocates %.1f B per event, want ≤ 6", perEvent)
	}
	if got := len(rec.Snapshot().Comm); got != n {
		t.Fatalf("%d events retained, want %d", got, n)
	}
}

// BenchmarkRecordDelivery measures the recorder on a flooded pattern: a
// block's creator sends it and the other procs−1 processes each deliver
// it, receive and update, by the Ref a tree on the recorder's index
// resolved, as a replica delivers. An op is one delivery (plus, every
// procs−1 of them, a send); log-B/event is what the retained chunks hold
// per event.
func BenchmarkRecordDelivery(b *testing.B) {
	const procs = 64
	rec := NewRecorder(procs, nil)
	tr := core.NewTreeOn(rec.Table())
	refs := make([]core.Ref, b.N/(procs-1)+1)
	parent := core.Genesis()
	for k := range refs {
		blk := &core.Block{ID: core.BlockID(fmt.Sprint("c", k)), Parent: parent.ID, Height: k + 1}
		if err := tr.Attach(blk); err != nil {
			b.Fatal(err)
		}
		refs[k], parent = tr.Resolve(blk), blk
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, p := i/(procs-1), i%(procs-1)
		blk := refs[k].Block()
		if p == 0 {
			rec.RecordComm(EvSend, k%procs, blk.Parent, blk.ID)
		}
		rec.RecordDelivery((k+1+p)%procs, blk.Parent, refs[k])
	}
	b.StopTimer()
	retained := 0
	for _, chunk := range rec.comm {
		retained += int(unsafe.Sizeof(CommRecord{})) * cap(chunk)
	}
	b.ReportMetric(float64(retained)/float64(rec.ncomm), "log-B/event")
}

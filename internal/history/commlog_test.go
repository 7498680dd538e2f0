package history

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
)

// TestCommRecordLayout: the log's record must stay at 4 bytes with no
// field the collector has to look at — that, not the field list, is what
// the flooded run's memory and Snapshot's barrier-free copy rest on.
func TestCommRecordLayout(t *testing.T) {
	if sz := unsafe.Sizeof(CommRecord{}); sz != 4 {
		t.Errorf("a CommRecord is %d bytes, want 4", sz)
	}
	for i, rt := 0, reflect.TypeOf(CommRecord{}); i < rt.NumField(); i++ {
		switch f := rt.Field(i); f.Type.Kind() {
		case reflect.Int, reflect.Int64, reflect.Int32, reflect.Uint64, reflect.Uint32, reflect.Uint8:
		default:
			t.Errorf("field %s of CommRecord is a %s: pointer-bearing", f.Name, f.Type.Kind())
		}
	}
}

// TestCommRecordPacksItsBounds: the packed word carries every kind
// back out unchanged, and the recorder refuses a process outside
// [0, MaxProcs) — as it refuses more processes than it can name — with a
// message naming the bound. A zero commIDs splits no bit to the process,
// so every process above 0 escapes to the wide list and still widens
// exactly. The index is not in the word, so it has no bound: indices past
// 32 bits, repeated and going back all widen through the jump list.
//
// The split between process and block number, at its edges: MaxProcs
// leaves 7 block bits, so block number 127 is the last inline value,
// except under the largest process, where it is the escape mark itself,
// and 128 is one past. One process leaves all 29 bits to the block, more
// names than a test can make, so there the process escapes. Around a
// power of two the last process is inline and 2^pbits escapes. Each case
// must escape exactly when expected, widen back exactly through Events
// and CommOf, and the wide list hold exactly the escaped records.
func TestCommRecordPacksItsBounds(t *testing.T) {
	var ids commIDs
	var want []CommEvent
	h := &History{}
	for _, proc := range []int{0, 1, MaxProcs - 1} {
		for _, index := range []int{0, 1<<32 + 5, 1 << 62} {
			for _, kind := range []CommKind{EvSend, EvReceive, EvUpdate} {
				e := CommEvent{Kind: kind, Proc: proc, Parent: "p", Block: core.BlockID(fmt.Sprint(index)), Index: index}
				want = append(want, e)
				h.Comm = append(h.Comm, ids.pack(e))
			}
		}
	}
	h.tables = ids.view()
	for i, got := range slices.Collect(h.Events()) {
		if got != want[i] {
			t.Fatalf("packed %+v, widened %+v", want[i], got)
		}
	}
	if got, esc := len(h.CommOf(EvReceive)), len(h.tables.wide); got != len(want)/3 || esc != 2*len(want)/3 {
		t.Fatalf("CommOf(receive) finds %d events, want %d; %d escaped, want %d", got, len(want)/3, esc, 2*len(want)/3)
	}

	type split struct {
		proc  int
		block int // the block's number: "p" is 0, "b<k>" is k
		wide  bool
	}
	for _, tc := range []struct {
		procs int
		pbits uint
		cases []split
	}{
		{MaxProcs, 22, []split{
			{0, 127, false}, {MaxProcs - 2, 127, false}, {MaxProcs - 1, 127, true},
			{0, 128, true}, {MaxProcs - 1, 126, false}, {MaxProcs - 1, 128, true}, {5, 1, false},
		}},
		{1, 0, []split{{0, 3, false}, {1, 3, true}, {MaxProcs - 1, 4, true}, {0, 4, false}, {2, 1, true}}},
		{2, 1, []split{{1, 5, false}, {2, 5, true}}},
		{512, 9, []split{{511, 5, false}, {512, 5, true}}},
		{513, 10, []split{{512, 5, false}, {1024, 5, true}}},
	} {
		rec := NewRecorder(tc.procs, nil)
		if rec.ids.pbits != tc.pbits {
			t.Errorf("%d procs split %d process bits, want %d", tc.procs, rec.ids.pbits, tc.pbits)
		}
		var want []CommEvent
		for k := 1; k <= 128; k++ { // number the blocks b1..b128 in order
			want = append(want, rec.RecordComm(EvSend, 0, "p", core.BlockID(fmt.Sprint("b", k))))
		}
		for _, c := range tc.cases {
			want = append(want, rec.RecordComm(EvUpdate, c.proc, "p", core.BlockID(fmt.Sprint("b", c.block))))
		}
		h, n := rec.Snapshot(), 0
		checkEvents(t, h, want)
		for i := range h.Comm {
			if escaped(h, i) {
				n++
			}
			if i >= 128 {
				if c := tc.cases[i-128]; escaped(h, i) != c.wide || blockNum(h, i) != uint32(c.block) {
					t.Errorf("%d procs: process %d, block %d: escaped %v (want %v), block number %d",
						tc.procs, c.proc, c.block, escaped(h, i), c.wide, blockNum(h, i))
				}
			}
		}
		if n != len(h.tables.wide) {
			t.Errorf("%d procs: %d records escaped, the wide list holds %d", tc.procs, n, len(h.tables.wide))
		}
	}

	mustPanic := func(what, bound string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, bound) {
				t.Errorf("%s: panic %q does not name the bound %s", what, msg, bound)
			}
		}()
		f()
	}
	procBound := fmt.Sprint(MaxProcs)
	mustPanic("process MaxProcs", procBound, func() { ids.pack(CommEvent{Proc: MaxProcs}) })
	mustPanic("process -1", procBound, func() { ids.pack(CommEvent{Proc: -1}) })
	mustPanic("kind 3", "kind 3", func() { ids.pack(CommEvent{Kind: EvUpdate + 1}) })
	mustPanic("MaxProcs+1 processes", procBound, func() { NewRecorder(MaxProcs+1, nil) })
}

// escaped reports whether h's record i keeps its process and block in
// the wide list.
func escaped(h *History, i int) bool { return h.Comm[i].word>>payloadShift == escape }

// blockNum is the number of the block h's record i names, from its word
// or, escaped, from the wide list.
func blockNum(h *History, i int) uint32 {
	cur := commCursor{t: &h.tables}
	for j := range i {
		cur.next(h.Comm[j], j)
	}
	_, block := cur.split(h.Comm[i])
	return block
}

// checkEvents asserts h's log is exactly want — through Events, through
// CommOf and by len(h.Comm) — and that its ID table
// lists the IDs want names, each once, in first-seen order (parent
// before block).
func checkEvents(t *testing.T, h *History, want []CommEvent) {
	t.Helper()
	if len(h.Comm) != len(want) {
		t.Fatalf("log holds %d events, want %d", len(h.Comm), len(want))
	}
	i := 0
	for e := range h.Events() {
		if e != want[i] {
			t.Fatalf("Events() yields %+v at %d, want %+v", e, i, want[i])
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("Events() yielded %d events, want %d", i, len(want))
	}
	for _, kind := range []CommKind{EvSend, EvReceive, EvUpdate} {
		got, j := h.CommOf(kind), 0
		for _, e := range want {
			if e.Kind == kind {
				if j >= len(got) || got[j] != e {
					t.Fatalf("CommOf(%s) differs from the log's %s events at %d", kind, kind, j)
				}
				j++
			}
		}
		if j != len(got) {
			t.Fatalf("CommOf(%s) yields %d events, want %d", kind, len(got), j)
		}
	}
	var ids []core.BlockID
	seen := make(map[core.BlockID]bool)
	for _, e := range want {
		for _, id := range []core.BlockID{e.Parent, e.Block} {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	names := h.tables.names
	if len(names) != len(ids) || cap(names) != len(ids) {
		t.Fatalf("ID table has len %d cap %d, want %d each: %q", len(names), cap(names), len(ids), names)
	}
	if tb := h.tables; cap(tb.odd) != len(tb.odd) || cap(tb.jumps) != len(tb.jumps) || cap(tb.wide) != len(tb.wide) {
		t.Fatalf("exception lists not capped at their length: odd %d/%d, jumps %d/%d, wide %d/%d",
			len(tb.odd), cap(tb.odd), len(tb.jumps), cap(tb.jumps), len(tb.wide), cap(tb.wide))
	}
	for n, id := range ids {
		if names[n] != id {
			t.Fatalf("ID table holds %q at %d, want %q", names[n], n, id)
		}
	}
}

// TestCommIDsFirstEventNamesEmptyID: a zero-valued memo reads "number 0",
// which over an empty table must be a miss, not the answer for the empty
// ID (or any other).
func TestCommIDsFirstEventNamesEmptyID(t *testing.T) {
	rec := NewRecorder(2, nil)
	want := []CommEvent{
		rec.RecordComm(EvReceive, 1, "", ""),
		rec.RecordComm(EvReceive, 1, "", "b1"),
		rec.RecordComm(EvReceive, 0, "b1", ""),
	}
	if want[0] != (CommEvent{Kind: EvReceive, Proc: 1, Index: 0}) {
		t.Fatalf("RecordComm returned %+v for the empty IDs", want[0])
	}
	checkEvents(t, rec.Snapshot(), want)
}

// TestCommIDsSameIDAsParentAndBlock: the parent's lookup numbers the ID,
// the block's must find that number and not assign a second one.
func TestCommIDsSameIDAsParentAndBlock(t *testing.T) {
	rec := NewRecorder(1, nil)
	want := []CommEvent{
		rec.RecordComm(EvSend, 0, "b1", "b1"),
		rec.RecordComm(EvUpdate, 0, "b1", "b1"),
		rec.RecordComm(EvUpdate, 0, core.GenesisID, "b1"),
	}
	h := rec.Snapshot()
	checkEvents(t, h, want)
	if b := blockNum(h, 0); h.tables.parent[b] != b || h.Comm[0].odd() {
		t.Fatalf("one ID numbered twice: block %d first recorded under parent %d", b, h.tables.parent[b])
	}
	if e := slices.Collect(h.Events())[2]; !h.Comm[2].odd() || e.Parent != core.GenesisID {
		t.Fatalf("the update under genesis widens to %v (odd %v)", e, h.Comm[2].odd())
	}
}

// TestCommIDsStrictAlternation: two blocks named in turn make every call
// a memo miss; the map behind the memo must still answer each with the
// number it first got.
func TestCommIDsStrictAlternation(t *testing.T) {
	rec := NewRecorder(2, nil)
	var want []CommEvent
	for i := 0; i < 200; i++ {
		parent, block := core.BlockID("p-even"), core.BlockID("b-even")
		if i%2 == 1 {
			parent, block = "p-odd", "b-odd"
		}
		want = append(want, rec.RecordComm(EvReceive, i%2, parent, block))
	}
	h := rec.Snapshot()
	checkEvents(t, h, want)
	ev := slices.Collect(h.Events())
	for i, c := range h.Comm {
		if blockNum(h, i) != blockNum(h, i%2) || c.odd() || ev[i].Parent != ev[i%2].Parent {
			t.Fatalf("record %d numbered block %d (odd %v) under %s, want block %d under %s",
				i, blockNum(h, i), c.odd(), ev[i].Parent, blockNum(h, i%2), ev[i%2].Parent)
		}
	}
}

// TestCommIDsForgedTwinUnderAnotherParent: a forger reuses a block's ID
// under a Parent argument the honest copy does not carry. The events are
// two records with one block number; the later one is odd, its parent
// numbered from the argument, never derived from the block — whichever
// copy comes first.
func TestCommIDsForgedTwinUnderAnotherParent(t *testing.T) {
	for _, forgedFirst := range []bool{false, true} {
		rec := NewRecorder(2, nil)
		parents := []core.BlockID{core.GenesisID, "elsewhere"}
		if forgedFirst {
			parents[0], parents[1] = parents[1], parents[0]
		}
		want := []CommEvent{
			rec.RecordComm(EvReceive, 0, parents[0], "b1"),
			rec.RecordComm(EvReceive, 0, parents[1], "b1"),
			rec.RecordComm(EvUpdate, 1, parents[0], "b1"),
		}
		h := rec.Snapshot()
		checkEvents(t, h, want)
		first, twin := h.Comm[0], h.Comm[1]
		if blockNum(h, 0) != blockNum(h, 1) || first.odd() || !twin.odd() || h.Comm[2].odd() {
			t.Fatalf("forged first %v: records %+v: want one block number, only the second record odd", forgedFirst, h.Comm)
		}
	}
}

// TestCommIDsParentBeforeBlockAcrossSnapshot: an ID first named as a
// parent has no first parent of its own until it is named as a block,
// which writes its entry in the recorder's table. A snapshot taken in
// between must not see that write, and both widen exactly. (Three IDs
// before the snapshot leave the recorder's table room to grow into, so
// the write lands in place.)
func TestCommIDsParentBeforeBlockAcrossSnapshot(t *testing.T) {
	rec := NewRecorder(2, nil)
	want := []CommEvent{
		rec.RecordComm(EvSend, 0, "b1", "b2"), // b1 first seen as a parent
		rec.RecordComm(EvReceive, 1, "b1", "b2"),
		rec.RecordComm(EvSend, 1, "b2", "b3"),
	}
	before := rec.Snapshot()
	b1 := rec.ids.num["b1"]
	if before.tables.parent[b1] != noParent {
		t.Fatalf("b1 has first parent %d before it was named as a block", before.tables.parent[b1])
	}
	want = append(want,
		rec.RecordComm(EvSend, 1, "b3", "b1"),
		rec.RecordComm(EvSend, 1, core.GenesisID, "b1"),
		rec.RecordComm(EvUpdate, 0, "forged", "b1"),
		rec.RecordComm(EvUpdate, 0, core.GenesisID, "b1"),
		rec.RecordComm(EvReceive, 1, "b2", "b1"))
	after := rec.Snapshot()
	if before.tables.parent[b1] != noParent {
		t.Fatalf("recording after the snapshot wrote its first-parent table (b1 → %d)", before.tables.parent[b1])
	}
	checkEvents(t, before, want[:3])
	checkEvents(t, after, want)
}

// TestDeliveryRecordWidensToTwoRecords: a flood recorded through
// RecordDelivery, each delivery one record, and the same receive/update
// pairs recorded through two RecordComm calls snapshot to the same log
// word for word over the same tables — mid-sequence too. The flood has
// honest deliveries, receives naming a forged parent (odd, still one
// record), blocks whose first record names a forged parent (every
// delivery of them two records), an escaped process (two wide entries a
// record) and reads in between (jumps).
func TestDeliveryRecordWidensToTwoRecords(t *testing.T) {
	const procs = 4 // process 4 escapes
	fused, pairs := NewRecorder(procs, nil), NewRecorder(procs, nil)
	var want []CommEvent
	var cuts [][2]*History
	deliveries, fallbacks := 0, 0
	parent, g := core.GenesisID, core.Genesis()
	for k := 0; k < 40; k++ {
		b := &core.Block{ID: core.BlockID(fmt.Sprint("b", k)), Parent: parent}
		parent = b.ID
		if k%6 == 5 { // a forged first record of b
			want = append(want, pairs.RecordComm(EvReceive, 3, "forged", b.ID))
			fused.RecordComm(EvReceive, 3, "forged", b.ID)
		}
		want = append(want, pairs.RecordComm(EvSend, k%procs, b.Parent, b.ID))
		fused.RecordComm(EvSend, k%procs, b.Parent, b.ID)
		for p := 0; p <= procs; p++ {
			if k%3 == 0 && p == 1 {
				pairs.ReadHead(0, g)
				fused.ReadHead(0, g)
			}
			rcv := b.Parent
			if k%4 == 1 && p == 2 {
				rcv = "elsewhere"
			}
			want = append(want, pairs.RecordComm(EvReceive, p, rcv, b.ID), pairs.RecordComm(EvUpdate, p, b.Parent, b.ID))
			fused.RecordDelivery(p, rcv, refOn(fused, b))
			deliveries++
			if k%6 == 5 {
				fallbacks++
			}
		}
		if k == 17 {
			cuts = append(cuts, [2]*History{fused.Snapshot(), pairs.Snapshot()})
		}
	}
	cuts = append(cuts, [2]*History{fused.Snapshot(), pairs.Snapshot()})
	for _, c := range cuts {
		if !slices.Equal(c[0].Comm, c[1].Comm) {
			t.Fatalf("the fused log widens to %d words, not the %d of the two-record log", len(c[0].Comm), len(c[1].Comm))
		}
		if !reflect.DeepEqual(c[0].tables, c[1].tables) {
			t.Fatalf("the fused log's tables differ:\n%+v\n%+v", c[0].tables, c[1].tables)
		}
	}
	checkEvents(t, cuts[1][0], want)
	if h := cuts[1][1]; len(h.tables.odd) == 0 || len(h.tables.jumps) == 0 || len(h.tables.wide) == 0 {
		t.Fatalf("the flood left %d odd, %d jumps and %d wide entries: a case is missing",
			len(h.tables.odd), len(h.tables.jumps), len(h.tables.wide))
	}
	if records, one := commRecords(fused); one != deliveries-fallbacks || records != len(want)-one {
		t.Fatalf("%d events in %d records, %d of them deliveries; want %d deliveries of one record and %d of two",
			len(want), records, one, deliveries-fallbacks, fallbacks)
	}
}

// refOn resolves b on rec's index, as a replica tree on it does, without
// interning it: a Ref with no handle for a block no tree attached.
func refOn(rec *Recorder, b *core.Block) core.Ref { return core.NewTreeOn(rec.Table()).Resolve(b) }

// TestDeliveryByRefMatchesByID: a flood recorded through RecordDelivery
// by Ref and the same receive/update pairs recorded through RecordComm
// by ID snapshot to the same log word for word over the same tables,
// mid-flood too. The Refs are of every kind a delivery can hold:
// resolved by replica trees on the recorder's index before they attach
// (the first to attach a block holds no handle for it, the others do),
// of blocks no tree holds (no block handle; a parent handle or none),
// with a forged receive parent, of a twin copy naming another parent
// (its update falls back to two records), of blocks whose first record
// named a forged parent (every delivery two records). Every handle the
// recorder cached names the block's own number, and the cache holds no
// page past the index's Len (the flood's handles start on its second).
func TestDeliveryByRefMatchesByID(t *testing.T) {
	const procs = 4 // process 4 escapes
	byRef, byID := NewRecorder(procs, nil), NewRecorder(procs, nil)
	for i, parent := 0, core.GenesisID; i < handlePage; i++ { // the flood's handles start on the second page
		f := &core.Block{ID: core.BlockID(fmt.Sprint("f", i)), Parent: parent}
		byRef.InternBlock(f)
		parent = f.ID
	}
	trees := make([]*core.Tree, procs+1)
	for p := range trees {
		trees[p] = core.NewTreeOn(byRef.Table())
	}
	twins := core.NewTreeOn(byRef.Table())
	var want []CommEvent
	var cuts [][2]*History
	kinds := map[string]int{}
	deliver := func(kind string, p int, rcv core.BlockID, r core.Ref) {
		kinds[kind]++
		b := r.Block()
		byRef.RecordDelivery(p, rcv, r)
		want = append(want, byID.RecordComm(EvReceive, p, rcv, b.ID), byID.RecordComm(EvUpdate, p, b.Parent, b.ID))
	}
	tip, g := core.Genesis(), core.Genesis()
	for k := 0; k < 30; k++ {
		b := &core.Block{ID: core.BlockID(fmt.Sprint("c", k)), Parent: tip.ID, Height: tip.Height + 1}
		if k%5 == 4 {
			want = append(want, byID.RecordComm(EvReceive, 3, "forged", b.ID))
			byRef.RecordComm(EvReceive, 3, "forged", b.ID)
		}
		want = append(want, byID.RecordComm(EvSend, k%procs, b.Parent, b.ID))
		byRef.RecordComm(EvSend, k%procs, b.Parent, b.ID)
		for p, tr := range trees {
			if k%3 == 0 && p == 1 {
				byID.ReadHead(0, g)
				byRef.ReadHead(0, g)
			}
			r := tr.Resolve(b)
			if err := tr.AttachResolved(r); err != nil {
				t.Fatal(err)
			}
			kind, rcv := "tree", b.Parent
			if k%4 == 1 && p == 2 {
				kind, rcv = "forged receive", "elsewhere"
			}
			if k%5 == 4 {
				kind = "forged first"
			}
			deliver(kind, p, rcv, r)
		}
		orphan := &core.Block{ID: core.BlockID(fmt.Sprint("o", k)), Parent: b.ID, Height: b.Height + 1}
		deliver("no block handle", k%procs, orphan.Parent, refOn(byRef, orphan))
		stray := &core.Block{ID: core.BlockID(fmt.Sprint("s", k)), Parent: core.BlockID(fmt.Sprint("nowhere", k))}
		deliver("no handle", (k+1)%procs, stray.Parent, refOn(byRef, stray))
		if k%3 == 2 {
			alt := &core.Block{ID: core.BlockID(fmt.Sprint("a", k)), Parent: core.GenesisID, Height: 1}
			twin := &core.Block{ID: b.ID, Parent: alt.ID, Height: 2}
			for _, x := range []*core.Block{alt, twin} {
				r := twins.Resolve(x)
				if err := twins.AttachResolved(r); err != nil {
					t.Fatal(err)
				}
				if x == twin {
					deliver("twin", k%procs, x.Parent, r)
				}
			}
		}
		tip = b
		if k == 13 {
			cuts = append(cuts, [2]*History{byRef.Snapshot(), byID.Snapshot()})
			checkHandleCache(t, byRef, trees[0].Blocks())
		}
	}
	cuts = append(cuts, [2]*History{byRef.Snapshot(), byID.Snapshot()})
	for _, c := range cuts {
		if !slices.Equal(c[0].Comm, c[1].Comm) {
			t.Fatalf("the log by Ref has %d words, not the %d of the log by ID, or other ones", len(c[0].Comm), len(c[1].Comm))
		}
		if !reflect.DeepEqual(c[0].tables, c[1].tables) {
			t.Fatalf("the tables by Ref differ:\n%+v\n%+v", c[0].tables, c[1].tables)
		}
	}
	checkEvents(t, cuts[1][0], want)
	for _, kind := range []string{"tree", "forged receive", "forged first", "no block handle", "no handle", "twin"} {
		if kinds[kind] == 0 {
			t.Errorf("no delivery of kind %q", kind)
		}
	}
	if n, l := len(byRef.ids.byHandle), byRef.Table().Len(); n < 2 || n > (l+handlePage-1)/handlePage {
		t.Fatalf("the handle cache holds %d pages for an index of %d", n, l)
	}
}

// checkHandleCache asserts that rec caches the number of every block but
// genesis in blocks, all interned, under that block's handle.
func checkHandleCache(t *testing.T, rec *Recorder, blocks []*core.Block) {
	t.Helper()
	tr := core.NewTreeOn(rec.Table())
	for _, b := range blocks[1:] {
		h, _ := tr.Resolve(b).Handles()
		if int(h/handlePage) >= len(rec.ids.byHandle) || rec.ids.byHandle[h/handlePage][h%handlePage] == 0 {
			t.Fatalf("no number cached for %s under handle %d", b.ID.Short(), h)
		}
		if n := rec.ids.byHandle[h/handlePage][h%handlePage] - 1; rec.ids.names[n] != b.ID {
			t.Fatalf("handle %d caches the number of %s, not of %s", h, rec.ids.names[n].Short(), b.ID.Short())
		}
	}
}

// commRecords counts the records in rec's chunks and the delivery
// records among them.
func commRecords(rec *Recorder) (records, deliveries int) {
	for _, chunk := range rec.comm {
		records += len(chunk)
		for _, c := range chunk {
			if c.kind() == evDelivery {
				deliveries++
			}
		}
	}
	return records, deliveries
}

// FuzzCommLogRoundTrip drives RecordComm and RecordDelivery from the
// input — the first byte picks the recorder's process count, 1, 4 or
// MaxProcs (4 for the empty input), and so how many process bits the
// record splits off; then two bytes an event: kind or a delivery (a/24
// odd; its update names the pool entry a/48 past the receive's parent,
// so honest, odd-receive and forged-first deliveries all occur; its Ref
// resolved on the recorder's index after the block is interned there
// when a/12 is even, before otherwise, so that it holds handles, one or
// none), process
// (0, 1, 2 or the last) and a snapshot request from the first; parent
// and block
// from the second, out of a pool small enough that repeats, runs, the
// empty ID and IDs no tree ever held all occur, or a fresh block, so
// that MaxProcs's 7 block bits overflow; and whether an operation is
// recorded first (a read, an append, successful or not, or a read left
// pending), so that indices skip and the jump list fills — and keeps
// the wide events in a slice of its own. Processes past the split and
// blocks past its bits fill the escape list, which the mid-sequence
// snapshots cut anywhere. Every snapshot, the mid-sequence ones checked
// after all recording is done, must widen back to the prefix of that
// slice it was taken at and list only the IDs that prefix names. A
// delivery goes into that slice as its receive and its update; it must
// be one record in the recorder's chunks exactly when its update names
// the block's first parent, and two otherwise.
func FuzzCommLogRoundTrip(f *testing.F) {
	pool := []core.BlockID{"", core.GenesisID, "b1", "b2", "forged", "never-attached"}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0})                                      // the empty ID first, as parent and block
	f.Add([]byte{1, 1, 8, 1, 8, 1, 8, 250, 8, 2, 8})            // a run, a snapshot inside it
	f.Add([]byte{1, 1, 8, 1, 15, 1, 8, 1, 15, 1, 8})            // alternation: every call a memo miss
	f.Add([]byte{1, 1, 13, 255, 16, 1, 13, 4, 16, 254, 35, 7})  // a forged twin, snapshots, an odd tail
	f.Add([]byte{1, 2, 7, 240, 14, 5, 21, 8, 28, 11, 35, 0, 1}) // same ID both ways, every pool entry
	// A forged parent first, behind a read; the honest copy behind a
	// failed append; a snapshot behind a pending read; a plain event; a
	// second forgery, under the block itself.
	f.Add([]byte{1, 1, 16 + 36, 14, 13 + 72, 241, 13 + 108, 4, 13, 5, 14})
	// One process: processes 1 and 2 escape, around and between
	// snapshots, one behind a read.
	f.Add([]byte{0, 3, 8, 243, 8 + 36, 9, 15, 250, 14, 6, 8, 0, 8})
	// MaxProcs: 150 fresh blocks under genesis overrun the 7 block bits;
	// the largest process lands on the escape mark at block 127 and sits
	// inline elsewhere; snapshots cut before and inside the escaped tail.
	escapes := []byte{2}
	for k := 1; k <= 150; k++ {
		a := byte(0)
		switch k {
		case 50, 127:
			a = 9 // process MaxProcs-1
		case 100:
			a = 240
		case 140:
			a = 249
		}
		escapes = append(escapes, a, 145)
	}
	f.Add(escapes)
	// Deliveries (a = 24 + …): honest ones of b1 under genesis at four
	// processes, then of b2 under b1 — every one a single record.
	f.Add([]byte{1, 24, 13, 27, 13, 30, 13, 33, 20})
	// The same with Refs resolved before the blocks are interned (a =
	// 36 + …), then one after.
	f.Add([]byte{1, 36, 13, 39, 13, 24, 13, 45, 20})
	// An honest delivery of b1, then one naming the parent "forged" whose
	// update still names genesis (an odd receive, one record), either
	// side of a snapshot.
	f.Add([]byte{1, 24, 13, 241, 13, 171, 16})
	// A delivery whose update names b1, not its receive's genesis (two
	// records); an honest one after it (one); a forged first record of b2
	// (two), and an honest delivery of b2 after it (two: b2's first parent
	// is "forged").
	f.Add([]byte{1, 72, 13, 24, 13, 216, 22, 27, 20})
	// Deliveries behind a read, a failed append and a pending read, and
	// after a snapshot.
	f.Add([]byte{1, 24, 49, 241, 14, 27, 85, 30, 121, 240, 13, 33, 13})
	// MaxProcs: 150 deliveries of fresh blocks overrun the 7 block bits,
	// each escaped one widening through two wide entries; the largest
	// process escapes at block 127 and falls back to two records at 130;
	// snapshots cut the escaped tail.
	escapes = []byte{2}
	for k := 1; k <= 150; k++ {
		a := byte(24)
		switch k {
		case 50, 127:
			a = 33 // process MaxProcs-1
		case 100:
			a = 240
		case 130:
			a = 81 // process MaxProcs-1, the update under b1
		case 140:
			a = 249
		}
		escapes = append(escapes, a, 145)
	}
	f.Add(escapes)
	genesis := core.Genesis()
	f.Fuzz(func(t *testing.T, in []byte) {
		procs := 4 // the empty input still checks an empty log
		if len(in) > 0 {
			procs = []int{1, 4, MaxProcs}[in[0]%3]
			in = in[1:]
		}
		rec := NewRecorder(procs, nil)
		tr := core.NewTreeOn(rec.Table())
		var ref []CommEvent
		type cut struct {
			h *History
			n int
		}
		var cuts []cut
		seq, fused := 0, 0
		first := make(map[core.BlockID]core.BlockID) // each block's first parent
		for i := 0; i+1 < len(in); i += 2 {
			a, b := in[i], int(in[i+1])
			proc := []int{0, 1, 2, procs - 1}[a/3%4]
			switch b / 36 % 4 {
			case 1:
				rec.ReadHead(proc, genesis)
				seq += 2
			case 2:
				rec.Append(proc, genesis, a/12%2 == 0)
				seq += 2
			case 3:
				rec.InvokeRead(proc)
				seq++
			}
			if a >= 240 {
				cuts = append(cuts, cut{rec.Snapshot(), len(ref)})
			}
			want := CommEvent{
				Kind: CommKind(a % 3), Proc: proc,
				Parent: pool[b%len(pool)], Block: pool[b/len(pool)%len(pool)],
				Index: seq,
			}
			if b >= 144 {
				want.Block = core.BlockID(fmt.Sprint("fresh-", len(ref)))
			}
			if _, ok := first[want.Block]; !ok {
				first[want.Block] = want.Parent
			}
			if a/24%2 == 1 {
				blk := &core.Block{ID: want.Block, Parent: pool[(b+int(a/48))%len(pool)]}
				if first[blk.ID] == blk.Parent {
					fused++
				}
				if a/12%2 == 0 {
					rec.InternBlock(blk)
				}
				want.Kind = EvReceive
				rec.RecordDelivery(proc, want.Parent, tr.Resolve(blk))
				ref = append(ref, want, CommEvent{Kind: EvUpdate, Proc: proc, Parent: blk.Parent, Block: blk.ID, Index: seq + 1})
				seq += 2
				continue
			}
			if got := rec.RecordComm(want.Kind, want.Proc, want.Parent, want.Block); got != want {
				t.Fatalf("RecordComm returned %+v, want %+v", got, want)
			}
			ref = append(ref, want)
			seq++
		}
		cuts = append(cuts, cut{rec.Snapshot(), len(ref)})
		for _, c := range cuts {
			checkEvents(t, c.h, ref[:c.n])
		}
		if records, deliveries := commRecords(rec); deliveries != fused || records != len(ref)-fused {
			t.Fatalf("%d events in %d records, %d of them deliveries; want %d deliveries, one record each",
				len(ref), records, deliveries, fused)
		}
	})
}

// TestSegmentSinkHistoryEqualsSnapshot: in tee mode — a SegmentSink on a
// retaining recorder, its handler copying each segment — the history
// assembled from the segments' wide events and the recorder's own
// snapshot are the same log over the same table.
func TestSegmentSinkHistoryEqualsSnapshot(t *testing.T) {
	rec := NewRecorder(3, nil)
	seg, copies := copyingSink(4)
	rec.SetSink(seg)
	c := streamChain(rec, 12)
	var want []CommEvent
	for i, b := range c[1:] {
		rec.Append(i%3, b, i%4 != 3)
		want = append(want, rec.RecordComm(EvSend, i%3, b.Parent, b.ID))
		for p := 0; p < 3; p++ {
			want = append(want,
				rec.RecordComm(EvReceive, p, b.Parent, b.ID),
				rec.RecordComm(EvUpdate, p, b.Parent, b.ID))
		}
		if i == 5 {
			want = append(want, rec.RecordComm(EvReceive, 2, "forged-parent", b.ID))
		}
	}
	rec.ReadHead(0, c.Head())
	seg.Seal()
	snap, assembled := rec.Snapshot(), copies.history(3)
	if seg.Sealed() < 3 {
		t.Fatalf("only %d segments sealed: the assembly was not exercised", seg.Sealed())
	}
	checkEvents(t, snap, want)
	checkEvents(t, assembled, want)
	if len(assembled.Ops) != len(snap.Ops) {
		t.Fatalf("assembled history has %d ops, snapshot %d", len(assembled.Ops), len(snap.Ops))
	}
}

// TestSnapshotEventsWhileRecordingBehindOverlappedSink is the live path's
// -race check: four goroutines record through one retaining recorder
// whose direct sink is an overlapped SegmentSink — every one of them
// naming new IDs as it goes, so the table keeps growing, and sealing a
// segment every 1024 events for a goroutine of its own to read — while a
// fifth takes snapshots and widens every record of each. A snapshot's
// table is capped at its length and the recorder only writes past that
// cap; this test is what keeps it so.
func TestSnapshotEventsWhileRecordingBehindOverlappedSink(t *testing.T) {
	rec := NewRecorder(4, nil)
	consumed := 0 // handler goroutines only, in turn; read after Seal
	seg := NewSegmentSink(0, func(s *Segment) {
		for _, e := range s.Comm {
			if prefix := fmt.Sprintf("w%d-", e.Proc); string(e.Block[:len(prefix)]) != prefix {
				t.Errorf("segment %d carries %+v", s.Index, e)
			}
		}
		consumed += len(s.Comm)
	})
	seg.Overlap = true
	rec.SetSink(seg)
	const perWriter = 2000
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < perWriter; i++ {
				parent := core.BlockID(fmt.Sprintf("w%d-%d", w, i/8))
				rec.RecordComm(CommKind(i%3), w, parent, core.BlockID(fmt.Sprintf("w%d-%d", w, i/4)))
			}
		}(w)
	}
	stop := make(chan struct{})
	reader := make(chan struct{})
	go func() {
		defer close(reader)
		for {
			h := rec.Snapshot()
			next := 0
			for e := range h.Events() {
				prefix := fmt.Sprintf("w%d-", e.Proc)
				if e.Index != next || len(e.Block) <= len(prefix) || string(e.Block[:len(prefix)]) != prefix || string(e.Parent[:len(prefix)]) != prefix {
					t.Errorf("snapshot of %d events yields %+v at %d", len(h.Comm), e, next)
					return
				}
				next++
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-reader
	seg.Seal()
	if h := rec.Snapshot(); len(h.Comm) != 4*perWriter || consumed != 4*perWriter {
		t.Fatalf("%d events retained, sink consumed %d, want %d each", len(h.Comm), consumed, 4*perWriter)
	}
	if seg.Sealed() < 4*perWriter/1024 {
		t.Fatalf("%d segments sealed, want one per 1024 events at least", seg.Sealed())
	}
}

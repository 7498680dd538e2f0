package transport

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/replica"
)

func testBlock() *core.Block {
	b := core.NewBlock("b12", 3, 2, 17, []byte{1, 2, 3, 4})
	return b.WithToken("tok(b12)")
}

func roundTrip(t *testing.T, payload any) any {
	t.Helper()
	buf, err := AppendPayload(nil, payload)
	if err != nil {
		t.Fatalf("encode %T: %v", payload, err)
	}
	out, err := DecodePayload(buf)
	if err != nil {
		t.Fatalf("decode %T: %v", payload, err)
	}
	return out
}

func TestCodecRoundTripUpdate(t *testing.T) {
	in := replica.UpdateMsg{Parent: "b12", Block: testBlock()}
	out, ok := roundTrip(t, in).(replica.UpdateMsg)
	if !ok {
		t.Fatalf("decoded wrong type")
	}
	if !sameExported(in.Block, out.Block) || in.Parent != out.Parent {
		t.Fatalf("update round trip: %+v != %+v", in, out)
	}
}

// updateOn encodes b as an update frame and decodes it against idx (nil:
// index-free), returning the decoded block.
func updateOn(t *testing.T, b *core.Block, idx *core.Index) *core.Block {
	t.Helper()
	buf, err := AppendPayload(nil, replica.UpdateMsg{Parent: b.Parent, Block: b})
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodePayload(buf, idx)
	if err != nil {
		t.Fatal(err)
	}
	up := out.(replica.UpdateMsg)
	if up.Parent != up.Block.Parent {
		t.Fatalf("update decoded with Parent %q, its block names %q", up.Parent, up.Block.Parent)
	}
	return up.Block
}

// sameExported compares two blocks on every exported field. Blocks are
// not to be compared with reflect.DeepEqual: core.Block carries
// WellFormed's unexported verdict, which a validated block has and its
// decoded copy has not.
func sameExported(a, b *core.Block) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if va.Type().Field(i).IsExported() && !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return false
		}
	}
	return true
}

// TestCodecDoesNotCarryTheVerdict: the wire carries content, never
// WellFormed's verdict. Without an index a validated block decodes to an
// equal block that is judged on its own — tampered with before its first
// judgement it is refused, which an inherited verdict would have waved
// through — and the frame of a forged twin (a copy of the validated block,
// payload altered: in memory it carries the original's address) decodes to
// a block P refuses. Against an index the verdict travels only with content
// equal on every field to a block a tree accepted: that frame decodes to
// the accepted block itself, and the twin's still decodes afresh.
func TestCodecDoesNotCarryTheVerdict(t *testing.T) {
	in := testBlock()
	if !(core.WellFormed{}).Valid(in) {
		t.Fatal("test block is not well-formed")
	}
	idx := core.NewIndex()
	idx.Intern(in)
	decode := func(b *core.Block) *core.Block { return updateOn(t, b, nil) }
	out := decode(in)
	if out == in || !sameExported(in, out) {
		t.Fatalf("round trip of a validated block: %+v != %+v", in, out)
	}
	if reflect.DeepEqual(in, out) {
		t.Fatal("DeepEqual holds between a validated block and its decoded copy: the verdict travelled, or is no longer on the block")
	}
	tampered := decode(in)
	tampered.Payload[0] ^= 0xFF
	if (core.WellFormed{}).Valid(tampered) {
		t.Fatal("a decoded block was accepted without being hashed")
	}
	if !(core.WellFormed{}).Valid(out) {
		t.Fatal("the decoded copy of a well-formed block was refused")
	}
	twin := *in
	twin.Payload = []byte{9, 9, 9, 9}
	for _, on := range []*core.Index{nil, idx} {
		if got := updateOn(t, &twin, on); got == in || !sameExported(&twin, got) || (core.WellFormed{}).Valid(got) {
			t.Fatalf("forged twin off the wire (index %v): %+v accepted or altered", on != nil, got)
		}
	}
	if got := updateOn(t, in, idx); got != in {
		t.Fatalf("the frame of an accepted block decoded against its index to a copy: %+v", got)
	}
}

// TestCodecDecodesByReference: against the run's index an update frame
// whose every encoded field equals an interned block decodes to that very
// block, allocating only the boxed UpdateMsg; a frame differing from it in
// any one field decodes to a fresh block equal to the frame, which P then
// judges on its own — a field the content hash covers altered (a forged
// twin) is refused.
func TestCodecDecodesByReference(t *testing.T) {
	in := testBlock()
	idx := core.NewIndex()
	idx.Intern(in)
	if got := updateOn(t, in, idx); got != in {
		t.Fatalf("frame of an interned block decoded to %p, want the interned %p", got, in)
	}
	for _, c := range []struct {
		field  string
		change func(*core.Block)
		hashed bool // the field is covered by the content hash
	}{
		{"ID", func(b *core.Block) { b.ID = core.HashBlock("b13", 2, 17, b.Payload) }, true},
		{"Parent", func(b *core.Block) { b.Parent = "b13" }, true},
		{"Height", func(b *core.Block) { b.Height++ }, false},
		{"Creator", func(b *core.Block) { b.Creator++ }, true},
		{"Round", func(b *core.Block) { b.Round++ }, true},
		{"Payload (a forged twin)", func(b *core.Block) { b.Payload = []byte{9, 9, 9, 9} }, true},
		{"Token", func(b *core.Block) { b.Token = "tok(b13)" }, false},
	} {
		want := *in
		c.change(&want)
		got := updateOn(t, &want, idx)
		if got == in || !sameExported(&want, got) {
			t.Errorf("%s changed: decoded %+v (interned: %v), want a fresh %+v", c.field, got, got == in, want)
		}
		if valid := (core.WellFormed{}).Valid(got); valid == c.hashed {
			t.Errorf("%s changed: WellFormed says %v of the fresh block", c.field, valid)
		}
	}
	hit, _ := AppendPayload(nil, replica.UpdateMsg{Parent: in.Parent, Block: in})
	if allocs := testing.AllocsPerRun(200, func() { _, _ = decodePayload(hit, idx) }); allocs > 1 {
		t.Fatalf("decoding an interned block allocates %.0f times, want at most the boxed UpdateMsg", allocs)
	}
}

func TestCodecRoundTripInv(t *testing.T) {
	in := replica.InvMsg{Leaves: []core.BlockID{"b1", "b2", "b3"}}
	out := roundTrip(t, in).(replica.InvMsg)
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("inv round trip: %+v != %+v", in, out)
	}
	// An empty inventory survives too.
	empty := roundTrip(t, replica.InvMsg{}).(replica.InvMsg)
	if len(empty.Leaves) != 0 {
		t.Fatalf("empty inv decoded leaves: %+v", empty)
	}
}

func TestCodecRoundTripReqAndSync(t *testing.T) {
	req := roundTrip(t, replica.ReqMsg{ID: "b7"}).(replica.ReqMsg)
	if req.ID != "b7" {
		t.Fatalf("req round trip: %+v", req)
	}
	if _, ok := roundTrip(t, replica.SyncMsg{}).(replica.SyncMsg); !ok {
		t.Fatalf("sync round trip lost its type")
	}
}

func TestCodecRejectsUnknownPayload(t *testing.T) {
	if _, err := AppendPayload(nil, 42); err == nil {
		t.Fatal("encoding an int should fail")
	}
	if _, err := DecodePayload([]byte{99, 0}); err == nil {
		t.Fatal("unknown frame kind should fail")
	}
	if _, err := DecodePayload(nil); err == nil {
		t.Fatal("empty frame should fail")
	}
}

func TestCodecTruncationFails(t *testing.T) {
	buf, err := AppendPayload(nil, replica.UpdateMsg{Parent: "b12", Block: testBlock()})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(buf); cut++ {
		if _, err := DecodePayload(buf[:cut]); err == nil {
			t.Fatalf("truncated frame of %d/%d bytes decoded", cut, len(buf))
		}
	}
}

// TestCodecRejectsTrailingBytes: a frame body is exactly one payload, so
// bytes after it are an error, for every frame kind.
func TestCodecRejectsTrailingBytes(t *testing.T) {
	for _, p := range []any{
		replica.UpdateMsg{Parent: "b12", Block: testBlock()},
		replica.InvMsg{Leaves: []core.BlockID{"b1", "b2"}},
		replica.ReqMsg{ID: "b7"},
		replica.SyncMsg{},
	} {
		buf, err := AppendPayload(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodePayload(append(buf, 0xde, 0xad, 0x00)); err == nil {
			t.Errorf("%T frame with 3 trailing bytes decoded", p)
		}
	}
}

// FuzzFrameCodec pins three invariants of the wire format: DecodePayload
// never panics on arbitrary bytes, and decode∘encode is the identity on
// every payload that decodes — re-encoding a decoded payload and
// decoding again yields the same payload. (Byte-identity of the frames
// themselves is not claimed: varint decoding accepts non-minimal
// encodings that re-encode canonically.) A decoded payload keeps no
// reference into the bytes it was decoded from, which tcpNet's reused read
// buffer rests on. And by reference: decoded against an index, a frame
// gives the payload it gives without one, and an update is the interned
// block exactly when its content equals that block's on every field.
func FuzzFrameCodec(f *testing.F) {
	idx := core.NewIndex()
	// An interned block with an empty, non-nil payload: its frame decodes
	// to a nil payload, so it must never resolve to the interned block.
	bare := core.NewBlock("b12", 3, 2, 18, []byte{})
	for _, b := range []*core.Block{testBlock(), bare} {
		idx.Intern(b)
	}
	seedPayloads := []any{
		replica.UpdateMsg{Parent: "b12", Block: testBlock()},
		replica.UpdateMsg{Parent: "b12", Block: bare},
		replica.UpdateMsg{Block: core.Genesis()},
		replica.InvMsg{Leaves: []core.BlockID{"b1", "b2"}},
		replica.ReqMsg{ID: "b7"},
		replica.SyncMsg{},
	}
	for _, p := range seedPayloads {
		buf, err := AppendPayload(nil, p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{frameInv, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		clean := bytes.Clone(data)
		payload, err := DecodePayload(data)
		byRef, refErr := decodePayload(data, idx)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoding against an index changed the error: %v, against the index %v", err, refErr)
		}
		if err != nil {
			return // invalid frames just error
		}
		for i := range data {
			data[i] = ^data[i]
		}
		if fresh, err := DecodePayload(clean); err != nil || !reflect.DeepEqual(payload, fresh) {
			t.Fatalf("payload changed when its frame was overwritten:\nheld:  %#v\nfresh: %#v (%v)", payload, fresh, err)
		}
		if up, ok := payload.(replica.UpdateMsg); ok {
			got := byRef.(replica.UpdateMsg)
			if got.Parent != up.Parent || !sameExported(got.Block, up.Block) {
				t.Fatalf("decoding against an index changed the update:\nwithout: %#v\nwith:    %#v", up.Block, got.Block)
			}
			held := idx.Block(up.Block.ID)
			if equal := held != nil && sameExported(held, up.Block); (got.Block == held) != equal {
				t.Fatalf("content equal to the interned block: %v, decoded to it: %v", equal, got.Block == held)
			}
		} else if !reflect.DeepEqual(payload, byRef) {
			t.Fatalf("decoding against an index changed the payload:\nwithout: %#v\nwith:    %#v", payload, byRef)
		}
		re, err := AppendPayload(nil, payload)
		if err != nil {
			t.Fatalf("decoded payload %T does not re-encode: %v", payload, err)
		}
		again, err := DecodePayload(re)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(payload, again) {
			t.Fatalf("decode∘encode not identity:\nfirst:  %#v\nsecond: %#v", payload, again)
		}
	})
}

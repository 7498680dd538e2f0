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
// WellFormed's verdict. A validated block decodes to an equal block that
// is judged on its own — tampered with before its first judgement it is
// refused, which an inherited verdict would have waved through — and the
// frame of a forged twin (a copy of the validated block, payload altered:
// in memory it carries the original's address) decodes to a block P
// refuses.
func TestCodecDoesNotCarryTheVerdict(t *testing.T) {
	in := testBlock()
	if !(core.WellFormed{}).Valid(in) {
		t.Fatal("test block is not well-formed")
	}
	decode := func(b *core.Block) *core.Block {
		return roundTrip(t, replica.UpdateMsg{Parent: b.Parent, Block: b}).(replica.UpdateMsg).Block
	}
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
	if got := decode(&twin); !sameExported(&twin, got) || (core.WellFormed{}).Valid(got) {
		t.Fatalf("forged twin off the wire: %+v accepted or altered", got)
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

// FuzzFrameCodec pins two invariants of the wire format: DecodePayload
// never panics on arbitrary bytes, and decode∘encode is the identity on
// every payload that decodes — re-encoding a decoded payload and
// decoding again yields the same payload. (Byte-identity of the frames
// themselves is not claimed: varint decoding accepts non-minimal
// encodings that re-encode canonically.) A third, which tcpNet's reused
// read buffer rests on: a decoded payload keeps no reference into the
// bytes it was decoded from.
func FuzzFrameCodec(f *testing.F) {
	seedPayloads := []any{
		replica.UpdateMsg{Parent: "b12", Block: testBlock()},
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
		if err != nil {
			return // invalid frames just error
		}
		for i := range data {
			data[i] = ^data[i]
		}
		if fresh, err := DecodePayload(clean); err != nil || !reflect.DeepEqual(payload, fresh) {
			t.Fatalf("payload changed when its frame was overwritten:\nheld:  %#v\nfresh: %#v (%v)", payload, fresh, err)
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

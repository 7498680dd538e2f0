package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/replica"
)

// The tcpNet wire format. Every frame is a 4-byte little-endian length
// followed by a body of
//
//	kind byte | kind-specific fields
//
// with strings as uvarint length + bytes and integers as zigzag
// varints — the same manual, reflection-free codec style as the block
// payload encoding (core.EncodeTxs): no gob/json, no per-field
// allocations on encode beyond the frame buffer itself.
const (
	frameUpdate byte = 1 // replica.UpdateMsg: one block
	frameInv    byte = 2 // replica.InvMsg: leaf inventory
	frameReq    byte = 3 // replica.ReqMsg: block request
	frameSync   byte = 4 // replica.SyncMsg: catch-up solicit
)

// maxFrame bounds a decoded frame body (defense against a corrupt
// length prefix on a real socket).
const maxFrame = 1 << 24

// appendString encodes s as uvarint length + bytes.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendInt zigzag-encodes v.
func appendInt(b []byte, v int) []byte {
	return binary.AppendVarint(b, int64(v))
}

// appendBytes encodes p as uvarint length + bytes.
func appendBytes(b []byte, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendPayload encodes one carrier payload onto buf (no length
// prefix; the frame writer adds it). Unknown payload types error —
// the live replica stack only speaks update/inv/req/sync.
func AppendPayload(buf []byte, payload any) ([]byte, error) {
	switch m := payload.(type) {
	case replica.UpdateMsg:
		buf = append(buf, frameUpdate)
		return appendBlock(buf, m.Block), nil
	case replica.InvMsg:
		buf = append(buf, frameInv)
		buf = binary.AppendUvarint(buf, uint64(len(m.Leaves)))
		for _, id := range m.Leaves {
			buf = appendString(buf, string(id))
		}
		return buf, nil
	case replica.ReqMsg:
		buf = append(buf, frameReq)
		return appendString(buf, string(m.ID)), nil
	case replica.SyncMsg:
		return append(buf, frameSync), nil
	default:
		return nil, fmt.Errorf("transport: cannot encode payload %T", payload)
	}
}

// appendBlock encodes every field of a block. Token rides along so
// token-stamped blocks survive the wire byte-exactly (the k-fork checker
// groups by Token).
func appendBlock(buf []byte, b *core.Block) []byte {
	buf = appendString(buf, string(b.ID))
	buf = appendString(buf, string(b.Parent))
	buf = appendInt(buf, b.Height)
	buf = appendInt(buf, b.Creator)
	buf = appendInt(buf, b.Round)
	buf = appendBytes(buf, b.Payload)
	buf = appendString(buf, string(b.Token))
	return buf
}

// decoder walks a frame body.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("transport: truncated frame at %s (offset %d of %d)", what, d.off, len(d.b))
	}
}

func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.off += n
	return v
}

// raw returns the next length-prefixed field as a view of the frame, valid
// only until the frame's buffer is reused: str and bytes copy it, interned
// only compares it.
func (d *decoder) raw(what string) []byte {
	n := d.uvarint(what)
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)-d.off) < n {
		d.fail(what)
		return nil
	}
	p := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return p
}

func (d *decoder) str(what string) string { return string(d.raw(what)) }

func (d *decoder) bytes(what string) []byte {
	p := d.raw(what)
	if len(p) == 0 {
		return nil
	}
	out := make([]byte, len(p))
	copy(out, p)
	return out
}

// DecodePayload decodes one frame body back into the carrier payload.
// Round-tripping is the identity for every payload AppendPayload
// accepts (FuzzFrameCodec pins this). A body is exactly one payload:
// trailing bytes are an error.
func DecodePayload(body []byte) (any, error) { return decodePayload(body, nil) }

// decodePayload is DecodePayload against the run's index: an update frame
// whose block equals an interned block on every encoded field decodes to
// that very block, any other frame as DecodePayload decodes it. idx may be
// nil. The index is only read.
func decodePayload(body []byte, idx *core.Index) (any, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("transport: empty frame")
	}
	d := &decoder{b: body, off: 1}
	var payload any
	switch body[0] {
	case frameUpdate:
		b := decodeBlock(d, idx)
		payload = replica.UpdateMsg{Parent: b.Parent, Block: b}
	case frameInv:
		n := d.uvarint("inv count")
		if n > uint64(len(body)) { // each leaf costs ≥1 byte
			return nil, fmt.Errorf("transport: inventory count %d exceeds frame", n)
		}
		msg := replica.InvMsg{}
		for i := uint64(0); i < n && d.err == nil; i++ {
			msg.Leaves = append(msg.Leaves, core.BlockID(d.str("inv leaf")))
		}
		payload = msg
	case frameReq:
		payload = replica.ReqMsg{ID: core.BlockID(d.str("req id"))}
	case frameSync:
		payload = replica.SyncMsg{}
	default:
		return nil, fmt.Errorf("transport: unknown frame kind %d", body[0])
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("transport: %d trailing bytes after a frame kind %d payload", len(body)-d.off, body[0])
	}
	return payload, nil
}

// decodeBlock decodes a block, or hands back the interned one when the
// frame holds exactly its content.
func decodeBlock(d *decoder, idx *core.Index) *core.Block {
	if idx != nil {
		if b := d.interned(idx); b != nil {
			return b
		}
	}
	b := &core.Block{}
	b.ID = core.BlockID(d.str("block id"))
	b.Parent = core.BlockID(d.str("block parent"))
	b.Height = int(d.varint("block height"))
	b.Creator = int(d.varint("block creator"))
	b.Round = int(d.varint("block round"))
	b.Payload = d.bytes("block payload")
	b.Token = d.str("block token")
	return b
}

// interned reads a block's fields in place, allocating nothing, and
// returns the block idx holds under the frame's ID when every field equals
// it — the block decodeBlock would build, down to a nil payload; otherwise
// nil, with d untouched. A forged twin, a re-stamped copy
// or a block no tree accepted (Index invariant (i)) is decoded, and
// judged, afresh.
func (d *decoder) interned(idx *core.Index) *core.Block {
	p := *d
	b := idx.BlockBytes(p.raw("block id"))
	if b == nil ||
		string(p.raw("block parent")) != string(b.Parent) ||
		int(p.varint("block height")) != b.Height ||
		int(p.varint("block creator")) != b.Creator ||
		int(p.varint("block round")) != b.Round {
		return nil
	}
	if pl := p.raw("block payload"); !bytes.Equal(pl, b.Payload) || (len(pl) == 0) != (b.Payload == nil) {
		return nil
	}
	if string(p.raw("block token")) != b.Token || p.err != nil {
		return nil
	}
	*d = p
	return b
}

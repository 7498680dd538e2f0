package consensus

import (
	"repro/internal/replica"
	"repro/internal/simnet"
)

// TOB is a sequencer-based total-order broadcast: clients submit
// payloads to a fixed sequencer (the ordering service of Hyperledger
// Fabric, Section 5.7); the sequencer assigns consecutive sequence
// numbers and broadcasts; every process delivers strictly in sequence
// order. With a correct sequencer and reliable channels this implements
// total order — which is all the Fabric mapping needs: a unique chain,
// i.e. the frugal oracle with k = 1.
type TOB struct {
	sequencer int
	nodes     []*tobNode
	// OnDeliver runs at each process for each payload, in total order.
	OnDeliver func(proc, seq int, payload any)
}

type tobNode struct {
	t        *TOB
	id       int
	nw       replica.Net
	nextSeq  int // the sequencer's only
	nextDlv  int
	buffered map[int]any
}

// submitMsg travels client → sequencer; orderMsg travels sequencer → all.
type (
	submitMsg struct{ Payload any }
	orderMsg  struct {
		Seq     int
		Payload any
	}
)

// NewTOB builds a total-order broadcast over one carrier per process
// (process p on nets[p]) with the given sequencer process.
func NewTOB(nets []replica.Net, sequencer int) *TOB {
	t := &TOB{sequencer: sequencer}
	for i, nw := range nets {
		nd := &tobNode{t: t, id: i, nw: nw, buffered: make(map[int]any)}
		t.nodes = append(t.nodes, nd)
		nw.AddHandler(nd.onMessage)
	}
	return t
}

// Broadcast submits payload for total ordering on behalf of process
// from; call it on the event loop that runs from's handlers.
func (t *TOB) Broadcast(from int, payload any) {
	t.nodes[from].nw.Send(t.sequencer, submitMsg{Payload: payload})
}

func (nd *tobNode) onMessage(m simnet.Message) {
	switch msg := m.Payload.(type) {
	case submitMsg:
		if nd.id != nd.t.sequencer {
			return
		}
		seq := nd.nextSeq
		nd.nextSeq++
		nd.nw.Broadcast(orderMsg{Seq: seq, Payload: msg.Payload})
	case orderMsg:
		nd.buffered[msg.Seq] = msg.Payload
		nd.flush()
	}
}

func (nd *tobNode) flush() {
	for {
		p, ok := nd.buffered[nd.nextDlv]
		if !ok {
			return
		}
		delete(nd.buffered, nd.nextDlv)
		seq := nd.nextDlv
		nd.nextDlv++
		if cb := nd.t.OnDeliver; cb != nil {
			cb(nd.id, seq, p)
		}
	}
}

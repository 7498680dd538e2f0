package consensus

import "repro/internal/simnet"

// TOB is a sequencer-based total-order broadcast: clients submit
// payloads to a fixed sequencer (the ordering service of Hyperledger
// Fabric, Section 5.7); the sequencer assigns consecutive sequence
// numbers and broadcasts; every process delivers strictly in sequence
// order. With a correct sequencer and reliable channels this implements
// total order — which is all the Fabric mapping needs: a unique chain,
// i.e. the frugal oracle with k = 1.
type TOB struct {
	nw        *simnet.Network
	sequencer int
	nextSeq   int
	nodes     []*tobNode
	// OnDeliver runs at each process for each payload, in total order.
	OnDeliver func(proc, seq int, payload any)
}

type tobNode struct {
	t        *TOB
	id       int
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

// NewTOB builds a total-order broadcast over nw with the given sequencer
// process.
func NewTOB(nw *simnet.Network, sequencer int) *TOB {
	t := &TOB{nw: nw, sequencer: sequencer}
	for i := 0; i < nw.N(); i++ {
		nd := &tobNode{t: t, id: i, buffered: make(map[int]any)}
		t.nodes = append(t.nodes, nd)
		id := i
		nw.AddHandler(i, func(m simnet.Message) { t.nodes[id].onMessage(m) })
	}
	return t
}

// Broadcast submits payload for total ordering on behalf of process from.
func (t *TOB) Broadcast(from int, payload any) {
	t.nw.Send(from, t.sequencer, submitMsg{Payload: payload})
}

func (nd *tobNode) onMessage(m simnet.Message) {
	switch msg := m.Payload.(type) {
	case submitMsg:
		if nd.id != nd.t.sequencer {
			return
		}
		seq := nd.t.nextSeq
		nd.t.nextSeq++
		nd.t.nw.Broadcast(nd.id, orderMsg{Seq: seq, Payload: msg.Payload})
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

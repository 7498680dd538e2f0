package consistency

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/history"
)

// Update Agreement (Definition 4.3, Figure 13) and Light Reliable
// Communication (Definition 4.4), judged by the Monitor from the send,
// receive and update events of Definition 4.2. Both quantify over the
// correct processes, a set final only when the run ends, so the Monitor
// keeps per message in flight each process's first receive, the updates
// still to judge and the sends whose sender has not received it. A
// message leaves the flight once every correct process has received it
// and no local update of it awaits its send; its key stays, with whether
// its creator sent it, for the events that name it again (a replica
// rejoining from genesis receives and updates it anew). Events of a
// process outside [0, Procs) are not judged.

// msgKey identifies a message (b_g, b): a block under its predecessor.
type msgKey struct{ parent, block core.BlockID }

// MarshalText makes a msgKey a JSON map key in a monitor checkpoint:
// "<length of parent>:<parent><block>", so either ID may hold any byte.
func (k msgKey) MarshalText() ([]byte, error) {
	return []byte(strconv.Itoa(len(k.parent)) + ":" + string(k.parent) + string(k.block)), nil
}

func (k *msgKey) UnmarshalText(text []byte) error {
	n, ids, _ := strings.Cut(string(text), ":")
	l, err := strconv.Atoi(n)
	if err != nil || l < 0 || l > len(ids) {
		return fmt.Errorf("message key %q is not <length>:<parent><block>", text)
	}
	k.parent, k.block = core.BlockID(ids[:l]), core.BlockID(ids[l:])
	return nil
}

// msgState is one message in flight. Recv is each process's first
// receive index, -1 before it (nil once a local update brought back a
// message that had left), and Missing counts the correct processes at
// -1. Sent reports the send by the block's creator. Upd are the updates
// still to judge — every one while Missing > 0, then those violating R1
// or R2 — and Sends the sends whose sender has not received it.
type msgState struct {
	Recv       []int
	Missing    int
	Sent       bool
	Upd, Sends []commRec
}

// commRec is one update or send. Local: the block was generated at
// Proc; Late: a remote update before Proc received the message.
type commRec struct {
	Proc, Index int
	Local, Late bool
}

// judgeComm consumes one communication event. A block is generated at
// the process its Creator field names in the run's block index; one the
// index does not know is remote everywhere.
func (m *Monitor) judgeComm(e history.CommEvent) {
	p, k := e.Proc, msgKey{e.Parent, e.Block}
	if p < 0 || p >= len(m.PerProc) {
		return
	}
	local := false
	if e.Kind != history.EvReceive {
		b := m.table.Block(e.Block)
		local = b != nil && b.Creator == p
	}
	if e.Kind == history.EvSend {
		m.PerProc[p].Sends++
	} else if e.Kind == history.EvUpdate {
		m.PerProc[p].Updates++
	}
	ms := m.Msgs[k]
	if ms == nil {
		if sent, ok := m.Settled[k]; ok { // every process then correct has received it
			if local && e.Kind == history.EvSend {
				m.Settled[k] = true
			} else if local && !sent && e.Kind == history.EvUpdate {
				delete(m.Settled, k)
				m.Msgs[k] = &msgState{Upd: []commRec{{Proc: p, Index: e.Index, Local: true}}}
			}
			return
		}
		if n := len(m.spare); n > 0 {
			ms, m.spare = m.spare[n-1], m.spare[:n-1]
		} else {
			ms = &msgState{Recv: make([]int, len(m.PerProc))}
		}
		for q := range ms.Recv {
			ms.Recv[q] = -1
			if !m.IsFaulty[q] {
				ms.Missing++
			}
		}
		m.Msgs[k] = ms
	}
	open := ms.Missing > 0
	unheard := open && ms.Recv[p] < 0
	switch e.Kind {
	case history.EvSend:
		ms.Sent = ms.Sent || local
		if unheard {
			ms.Sends = append(ms.Sends, commRec{Proc: p, Index: e.Index})
		}
	case history.EvReceive:
		if unheard {
			ms.Recv[p] = e.Index
			ms.Sends = slices.DeleteFunc(ms.Sends, func(r commRec) bool { return r.Proc == p })
			if !m.IsFaulty[p] {
				ms.Missing--
			}
		}
	case history.EvUpdate:
		if open || local && !ms.Sent {
			ms.Upd = append(ms.Upd, commRec{Proc: p, Index: e.Index, Local: local, Late: unheard && !local})
		}
	}
	m.settle(k, ms)
}

// settle lets a message every correct process has received leave the
// flight, once none of its updates is left to judge.
func (m *Monitor) settle(k msgKey, ms *msgState) {
	if ms.Missing > 0 {
		return
	}
	ms.Sends = ms.Sends[:0]
	ms.Upd = slices.DeleteFunc(ms.Upd, func(r commRec) bool {
		return m.IsFaulty[r.Proc] || !r.Late && !(r.Local && !ms.Sent)
	})
	if len(ms.Upd) == 0 {
		delete(m.Msgs, k)
		m.Settled[k], ms.Sent = ms.Sent, false
		if ms.Recv != nil { // its storage serves the next message
			m.spare = append(m.spare, ms)
		}
	}
}

// missing is the first correct process that has not received the
// message, -1 when there is none.
func (m *Monitor) missing(ms *msgState) int {
	for q, at := range ms.Recv {
		if at < 0 && !m.IsFaulty[q] {
			return q
		}
	}
	return -1
}

// msgEvent is an event of a message in flight (or the message itself,
// at its first receive by a correct process).
type msgEvent struct {
	commRec
	k  msgKey
	ms *msgState
}

// inFlight lists pick's events of correct processes, over the messages
// in flight, in recording order.
func (m *Monitor) inFlight(pick func(ms *msgState) []commRec) []msgEvent {
	var out []msgEvent
	for k, ms := range m.Msgs {
		for _, r := range pick(ms) {
			if !m.IsFaulty[r.Proc] {
				out = append(out, msgEvent{r, k, ms})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// UpdateAgreement reports R1–R3 (see the package function) over the
// events consumed so far; once the stream has ended, what a message in
// flight lacks is the violation. Callable before or after Finalize.
func (m *Monitor) UpdateAgreement() *Report {
	rep := &Report{Property: "UpdateAgreement", OK: true}
	for _, u := range m.inFlight(func(ms *msgState) []commRec { return ms.Upd }) {
		par, blk := u.k.parent.Short(), u.k.block.Short()
		switch {
		case u.Local && !u.ms.Sent:
			rep.violate("R1: update_%d(%s,%s) has no matching send_%d", u.Proc, par, blk, u.Proc)
		case u.Late && u.ms.Recv[u.Proc] < 0:
			rep.violate("R2: update_%d(%s,%s) has no matching receive_%d", u.Proc, par, blk, u.Proc)
		case u.Late:
			rep.violate("R2: receive_%d(%s,%s) at %d after update at %d", u.Proc, par, blk, u.ms.Recv[u.Proc], u.Index)
		}
		if q := m.missing(u.ms); q >= 0 {
			rep.violate("R3: update of (%s,%s) never received by process %d", par, blk, q)
		}
	}
	for p, c := range m.PerProc {
		if !m.IsFaulty[p] {
			rep.Checked += c.Updates
		}
	}
	return rep
}

// LRC reports Light Reliable Communication (see the package function)
// over the events consumed so far, like UpdateAgreement.
func (m *Monitor) LRC() *Report {
	rep := &Report{Property: "LRC", OK: true}
	correct := false
	for p, c := range m.PerProc {
		if !m.IsFaulty[p] {
			rep.Checked += c.Sends
			correct = true
		}
	}
	if correct {
		rep.Checked += len(m.Settled) // each reached every correct process
	}
	for _, s := range m.inFlight(func(ms *msgState) []commRec { return ms.Sends }) {
		rep.violate("Validity: send_%d(%s,%s) never received by sender itself", s.Proc, s.k.parent.Short(), s.k.block.Short())
	}
	partial := m.inFlight(func(ms *msgState) []commRec {
		first := commRec{Index: -1}
		for q, at := range ms.Recv {
			if at >= 0 && !m.IsFaulty[q] && (first.Index < 0 || at < first.Index) {
				first = commRec{Proc: q, Index: at}
			}
		}
		if first.Index >= 0 || ms.Missing == 0 && correct {
			rep.Checked++ // a correct process received it
		}
		if first.Index < 0 || ms.Missing == 0 {
			return nil
		}
		return []commRec{first}
	})
	for _, a := range partial {
		rep.violate("Agreement: (%s,%s) received by some correct process but not by %d",
			a.k.parent.Short(), a.k.block.Short(), m.missing(a.ms))
	}
	return rep
}

// UpdateAgreement checks R1–R3 on the history's communication events,
// quantifying over correct processes:
//
//	R1: ∀ update_i(bg, b_i) with b_i generated at i, ∃ send_i(bg, b_i);
//	R2: ∀ update_i(bg, b_j) with j ≠ i, ∃ receive_i(bg, b_j) ↦-before it;
//	R3: ∀ update_i(bg, b_j), ∀ correct k, ∃ receive_k(bg, b_j).
//
// A block is generated at the process its Creator field names in the
// history's block index; a block the index does not know is remote for
// every updater, the conservative direction. The events are replayed
// through a fresh Monitor; violations are reported update by update, in
// recording order.
func UpdateAgreement(h *history.History) *Report {
	return replay(h, MonitorConfig{}, true).UpdateAgreement()
}

// LRC checks the Light Reliable Communication abstraction (Definition
// 4.4) over the recorded events, replayed through a fresh Monitor:
//
//	Validity:  ∀ send_i(b, b_i), ∃ receive_i(b, b_i) at i itself;
//	Agreement: if any correct process receives (b, b_j), every correct
//	           process receives it.
//
// Validity is reported send by send in recording order, then Agreement
// message by message in the order of their first receive by a correct
// process.
func LRC(h *history.History) *Report { return replay(h, MonitorConfig{}, true).LRC() }

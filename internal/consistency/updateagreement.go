package consistency

import (
	"repro/internal/core"
	"repro/internal/history"
)

// This file implements the communication-level properties of Section 4.3:
// Update Agreement (Definition 4.3, Figure 13) and Light Reliable
// Communication (Definition 4.4). Both are checked over the send /
// receive / update events recorded in a history (Definition 4.2).

type msgKey struct {
	parent core.BlockID
	block  core.BlockID
}

// UpdateAgreement checks R1–R3 on the history's communication events,
// quantifying over correct processes:
//
//	R1: ∀ update_i(bg, b_i) with b_i generated at i, ∃ send_i(bg, b_i);
//	R2: ∀ update_i(bg, b_j) with j ≠ i, ∃ receive_i(bg, b_j) ↦-before it;
//	R3: ∀ update_i(bg, b_j), ∀ correct k, ∃ receive_k(bg, b_j).
//
// The creator of a block is identified through the block registry passed
// in (ID → creator process); blocks whose creator is unknown are treated
// as remote for every updater, which is the conservative direction.
func UpdateAgreement(h *history.History, creator map[core.BlockID]int) *Report {
	rep := &Report{Property: "UpdateAgreement", OK: true}

	sends := make(map[int]map[msgKey]bool)    // proc → messages sent
	firstRecv := make(map[int]map[msgKey]int) // proc → message → first receive index
	for e := range h.Events() {
		k := msgKey{e.Parent, e.Block}
		switch e.Kind {
		case history.EvSend:
			if sends[e.Proc] == nil {
				sends[e.Proc] = make(map[msgKey]bool)
			}
			sends[e.Proc][k] = true
		case history.EvReceive:
			if firstRecv[e.Proc] == nil {
				firstRecv[e.Proc] = make(map[msgKey]int)
			}
			if _, ok := firstRecv[e.Proc][k]; !ok {
				firstRecv[e.Proc][k] = e.Index
			}
		}
	}

	for e := range h.Events() {
		if e.Kind != history.EvUpdate || !h.IsCorrect(e.Proc) {
			continue
		}
		k := msgKey{e.Parent, e.Block}
		local := false
		if c, ok := creator[e.Block]; ok && c == e.Proc {
			local = true
		}
		rep.Checked++
		if local {
			// R1: the locally generated update must be sent.
			if !sends[e.Proc][k] {
				rep.violate("R1: update_%d(%s,%s) has no matching send_%d",
					e.Proc, e.Parent.Short(), e.Block.Short(), e.Proc)
			}
		} else {
			// R2: a remote update must follow a receive at the
			// same process.
			idx, ok := firstRecv[e.Proc][k]
			if !ok {
				rep.violate("R2: update_%d(%s,%s) has no matching receive_%d",
					e.Proc, e.Parent.Short(), e.Block.Short(), e.Proc)
			} else if idx > e.Index {
				rep.violate("R2: receive_%d(%s,%s) at %d after update at %d",
					e.Proc, e.Parent.Short(), e.Block.Short(), idx, e.Index)
			}
		}
		// R3: every correct process eventually receives the update's
		// message.
		for p := 0; p < h.Procs; p++ {
			if !h.IsCorrect(p) {
				continue
			}
			if _, ok := firstRecv[p][k]; !ok {
				rep.violate("R3: update of (%s,%s) never received by process %d",
					e.Parent.Short(), e.Block.Short(), p)
				break
			}
		}
	}
	return rep
}

// LRC checks the Light Reliable Communication abstraction (Definition
// 4.4) over the recorded events:
//
//	Validity:  ∀ send_i(b, b_i), ∃ receive_i(b, b_i) at i itself;
//	Agreement: if any correct process receives (b, b_j), every correct
//	           process receives it.
func LRC(h *history.History) *Report {
	rep := &Report{Property: "LRC", OK: true}

	received := make(map[int]map[msgKey]bool)
	anyRecv := make(map[msgKey]bool)
	var recvOrder []msgKey // anyRecv's keys by first receive: the report order
	for e := range h.Events() {
		if e.Kind != history.EvReceive {
			continue
		}
		k := msgKey{e.Parent, e.Block}
		if received[e.Proc] == nil {
			received[e.Proc] = make(map[msgKey]bool)
		}
		received[e.Proc][k] = true
		if h.IsCorrect(e.Proc) && !anyRecv[k] {
			anyRecv[k] = true
			recvOrder = append(recvOrder, k)
		}
	}

	// Validity.
	for e := range h.Events() {
		if e.Kind != history.EvSend || !h.IsCorrect(e.Proc) {
			continue
		}
		rep.Checked++
		k := msgKey{e.Parent, e.Block}
		if !received[e.Proc][k] {
			rep.violate("Validity: send_%d(%s,%s) never received by sender itself",
				e.Proc, e.Parent.Short(), e.Block.Short())
		}
	}

	// Agreement.
	for _, k := range recvOrder {
		rep.Checked++
		for p := 0; p < h.Procs; p++ {
			if !h.IsCorrect(p) {
				continue
			}
			if !received[p][k] {
				rep.violate("Agreement: (%s,%s) received by some correct process but not by %d",
					k.parent.Short(), k.block.Short(), p)
				break
			}
		}
	}
	return rep
}

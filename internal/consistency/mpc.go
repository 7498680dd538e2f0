package consistency

import (
	"repro/internal/history"
)

// MonotonicPrefix checks the session form of the Monotonic Prefix
// Consistency (MPC) criterion of Girault, Gößler, Guerraoui, Hamza and
// Seredinschi — the paper's reference [20], cited in the related work:
// along each process's sequence of reads, every returned chain must be a
// prefix of the next one. This strengthens Local Monotonic Read (which
// only forbids the *score* from dropping): a same-score branch switch —
// a chain reorganisation — violates MPC while passing Local Monotonic
// Read. The history's operations are replayed through a fresh Monitor.
//
// Positioning on this repository's runs: the k = 1 consensus family
// (whose reads only ever extend a unique chain) satisfies MPC, while the
// proof-of-work family violates it whenever a read lands on an abandoned
// branch — so MPC sits strictly between the paper's two criteria on
// these systems. [20] proves nothing stronger than MPC is implementable
// in a partition-prone message-passing system, which is how the paper's
// Section 1 transfers the impossibility to Strong Prefix.
func (c *Checker) MonotonicPrefix(h *history.History) *Report {
	return c.replay(h).MonotonicPrefix()
}

// MonotonicPrefix reports Monotonic Prefix over the reads consumed so
// far: correct processes in order, each one's reorganisations in read
// order. Callable before or after Finalize.
func (m *Monitor) MonotonicPrefix() *Report {
	rep := &Report{Property: "MonotonicPrefix", OK: true}
	for p, c := range m.PerProc {
		if m.IsFaulty[p] {
			continue
		}
		for _, v := range m.MPViol[p] {
			rep.violate("process %d reorganised: %s then %s", p, m.rebuild(v.Prev), m.rebuild(v.Cur))
			if len(rep.Violations) == MaxViolations {
				rep.Checked += v.N // the enumeration stops here
				return rep
			}
		}
		rep.Checked += c.ReadPairs
	}
	return rep
}

// extends reports whether prev's chain is a prefix of cur's. Two
// interned reads are answered by one ancestor probe in the table, which
// holds every ancestor of a read head, without allocating; an eager chain
// or no table take the materialized chains.
func (m *Monitor) extends(prev, cur *opRec) bool {
	switch {
	case prev.chain != nil || cur.chain != nil || m.table == nil:
		return m.rebuild(*prev).Chain().Prefix(m.rebuild(*cur).Chain())
	case prev.key() == cur.key():
		return true
	}
	anc := m.table.AncestorAt(cur.Head, prev.ChainLen-1)
	return anc != nil && anc.ID == prev.Head
}

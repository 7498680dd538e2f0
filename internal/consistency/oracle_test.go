package consistency

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/history"
)

// The definition-literal oracle: Definitions 3.2–3.4 and 3.9 (with the
// finitary readings documented on Checker) as plain loops over
// h.Reads(), recomputing every score and every maximal common prefix
// where it is needed, Definitions 4.3 and 4.4 as walks over the
// communication events, and Monotonic Prefix over each process's reads. It is the independent reference the Monitor — the
// only checking engine in product code — is held against: by the fuzz
// targets on generated streams and, through export_test.go, by the
// external catalogue test on real runs. It reports in the same
// enumeration order as the Monitor (reads in recording order, window
// pairs in order, at most MaxViolations counterexamples), so reports
// compare whole: OK flag, Checked, Violations, Witnesses.
type oracle struct {
	score   core.Score
	pred    core.Predicate
	horizon int
}

// oracleClassify returns the SC and EC verdicts of h read off the
// definitions (nil means length score / always-valid, as for Checker).
func oracleClassify(sc core.Score, p core.Predicate, horizon int, h *history.History) (*Verdict, *Verdict) {
	o := oracle{score: sc, pred: p, horizon: horizon}
	if sc == nil {
		o.score = core.LengthScore{}
	}
	if p == nil {
		o.pred = core.AlwaysValid{}
	}
	bv, lmr, egt := o.blockValidity(h), o.localMonotonicRead(h), o.everGrowingTree(h)
	return verdictOf("SC", bv, lmr, o.strongPrefix(h), egt),
		verdictOf("EC", bv, lmr, egt, o.eventualPrefix(h))
}

// diffOracle renders where the verdicts sc and ec, the reports kfork(1),
// kfork(2) and the reports ua, lrc and mp depart from the oracle's on h
// ("" when nowhere); looseEP exempts EventualPrefix.Checked, the one
// count the monitor does not promise when completed operations overlap.
func diffOracle(h *history.History, sc core.Score, p core.Predicate, horizon int,
	gsc, gec *Verdict, kfork func(int) *Report, ua, lrc, mp *Report, looseEP bool) string {
	var b strings.Builder
	cmp := func(what, got, want string) {
		if looseEP {
			got, want = dropEPChecked(got), dropEPChecked(want)
		}
		if got != want {
			fmt.Fprintf(&b, "%s differs from the oracle:\n--- oracle ---\n%s--- got ---\n%s", what, want, got)
		}
	}
	osc, oec := oracleClassify(sc, p, horizon, h)
	cmp("SC", verdictDump(gsc), verdictDump(osc))
	cmp("EC", verdictDump(gec), verdictDump(oec))
	for _, k := range []int{1, 2} {
		cmp(fmt.Sprintf("KFork(%d)", k), reportDump(kfork(k)), reportDump(oracleKFork(h, k)))
	}
	cmp("UpdateAgreement", reportDump(ua), reportDump(oracleUpdateAgreement(h)))
	cmp("LRC", reportDump(lrc), reportDump(oracleLRC(h)))
	cmp("MonotonicPrefix", reportDump(mp), reportDump(oracleMonotonicPrefix(h)))
	return b.String()
}

// tail is the liveness window: the last max(2, procs) reads (or the
// last horizon reads).
func (o oracle) tail(h *history.History) []*history.Op {
	w := o.horizon
	if w <= 0 {
		w = max(2, h.Procs)
	}
	reads := h.Reads()
	return reads[max(0, len(reads)-w):]
}

// blockValidity: every non-genesis block of every chain read satisfies
// P and is the argument of an append() invoked before the read's
// response (pending and failed appends count: only the invocation is
// required).
func (o oracle) blockValidity(h *history.History) *Report {
	rep := &Report{Property: "BlockValidity", OK: true}
	for _, r := range h.Reads() {
		for _, b := range r.Chain() {
			if b.IsGenesis() {
				continue
			}
			rep.Checked++
			if !o.pred.Valid(b) {
				rep.witness([]*history.Op{r}, []core.BlockID{b.ID},
					"read %s returned block %s with P(b)=false", r, b.ID.Short())
				continue
			}
			var ap *history.Op // earliest append(b) invocation
			for _, op := range h.Ops {
				if op.Kind == history.OpAppend && op.Block != nil && op.Block.ID == b.ID &&
					(ap == nil || op.InvIndex < ap.InvIndex) {
					ap = op
				}
			}
			switch {
			case ap == nil:
				rep.witness([]*history.Op{r}, []core.BlockID{b.ID},
					"read %s returned block %s never passed to append()", r, b.ID.Short())
			case ap.InvIndex >= r.RspIndex:
				rep.witness([]*history.Op{r, ap}, []core.BlockID{b.ID},
					"read %s returned block %s appended only later (inv %d ≥ rsp %d)",
					r, b.ID.Short(), ap.InvIndex, r.RspIndex)
			}
		}
	}
	return rep
}

// localMonotonicRead: along each correct process's reads the score
// never decreases.
func (o oracle) localMonotonicRead(h *history.History) *Report {
	rep := &Report{Property: "LocalMonotonicRead", OK: true}
	for p := 0; p < h.Procs; p++ {
		if !h.IsCorrect(p) {
			continue
		}
		var prev *history.Op
		for _, op := range h.Reads() {
			if op.Proc != p {
				continue
			}
			if prev != nil {
				rep.Checked++
				if ps, s := o.score.Of(prev.Chain()), o.score.Of(op.Chain()); ps > s {
					rep.witness([]*history.Op{prev, op}, []core.BlockID{prev.Head, op.Head},
						"process %d: score dropped %d → %d (%s then %s)", p, ps, s, prev, op)
				}
			}
			prev = op
		}
	}
	return rep
}

// strongPrefix: every two reads return comparable chains. All pairs are
// comparable iff, with the reads ordered by chain length (recording
// order among equals), each chain prefixes the next — a prefix is never
// longer than its extension — and the criterion reports the adjacent
// pairs of that order that fail. Checker.StrongPrefix keeps the
// all-pairs loop; the fuzz targets hold the two verdicts equal.
func (o oracle) strongPrefix(h *history.History) *Report {
	rep := &Report{Property: "StrongPrefix", OK: true}
	reads := append([]*history.Op(nil), h.Reads()...)
	sort.SliceStable(reads, func(i, j int) bool { return reads[i].ChainLen < reads[j].ChainLen })
	for i := 1; i < len(reads); i++ {
		rep.Checked++
		prev, cur := reads[i-1], reads[i]
		if !prev.Chain().Prefix(cur.Chain()) {
			rep.witness([]*history.Op{prev, cur}, []core.BlockID{prev.Head, cur.Head},
				"incomparable reads: %s vs %s", prev, cur)
		}
	}
	return rep
}

// everGrowingTree: read r with score s is violated when, among the
// window reads after r, one still scores ≤ s although the window grew
// past s.
func (o oracle) everGrowingTree(h *history.History) *Report {
	rep := &Report{Property: "EverGrowingTree", OK: true}
	tail := o.tail(h)
	for _, r := range h.Reads() {
		rep.Checked++
		s := o.score.Of(r.Chain())
		maxT := -1
		var stale *history.Op
		for _, t := range tail {
			if !r.Before(t) {
				continue
			}
			st := o.score.Of(t.Chain())
			maxT = max(maxT, st)
			if st <= s && stale == nil {
				stale = t
			}
		}
		if stale != nil && maxT > s {
			rep.witness([]*history.Op{r, stale}, []core.BlockID{r.Head, stale.Head},
				"stagnation persists after %s: final-window read %s has score ≤ %d while the window grew to %d",
				r, stale, s, maxT)
			if len(rep.Violations) == MaxViolations {
				return rep
			}
		}
	}
	return rep
}

// eventualPrefix: read r with score s is violated when two window reads
// after r diverge below min(s, their own scores).
func (o oracle) eventualPrefix(h *history.History) *Report {
	rep := &Report{Property: "EventualPrefix", OK: true}
	tail := o.tail(h)
	for _, r := range h.Reads() {
		s := o.score.Of(r.Chain())
		var after []*history.Op
		for _, t := range tail {
			if r.Before(t) {
				after = append(after, t)
			}
		}
		for x := 0; x < len(after); x++ {
			for y := x + 1; y < len(after); y++ {
				rep.Checked++
				a, b := after[x], after[y]
				m := core.MCPS(o.score, a.Chain(), b.Chain())
				bound := min(s, o.score.Of(a.Chain()), o.score.Of(b.Chain()))
				if m < bound {
					rep.witness([]*history.Op{r, a, b}, []core.BlockID{a.Head, b.Head},
						"after %s (score %d) final-window reads still diverge: mcps(%s, %s)=%d < %d",
						r, s, a, b, m, bound)
					if len(rep.Violations) == MaxViolations {
						return rep
					}
				}
			}
		}
	}
	return rep
}

// oracleTokenGroups groups h's successful appends by token — a block
// without one by "parent:<its parent>" — each group in recording order,
// and returns the tokens sorted.
func oracleTokenGroups(h *history.History) ([]string, map[string][]*history.Op) {
	groups := map[string][]*history.Op{}
	var toks []string
	for _, op := range h.Ops {
		if op.Kind != history.OpAppend || op.Pending || !op.OK || op.Block == nil {
			continue
		}
		tok := op.Block.Token
		if tok == "" {
			tok = "parent:" + string(op.Block.Parent)
		}
		if groups[tok] == nil {
			toks = append(toks, tok)
		}
		groups[tok] = append(groups[tok], op)
	}
	sort.Strings(toks)
	return toks, groups
}

// oracleKFork: at most k successful appends consume the same token
// (blocks without a token are grouped by parent, the object the token
// was for).
func oracleKFork(h *history.History, k int) *Report {
	rep := &Report{Property: fmt.Sprintf("%d-ForkCoherence", k), OK: true}
	toks, groups := oracleTokenGroups(h)
	for _, tok := range toks {
		rep.Checked++
		if ops := groups[tok]; len(ops) > k {
			blocks := make([]core.BlockID, len(ops))
			for i, op := range ops {
				blocks[i] = op.Block.ID
			}
			rep.witness(ops, blocks,
				"token %q consumed by %d successful appends (k=%d): forks %s", tok, len(ops), k, shortIDs(blocks))
		}
	}
	return rep
}

// oracleUpdateAgreement: R1–R3 of Definition 4.3, every update of a
// correct process in recording order. A block is generated at the
// process its Creator field names in the history's block index; a block
// the index does not know is remote for every updater.
func oracleUpdateAgreement(h *history.History) *Report {
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
		if h.Table != nil {
			if b := h.Table.Block(e.Block); b != nil && b.Creator == e.Proc {
				local = true
			}
		}
		rep.Checked++
		if local {
			// R1: the locally generated update must be sent.
			if !sends[e.Proc][k] {
				rep.violate("R1: update_%d(%s,%s) has no matching send_%d",
					e.Proc, e.Parent.Short(), e.Block.Short(), e.Proc)
			}
		} else {
			// R2: a remote update must follow a receive at the same
			// process.
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

// oracleLRC: Definition 4.4 — Validity for every send of a correct
// process, in recording order, then Agreement for every message a
// correct process received, in the order of those first receives.
func oracleLRC(h *history.History) *Report {
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
	for e := range h.Events() {
		if e.Kind != history.EvSend || !h.IsCorrect(e.Proc) {
			continue
		}
		rep.Checked++
		if k := (msgKey{e.Parent, e.Block}); !received[e.Proc][k] {
			rep.violate("Validity: send_%d(%s,%s) never received by sender itself",
				e.Proc, e.Parent.Short(), e.Block.Short())
		}
	}
	for _, k := range recvOrder {
		rep.Checked++
		for p := 0; p < h.Procs; p++ {
			if h.IsCorrect(p) && !received[p][k] {
				rep.violate("Agreement: (%s,%s) received by some correct process but not by %d",
					k.parent.Short(), k.block.Short(), p)
				break
			}
		}
	}
	return rep
}

// oracleMonotonicPrefix: along each correct process's reads, every chain
// prefixes the next one.
func oracleMonotonicPrefix(h *history.History) *Report {
	rep := &Report{Property: "MonotonicPrefix", OK: true}
	for p := 0; p < h.Procs; p++ {
		if !h.IsCorrect(p) {
			continue
		}
		var prev *history.Op
		for _, op := range h.Reads() {
			if op.Proc != p {
				continue
			}
			if prev != nil {
				rep.Checked++
				if !prev.Chain().Prefix(op.Chain()) {
					rep.violate("process %d reorganised: %s then %s", p, prev, op)
					if len(rep.Violations) == MaxViolations {
						return rep
					}
				}
			}
			prev = op
		}
	}
	return rep
}

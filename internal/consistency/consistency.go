// Package consistency implements the paper's consistency criteria as
// executable checkers over recorded histories:
//
//   - the four properties of BT Strong Consistency (Definition 3.2):
//     Block Validity, Local Monotonic Read, Strong Prefix, Ever Growing
//     Tree;
//   - the Eventual Prefix property (Definition 3.3) and BT Eventual
//     Consistency (Definition 3.4);
//   - k-Fork Coherence (Definition 3.9);
//   - the Update Agreement properties R1–R3 (Definition 4.3) and the
//     Light Reliable Communication properties (Definition 4.4);
//   - Monotonic Prefix, the session criterion of the paper's reference
//     [20].
//
// The paper's liveness-flavoured properties quantify over infinite
// histories; a checker sees a finite prefix. The finitary readings used
// here are documented on each checker and in DESIGN.md: safety properties
// (Strong Prefix, Local Monotonic Read, Block Validity, k-Fork Coherence)
// are checked exactly, while Ever Growing Tree and Eventual Prefix
// exclude a configurable trailing "horizon" of reads for which the
// history contains no future.
//
// One engine evaluates them all, in state bounded by the block tree, the
// liveness window and the messages in flight: the incremental Monitor
// (monitor.go). It is fed either online, as the recorder's sink while a
// run is in flight, or after the fact — Checker, UpdateAgreement and LRC
// replay a retained History into a fresh Monitor. This file holds the
// vocabulary (Witness, Report, Verdict, Checker), that replay, and the
// all-pairs StrongPrefix of Definition 3.2; the definition-literal
// reading of every property lives in the tests (oracle_test.go), where
// the fuzz targets and the catalogue diff hold the Monitor against it.
package consistency

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/history"
)

// Witness is a structured counterexample backing one violation: the
// offending operations (a diverging read pair, the stale read, the >k
// appends) and block IDs (fork blocks, the invalid block), plus the
// rendered detail line. The violation matrix of internal/scenario and
// the cmd/historyviz renderer consume witnesses instead of re-parsing
// the human-readable Violations strings.
type Witness struct {
	// Property names the violated property.
	Property string
	// Ops are the operations that together exhibit the violation.
	Ops []*history.Op
	// Blocks are the block IDs at the heart of the violation (chain
	// heads of a diverging pair, fork siblings, the invalid block).
	Blocks []core.BlockID
	// Detail is the rendered counterexample (same text as the matching
	// Violations entry).
	Detail string
}

// String renders the witness as "property: detail".
func (w Witness) String() string {
	return w.Property + ": " + w.Detail
}

// Report is the outcome of checking one property on one history.
type Report struct {
	// Property names the property checked.
	Property string
	// OK reports whether the property holds (under the finitary
	// reading for liveness-flavoured properties).
	OK bool
	// Violations holds human-readable counterexamples, capped at
	// MaxViolations.
	Violations []string
	// Witnesses holds the structured counterexamples, parallel to
	// Violations (same cap, same order).
	Witnesses []Witness
	// Checked counts the atomic facts examined (pairs, reads, ...),
	// so reports can convey coverage.
	Checked int
}

// MaxViolations caps the counterexamples retained per report.
const MaxViolations = 16

func (r *Report) violate(format string, args ...any) {
	r.witness(nil, nil, format, args...)
}

// witness records a violation together with its structured counterexample
// (ops and blocks may be nil when the violation has no natural carrier,
// as for the plain violate() path — the Witness then carries only the
// detail line, keeping Witnesses parallel to Violations everywhere).
func (r *Report) witness(ops []*history.Op, blocks []core.BlockID, format string, args ...any) {
	r.OK = false
	if len(r.Violations) < MaxViolations {
		detail := fmt.Sprintf(format, args...)
		r.Violations = append(r.Violations, detail)
		r.Witnesses = append(r.Witnesses, Witness{Property: r.Property, Ops: ops, Blocks: blocks, Detail: detail})
	}
}

// String renders "property: OK (n facts)" or the first violation.
func (r *Report) String() string {
	if r.OK {
		return fmt.Sprintf("%s: OK (%d facts)", r.Property, r.Checked)
	}
	return fmt.Sprintf("%s: VIOLATED (%d facts, e.g. %s)", r.Property, r.Checked, r.Violations[0])
}

// Checker judges a recorded history against the criteria: it carries the
// score function and the validity predicate P of the BT-ADT under
// scrutiny plus the liveness tail window, and every entry point replays
// the history into a Monitor built from them — the one engine that
// evaluates the properties. Each call owns its monitor, so a Checker is
// safe for concurrent use.
//
// Finitary reading of the liveness-flavoured properties. The paper's
// Ever Growing Tree and Eventual Prefix quantify over infinite suffixes;
// a checker sees a finite prefix. The reading used here treats the final
// window of reads (the last max(2, procs) read responses, overridable
// via Horizon) as the observable stand-in for "the suffix": a condition
// that still holds in that window is presumed persistent.
//
//   - Ever Growing Tree: read r with score s is violated iff the window
//     (restricted to reads after r) contains a read with score ≤ s while
//     the window's maximum score exceeds s — i.e. stagnation persists
//     even though the system demonstrably grew past s. Windows whose
//     maximum is not above s are the truncation frontier and exempt.
//   - Eventual Prefix: read r with score s is violated iff two window
//     reads after r structurally diverge below s: their maximal common
//     prefix scores below min(s, score(a), score(b)). Requiring the
//     bound on *both* chains' own scores distinguishes real branch
//     divergence from one chain simply being shorter; a shorter chain
//     that is a prefix of the longer is stagnation (an Ever Growing
//     Tree matter), not divergence. This makes Theorem 3.1 (every SC
//     history is an EC history) hold structurally: under Strong Prefix
//     every mcps equals min(score(a), score(b)) ≥ the bound.
type Checker struct {
	// Score is the monotonic score function (Definition 3.2 notation).
	Score core.Score
	// P is the validity predicate for Block Validity.
	P core.Predicate
	// Horizon overrides the liveness tail-window size; 0 means
	// max(2, procs).
	Horizon int
}

// NewChecker returns a Checker with the given score and predicate
// (nil means length score / always-valid).
func NewChecker(sc core.Score, p core.Predicate) *Checker {
	if sc == nil {
		sc = core.LengthScore{}
	}
	if p == nil {
		p = core.AlwaysValid{}
	}
	return &Checker{Score: sc, P: p}
}

// chainKey identifies a read's returned chain: in a tree the chain is
// determined by its head (and the length pins degenerate cases), so
// per-chain work — scores, validity scans, prefix tests — is shared
// between the many reads that return the same chain.
type chainKey struct {
	head core.BlockID
	n    int
}

func keyOf(op *history.Op) chainKey { return chainKey{op.Head, op.ChainLen} }

// keysComparable probes whether the chains behind two read keys are
// prefix-comparable by walking parent links in x (O(Δheight), no
// materialization); false means only that the probe cannot clear them.
func keysComparable(x *core.Index, a, b chainKey) bool {
	if a == b {
		return true
	}
	short, long := a, b
	if short.n > long.n {
		short, long = long, short
	}
	anc := x.AncestorAt(long.head, short.n-1)
	return anc != nil && anc.ID == short.head
}

// MarshalText makes a chainKey a JSON map key (and a JSON string where it
// is a value) in a monitor checkpoint: "<length>:<head>", the length
// first so that a head may hold any byte.
func (k chainKey) MarshalText() ([]byte, error) {
	return []byte(strconv.Itoa(k.n) + ":" + string(k.head)), nil
}

func (k *chainKey) UnmarshalText(text []byte) error {
	n, head, ok := strings.Cut(string(text), ":")
	if !ok {
		return fmt.Errorf("chain key %q is not <length>:<head>", text)
	}
	var err error
	k.n, err = strconv.Atoi(n)
	k.head = core.BlockID(head)
	return err
}

// replay feeds h to a fresh Monitor the way the recorder would have:
// faulty processes first, then the communication events or the
// operations in recording order — the order the monitor's tie-breaks
// are specified in, see monitor.go — pending ones through OpPending.
func replay(h *history.History, cfg MonitorConfig, comm bool) *Monitor {
	cfg.Procs, cfg.Table = h.Procs, h.Table
	m := NewMonitor(cfg)
	for p, ok := range h.Correct {
		if !ok {
			m.Faulty(p)
		}
	}
	if comm {
		for e := range h.Events() {
			m.CommDone(e)
		}
		return m
	}
	for _, op := range h.Ops {
		if op.Pending {
			m.OpPending(op)
		} else {
			m.OpDone(op)
		}
	}
	return m
}

// replay is the replay of h for the operation properties under c.
func (c *Checker) replay(h *history.History) *Monitor {
	return replay(h, MonitorConfig{Score: c.Score, P: c.P, Horizon: c.Horizon}, false)
}

// Classify returns both verdicts, the shape of Table 1's consistency
// column. The three properties the criteria share are one report each.
func (c *Checker) Classify(h *history.History) (sc, ec *Verdict) {
	return c.replay(h).Finalize()
}

// property returns the named report of the two verdicts.
func (c *Checker) property(h *history.History, name string) *Report {
	sc, ec := c.Classify(h)
	for _, v := range []*Verdict{sc, ec} {
		for _, r := range v.Reports {
			if r.Property == name {
				return r
			}
		}
	}
	return nil
}

// BlockValidity checks Definition 3.2's first property: every non-genesis
// block of every chain returned by a read of a correct process satisfies
// P and was the argument of an append() whose invocation program-order
// precedes the read's response.
func (c *Checker) BlockValidity(h *history.History) *Report {
	return c.property(h, "BlockValidity")
}

// LocalMonotonicRead checks that along each correct process's sequence of
// reads the returned scores never decrease.
func (c *Checker) LocalMonotonicRead(h *history.History) *Report {
	return c.property(h, "LocalMonotonicRead")
}

// EverGrowingTree checks the finitary reading of Definition 3.2's last
// property ("the set of later reads with score ≤ s is finite"): a read r
// with score s is violated when the final window still contains a read
// with score ≤ s although the window's maximum score exceeds s — the
// stagnation persisted to the end of the recorded prefix while the tree
// demonstrably kept growing. See the Checker doc comment.
func (c *Checker) EverGrowingTree(h *history.History) *Report {
	return c.property(h, "EverGrowingTree")
}

// EventualPrefix checks the finitary reading of Definition 3.3 ("the set
// of read pairs whose maximal common prefix scores below s is finite"):
// a read r with score s is violated when two final-window reads after r
// structurally diverge below s, i.e. mcps(a, b) < min(s, score(a),
// score(b)). See the Checker doc comment for why the bound involves both
// chains' own scores.
func (c *Checker) EventualPrefix(h *history.History) *Report {
	return c.property(h, "EventualPrefix")
}

// KForkCoherence checks Definition 3.9: at most k successful append()
// operations return ⊤ for the same token. Blocks record the consumed
// token name; successful appends are grouped by it. Blocks with no token
// (histories not produced through an oracle refinement) are grouped by
// parent, which is the object the token was for.
func (c *Checker) KForkCoherence(h *history.History, k int) *Report {
	return c.replay(h).KForkReport(k)
}

// StrongPrefix checks that for every pair of reads by correct processes
// one returned chain prefixes the other — Definition 3.2 read literally,
// O(r²), reporting the first incomparable pairs in recording order. A
// pair is cleared by the ancestor probe on h.Table; only a pair the probe
// cannot clear has its chains materialized. The
// criterion verdicts (Classify) reach the same OK flag
// from the reads ordered by chain length (a prefix is never longer than
// its extension, so all pairs are comparable iff each chain prefixes the
// next) and report the adjacent pairs of that order instead.
func (c *Checker) StrongPrefix(h *history.History) *Report {
	rep := &Report{Property: "StrongPrefix", OK: true}
	reads := h.Reads()
	for i := 0; i < len(reads); i++ {
		for j := i + 1; j < len(reads); j++ {
			rep.Checked++
			if keysComparable(h.Table, keyOf(reads[i]), keyOf(reads[j])) {
				continue
			}
			if !reads[i].Chain().Comparable(reads[j].Chain()) {
				rep.witness([]*history.Op{reads[i], reads[j]}, []core.BlockID{reads[i].Head, reads[j].Head},
					"incomparable reads: %s vs %s", reads[i], reads[j])
				if len(rep.Violations) == MaxViolations {
					return rep
				}
			}
		}
	}
	return rep
}

// shortIDs renders block IDs compactly for witness details.
func shortIDs(ids []core.BlockID) string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = id.Short()
	}
	return "[" + strings.Join(out, " ") + "]"
}

// Verdict aggregates the criterion-level outcome.
type Verdict struct {
	// Criterion is "SC" or "EC".
	Criterion string
	OK        bool
	Reports   []*Report
}

// String renders e.g. "SC: HOLDS" or "EC: VIOLATED (StrongPrefix)".
func (v *Verdict) String() string {
	if v.OK {
		return fmt.Sprintf("%s: HOLDS", v.Criterion)
	}
	for _, r := range v.Reports {
		if !r.OK {
			return fmt.Sprintf("%s: VIOLATED (%s)", v.Criterion, r.Property)
		}
	}
	return fmt.Sprintf("%s: VIOLATED", v.Criterion)
}

// Failing returns the names of the violated properties.
func (v *Verdict) Failing() []string {
	var out []string
	for _, r := range v.Reports {
		if !r.OK {
			out = append(out, r.Property)
		}
	}
	return out
}

// Witnesses returns the structured counterexamples of every violated
// property in the verdict, in report order.
func (v *Verdict) Witnesses() []Witness {
	var out []Witness
	for _, r := range v.Reports {
		out = append(out, r.Witnesses...)
	}
	return out
}

// Verdicts is what one run was judged to be: the two criterion verdicts
// and, when a fork bound was asked for, the k-Fork Coherence report. The
// result types of both drivers and of the scenario layer embed it, so a
// run's verdict set has one shape wherever it is read.
type Verdicts struct {
	SC, EC *Verdict
	// KFork is nil when no k was configured.
	KFork *Report
}

// Violated lists the distinct violated property names in checking order:
// SC's reports, then EC's, then k-Fork Coherence.
func (v Verdicts) Violated() []string {
	var out []string
	add := func(reports ...*Report) {
		for _, rep := range reports {
			if rep != nil && !rep.OK && !slices.Contains(out, rep.Property) {
				out = append(out, rep.Property)
			}
		}
	}
	for _, verdict := range []*Verdict{v.SC, v.EC} {
		if verdict != nil {
			add(verdict.Reports...)
		}
	}
	add(v.KFork)
	return out
}

// verdictOf bundles reports into a criterion verdict.
func verdictOf(criterion string, reports ...*Report) *Verdict {
	v := &Verdict{Criterion: criterion, OK: true, Reports: reports}
	for _, r := range reports {
		v.OK = v.OK && r.OK
	}
	return v
}

// Package refine implements the oracle-based construction of Section 3.3:
// the refinement R(BT-ADT, Θ) in which the BT-ADT's append(b) operation
// is refined into a getToken* / consumeToken sequence against a token
// oracle, followed by the concatenation of the validated block to the
// selected chain — the three occurring atomically (Definition 3.7,
// Figure 7). It also encodes the hierarchy of refined types of Section
// 3.4 (Figures 8 and 14).
package refine

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/oracle"
	"repro/internal/tape"
)

// BT is a refined BlockTree object R(BT-ADT, Θ): a shared BlockTree whose
// append goes through the token oracle. It is safe for concurrent use;
// per Definition 3.7 the token acquisition, consumption and concatenation
// of one append are atomic with respect to each other and to reads.
type BT struct {
	mu   sync.Mutex
	tree *core.Tree
	f    core.Selector
	o    oracle.Oracle
	// rec, when non-nil, records every operation into a history.
	rec *history.Recorder
	// maxMine bounds the getToken* loop per append (finite runs).
	maxMine int
}

// Config parameterizes a refined BlockTree.
type Config struct {
	// Selector is f ∈ F (nil means longest chain).
	Selector core.Selector
	// Oracle is the Θ instance (required).
	Oracle oracle.Oracle
	// Recorder, if non-nil, receives invocation/response events, and
	// the tree is built on its block index, so a read records its head.
	Recorder *history.Recorder
	// MaxMine bounds getToken attempts per append; 0 means 1<<16.
	MaxMine int
}

// New builds a refined BlockTree over a fresh tree containing b0.
func New(cfg Config) *BT {
	if cfg.Oracle == nil {
		panic("refine: nil oracle")
	}
	f := cfg.Selector
	if f == nil {
		f = core.LongestChain{}
	}
	mm := cfg.MaxMine
	if mm <= 0 {
		mm = 1 << 16
	}
	tree := core.NewTree()
	if cfg.Recorder != nil {
		tree = core.NewTreeOn(cfg.Recorder.Table())
	}
	return &BT{tree: tree, f: f, o: cfg.Oracle, rec: cfg.Recorder, maxMine: mm}
}

// Read implements the BT-ADT read(): it returns {b0}⌢f(bt).
func (bt *BT) Read(proc int) core.Chain {
	var op *history.Op
	if bt.rec != nil {
		op = bt.rec.InvokeRead(proc)
	}
	bt.mu.Lock()
	c := bt.f.Select(bt.tree)
	bt.mu.Unlock()
	if bt.rec != nil {
		bt.rec.RespondReadHead(op, c.Head())
	}
	return c
}

// Append implements the refined append(b) of Definition 3.7 for a process
// with the given merit: select the chain head b_h = last_block(f(bt)),
// repeat getToken(b_h, b) until a token is granted (bounded by MaxMine),
// consume the token, and concatenate the validated block. It returns the
// final block and whether the append succeeded (δ′'s evaluate function:
// true iff the validated block ended up in K and in the tree).
func (bt *BT) Append(proc int, m tape.Merit, round int, payload []byte) (*core.Block, bool) {
	var op *history.Op
	if bt.rec != nil {
		// Record the invocation with a placeholder carrying the
		// payload; the final validated block replaces it at
		// response time.
		op = bt.rec.InvokeAppend(proc, &core.Block{ID: "pending", Payload: payload})
	}
	bt.mu.Lock()
	// Head-only fast path: mining needs the selected head, not the
	// materialized chain.
	parent := core.HeadOf(bt.f, bt.tree)
	var validated *core.Block
	for i := 0; i < bt.maxMine; i++ {
		if b, ok := bt.o.GetToken(m, parent, proc, round, payload); ok {
			validated = b
			break
		}
	}
	ok := false
	if validated != nil {
		if set, consumed := bt.o.ConsumeToken(validated); consumed {
			_ = set
			if err := bt.tree.Attach(validated); err == nil {
				ok = true
			}
		}
	}
	bt.mu.Unlock()
	if bt.rec != nil {
		bt.rec.RespondAppend(op, ok, validated)
	}
	return validated, ok
}

// Typology names one node of the hierarchy of Section 3.4.
type Typology struct {
	// Criterion is "SC" or "EC".
	Criterion string
	// K is the frugal bound; oracle.Unbounded denotes Θ_P.
	K int
	// Feasible reports implementability in a message-passing system
	// (Figure 14: SC with forks is grayed out by Theorem 4.8).
	Feasible bool
}

// Name renders e.g. "R(BT-ADT_SC, ΘF,k=1)".
func (t Typology) Name() string {
	if t.K == oracle.Unbounded {
		return fmt.Sprintf("R(BT-ADT_%s, ΘP)", t.Criterion)
	}
	return fmt.Sprintf("R(BT-ADT_%s, ΘF,k=%d)", t.Criterion, t.K)
}

// Edge is one inclusion of the hierarchy: the history set of From is
// contained in that of To, justified by the named theorem.
type Edge struct {
	From, To Typology
	Theorem  string
}

// Hierarchy returns the nodes and inclusion edges of Figure 8 (kRepr > 1
// stands for the generic k > 1 node; the paper draws it with an
// unspecified k). Theorem 4.8 marks the message-passing-infeasible nodes
// removed in Figure 14.
func Hierarchy(kRepr int) (nodes []Typology, edges []Edge) {
	if kRepr <= 1 {
		kRepr = 2
	}
	scK1 := Typology{"SC", 1, true}
	scKn := Typology{"SC", kRepr, false}           // removed by Thm 4.8
	scP := Typology{"SC", oracle.Unbounded, false} // removed by Thm 4.8
	ecKn := Typology{"EC", kRepr, true}
	ecP := Typology{"EC", oracle.Unbounded, true}
	nodes = []Typology{scK1, scKn, scP, ecKn, ecP}
	edges = []Edge{
		{scK1, scKn, "Theorem 3.4"},           // k=1 ⊆ k>1 (frugal monotone in k)
		{scKn, scP, "Theorem 3.3"},            // frugal ⊆ prodigal
		{scK1, ecKn, "Corollary 3.4.1 + 3.4"}, // SC ⊆ EC
		{scKn, ecKn, "Corollary 3.4.1"},
		{scP, ecP, "Corollary 3.4.1"},
		{ecKn, ecP, "Theorem 3.3"},
	}
	return nodes, edges
}

// Package experiments regenerates every figure and table of the paper as
// program output: each experiment returns a Result whose Lines are the
// rows/series the paper's artifact shows and whose OK reports whether
// the reproduction exhibits the property the paper claims. The bench
// harness (bench_test.go at the repository root) wraps each experiment
// in a testing.B benchmark; `go run ./cmd/btadt` prints every artifact
// with its paper-vs-measured verdict.
package experiments

import (
	"fmt"
	"strings"
)

// Result is the outcome of one experiment.
type Result struct {
	// ID is the paper artifact, e.g. "Figure 3" or "Table 1".
	ID string
	// Title describes the artifact.
	Title string
	// Lines is the regenerated content (rows / series / transitions).
	Lines []string
	// OK reports whether the reproduction matches the paper's claim.
	OK bool
	// Notes carries deviations or finitary-reading caveats.
	Notes []string
}

func (r *Result) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the full experiment report.
func (r *Result) String() string {
	var sb strings.Builder
	status := "REPRODUCED"
	if !r.OK {
		status = "MISMATCH"
	}
	fmt.Fprintf(&sb, "== %s — %s [%s]\n", r.ID, r.Title, status)
	for _, l := range r.Lines {
		fmt.Fprintf(&sb, "   %s\n", l)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "   note: %s\n", n)
	}
	return sb.String()
}

// Experiment is a named generator.
type Experiment struct {
	ID   string
	Name string
	Run  func(seed uint64) *Result
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "BT-ADT transition-system path", Figure1},
		{"fig2", "history satisfying BT Strong Consistency", Figure2},
		{"fig3", "history satisfying EC but not SC", Figure3},
		{"fig4", "history violating both criteria", Figure4},
		{"fig5", "ΘF abstract state (tapes + K array)", Figure5},
		{"fig6", "Θ-ADT transition path", Figure6},
		{"fig7", "refined append() path", Figure7},
		{"fig8", "hierarchy of refinements", Figure8},
		{"fig9", "consumeToken(k=1) vs compare&swap", Figure9},
		{"fig10", "CAS implemented from consumeToken", Figure10},
		{"fig11", "Consensus from ΘF,k=1 (protocol A)", Figure11},
		{"fig12", "ΘP consumeToken from atomic snapshot", Figure12},
		{"fig13", "Update Agreement history", Figure13},
		{"fig14", "hierarchy in message passing (Thm 4.8)", Figure14},
		{"lrc", "LRC necessity: one dropped message breaks EC", TheoremLRC},
		{"thm48", "Strong Prefix impossible with forks", Theorem48},
		{"table1", "mapping of existing systems", Table1},
		// Extensions beyond the paper's artifacts (its flagged open
		// threads; see the file extensions.go).
		{"ext-mpc", "Monotonic Prefix Consistency vs SC/EC", ExtensionMPC},
		{"ext-fairness", "oracle fairness: chain share vs merit", ExtensionFairness},
		{"ext-byz", "Byzantine flood cannot corrupt replicas", ExtensionByzantineFlood},
		{"ext-solve", "Eventual Prefix under sync/psync/async", ExtensionSolvability},
		{"ext-sampling", "read frequency vs observed SC violations", ExtensionSampling},
		{"ext-lrc-impl", "anti-entropy implements LRC over loss", ExtensionAntiEntropy},
	}
}

// ByID returns the experiment with the given id, or nil.
func ByID(id string) *Experiment {
	for _, e := range All() {
		if e.ID == id {
			out := e
			return &out
		}
	}
	return nil
}

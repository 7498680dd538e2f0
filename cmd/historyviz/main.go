// Command historyviz renders recorded concurrent histories in the style
// of the paper's Figures 2–4: per-process timelines of read() operations
// with the returned blockchains, plus the BlockTree, the criterion
// verdicts with their counterexample witnesses, and — for adversarial
// runs — the fault timeline (drops, partition cuts/heals, crash and
// restart marks, withheld and released blocks). It can render the three built-in paper histories, a
// fresh demo run of any system registered with the public btsim
// registry ("bitcoin", "byzcoin", "fabric", ...), or any scenario of
// the adversarial catalogue (e.g. "bitcoin/selfish",
// "fabric/equivocate"; see cmd/scenarios -list).
//
// Usage:
//
//	historyviz [-seed N] [fig2|fig3|fig4|<system-name>|<scenario-name>]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/btsim"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/history"
	"repro/internal/scenario"
)

func main() {
	seed := flag.Uint64("seed", 42, "seed")
	flag.Parse()
	which := "fig3"
	if flag.NArg() > 0 {
		which = flag.Arg(0)
	}

	switch which {
	case "fig2", "fig3", "fig4":
		e := experiments.ByID(which)
		res := e.Run(*seed)
		fmt.Print(res)
	default:
		if spec := scenario.ByName(which); spec != nil {
			runSeed := uint64(0) // pinned catalogue seed
			if *seed != 42 {
				runSeed = *seed
			}
			o, err := spec.Run(runSeed)
			if err != nil {
				fmt.Fprintln(os.Stderr, "historyviz:", err)
				os.Exit(2)
			}
			fmt.Printf("scenario %s (seed %d, digest %s): %s\n\n", spec.Name, o.Seed, o.Digest, spec.Note)
			render(o.Res)
			return
		}
		if sys, ok := btsim.Lookup(which); ok {
			render(demoRun(sys, *seed))
			return
		}
		fmt.Fprintf(os.Stderr, "historyviz: unknown target %q (fig2|fig3|fig4|<system>|<scenario>)\n", which)
		fmt.Fprintln(os.Stderr, "systems:")
		for _, name := range btsim.Names() {
			fmt.Fprintf(os.Stderr, "  %s\n", name)
		}
		fmt.Fprintln(os.Stderr, "scenarios:")
		for _, s := range scenario.Catalogue() {
			fmt.Fprintf(os.Stderr, "  %s\n", s.Name)
		}
		os.Exit(2)
	}
}

// demoRun produces a small render-friendly run of a registered system:
// few processes, short horizon, PoW difficulty tuned so the tree shows
// visible (transient) forks.
func demoRun(sys btsim.System, seed uint64) *btsim.Result {
	opts := []btsim.Option{btsim.WithSeed(seed), btsim.WithReadEvery(10)}
	if sys.Info().K == 0 {
		opts = append(opts, btsim.WithN(3), btsim.WithRounds(60), btsim.WithDifficulty(6))
	} else {
		opts = append(opts, btsim.WithN(4), btsim.WithRounds(20))
	}
	res, err := sys.Run(btsim.NewConfig(opts...))
	if err != nil {
		fmt.Fprintln(os.Stderr, "historyviz:", err)
		os.Exit(2)
	}
	return res
}

// render draws the per-process read timelines and the final tree.
func render(res *btsim.Result) {
	fmt.Printf("=== %s — %s, f = %s ===\n", res.System, res.History, res.Selector.Name())

	byProc := map[int][]*history.Op{}
	for _, r := range res.History.Reads() {
		byProc[r.Proc] = append(byProc[r.Proc], r)
	}
	var procs []int
	for p := range byProc {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	for _, p := range procs {
		var sb strings.Builder
		fmt.Fprintf(&sb, "p%d │", p)
		for _, r := range byProc[p] {
			head := "∅"
			if r.Head != "" {
				head = r.Head.Short()
			}
			fmt.Fprintf(&sb, " [l=%d %s]", r.ChainLen-1, head)
		}
		fmt.Println(sb.String())
	}

	renderFaults(res)

	fmt.Println("\nfinal BlockTree (replica 0):")
	drawTree(res.Trees[0], core.GenesisID, "")

	sc, ec := res.Check() // the verdicts of the monitor that watched the run
	fmt.Println()
	fmt.Println(sc)
	fmt.Println(ec)
	for _, w := range append(sc.Witnesses(), ec.Witnesses()...) {
		fmt.Println("  witness:", w)
	}
}

// renderFaults draws the fault timeline: partition cuts/heals,
// crash/restart marks and the adversary's withhold/release/equivocate
// decisions as individual events, with the (potentially numerous)
// per-message drop/defer/partloss/crashloss events summarized into
// counts.
func renderFaults(res *btsim.Result) {
	if len(res.FaultEvents) == 0 {
		return
	}
	perMsg := map[string]int{}
	var timeline []string
	for _, e := range res.FaultEvents {
		switch e.Kind {
		case "drop", "defer", "partloss", "crashloss":
			perMsg[e.Kind]++
		default:
			// includes "cut"/"heal" and the crash–recovery marks
			// ("crash", "restart"), which carry no From/To pair.
			timeline = append(timeline, e.String())
		}
	}
	fmt.Printf("\nfaults │ adversary=%s", res.AdversaryName)
	for _, k := range []string{"drop", "defer", "partloss", "crashloss"} {
		if perMsg[k] > 0 {
			fmt.Printf(" %s×%d", k, perMsg[k])
		}
	}
	fmt.Println()
	const maxShown = 24
	for i, line := range timeline {
		if i >= maxShown {
			fmt.Printf("       │ … %d more events\n", len(timeline)-i)
			break
		}
		fmt.Printf("       │ %s\n", line)
	}
}

func drawTree(t *core.Tree, id core.BlockID, indent string) {
	b := t.Block(id)
	label := "b0"
	if !b.IsGenesis() {
		label = fmt.Sprintf("%s (h=%d by p%d)", id.Short(), b.Height, b.Creator)
	}
	fmt.Printf("%s%s\n", indent, label)
	for _, ch := range t.Children(id) {
		drawTree(t, ch, indent+"  ")
	}
}

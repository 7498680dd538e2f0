// Command classify regenerates Table 1 of the paper: it runs every
// system registered with the public btsim registry, classifies each
// recorded history against the BT consistency criteria and the k-fork
// coherence of its oracle, and prints the measured mapping next to the
// paper's claim.
//
// Usage:
//
//	classify [-seed N] [-seeds K] [-system name] [-stream] [-adversary strategy]
//
// With -system, only that registered system is run and classified (any
// entry of btsim.Names()). With -seeds K > 1 the classification is
// repeated over K consecutive seeds and a stability summary is printed
// (how often each row matched). With -stream the witnesses of the online
// consistency monitor that checks every run print incrementally as they
// form, followed by its finalized verdicts; -adversary (selfish,
// withhold, equivocate) makes witnesses actually appear.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/btsim"
	_ "repro/btsim/systems"
	"repro/internal/adversary"
	"repro/internal/consistency"
	"repro/internal/experiments"
)

func main() {
	seed := flag.Uint64("seed", 42, "base seed")
	seeds := flag.Int("seeds", 1, "number of consecutive seeds to classify")
	system := flag.String("system", "", "classify a single registered system by name")
	stream := flag.Bool("stream", false, "check online: print witnesses incrementally as they form")
	adv := flag.String("adversary", "", "adversarial strategy for -stream runs (selfish, withhold, equivocate)")
	flag.Parse()

	if *stream {
		names := btsim.Names()
		if *system != "" {
			names = []string{*system}
		}
		fails := 0
		for _, name := range names {
			if !classifyStream(name, *seed, *adv) {
				fails++
			}
		}
		if fails > 0 {
			os.Exit(1)
		}
		return
	}

	if *system != "" {
		classifyOne(*system, *seed, *seeds)
		return
	}

	if *seeds <= 1 {
		res := experiments.Table1(*seed)
		fmt.Print(res)
		if !res.OK {
			os.Exit(1)
		}
		return
	}

	matches := map[string]int{}
	var order []string
	fails := 0
	for s := 0; s < *seeds; s++ {
		res := experiments.Table1(*seed + uint64(s))
		if !res.OK {
			fails++
		}
		for _, line := range res.Lines {
			fields := strings.Fields(line)
			if len(fields) < 2 || fields[0] == "System" || fields[0] == "oracle" {
				continue
			}
			sys := fields[0]
			if _, seen := matches[sys]; !seen {
				order = append(order, sys)
			}
			if strings.HasSuffix(line, "true") {
				matches[sys]++
			}
		}
	}
	fmt.Printf("Table 1 stability over %d seeds (base %d):\n", *seeds, *seed)
	for _, sys := range order {
		fmt.Printf("  %-12s matched %d/%d\n", sys, matches[sys], *seeds)
	}
	if fails > 0 {
		fmt.Printf("%d seed(s) had mismatching tables\n", fails)
		os.Exit(1)
	}
}

// classifyStream runs one system, printing each violation witness of its
// online monitor the moment it forms and the finalized verdicts
// afterwards. Returns whether the run was usable.
func classifyStream(name string, seed uint64, adv string) bool {
	sys, err := btsim.Get(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "classify:", err)
		os.Exit(2)
	}
	info := sys.Info()
	fmt.Printf("=== %s (Θ %s, paper: %s) — streaming check, seed %d ===\n",
		info.Name, info.Oracle, info.Criterion, seed)
	opts := []btsim.Option{
		btsim.WithSeed(seed),
		btsim.WithMonitor(func(w consistency.Witness) {
			fmt.Printf("  [live] %-20s %s\n", w.Property, w.Detail)
		}),
	}
	if k := info.K; k > 0 {
		opts = append(opts, btsim.WithMonitorK(k))
	}
	if adv != "" {
		opts = append(opts,
			btsim.WithN(4), btsim.WithMerits(1, 1, 1, 2),
			btsim.WithAdversary(btsim.Adversary{Strategy: adversary.Strategy(adv)}))
	}
	res, err := sys.Run(btsim.NewConfig(opts...))
	if err != nil {
		fmt.Fprintln(os.Stderr, "classify:", err)
		os.Exit(2)
	}
	st := res.Stream
	fmt.Printf("  finalized: SC=%v%v EC=%v%v", st.SC.OK, st.SC.Failing(), st.EC.OK, st.EC.Failing())
	if st.KFork != nil {
		fmt.Printf(" %s=%v", st.KFork.Property, st.KFork.OK)
	}
	fmt.Printf("  (%d ops checked, %d live witnesses, %d records retained)\n",
		st.MonitorStats.Ops, st.LiveWitnesses, st.MonitorStats.Retained)
	return true
}

// classifyOne runs and classifies a single registered system across the
// requested seeds.
func classifyOne(name string, base uint64, seeds int) {
	if seeds < 1 {
		seeds = 1
	}
	fmt.Printf("%-12s %-10s %-10s %-7s %-6s %-6s %-10s %s\n",
		"System", "Θ paper", "Θ meas.", "forkMax", "SC", "EC", "paper", "match")
	fails := 0
	for s := 0; s < seeds; s++ {
		row, err := experiments.ClassifyOne(name, base+uint64(s))
		if err != nil {
			fmt.Fprintln(os.Stderr, "classify:", err)
			os.Exit(2)
		}
		fmt.Printf("%-12s %-10s %-10s %-7d %-6v %-6v %-10s %v\n",
			row.System, row.OracleClaim, row.OracleMeasured, row.ForkMax,
			row.SCHolds, row.ECHolds, row.PaperCriterion, row.Match)
		if !row.Match {
			fails++
		}
	}
	if fails > 0 {
		fmt.Printf("%d/%d seed(s) did not reproduce the paper's row\n", fails, seeds)
		os.Exit(1)
	}
}

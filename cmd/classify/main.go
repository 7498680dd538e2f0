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
// withhold, equivocate), which only -stream takes, makes witnesses
// actually appear.
package main

import (
	"flag"
	"fmt"
	"os"

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

	if *adv != "" && !*stream {
		fmt.Fprintln(os.Stderr, "classify: -adversary applies to -stream runs only")
		os.Exit(2)
	}

	if *stream {
		names := btsim.Names()
		if *system != "" {
			names = []string{*system}
		}
		for _, name := range names {
			classifyStream(name, *seed, *adv)
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
		failed := false
		for _, row := range rows(*seed + uint64(s)) {
			if s == 0 {
				order = append(order, row.System)
			}
			if row.Match {
				matches[row.System]++
			} else {
				failed = true
			}
		}
		if failed {
			fails++
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

// rows classifies the named registered systems (every one when none is
// named) at one seed; an error ends the command.
func rows(seed uint64, names ...string) []experiments.Row {
	rows, err := experiments.Rows(seed, names...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "classify:", err)
		os.Exit(2)
	}
	return rows
}

// classifyStream runs one system, printing each violation witness of its
// online monitor the moment it forms and the finalized verdicts
// afterwards.
func classifyStream(name string, seed uint64, adv string) {
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
}

// classifyOne runs and classifies a single registered system across the
// requested seeds.
func classifyOne(name string, base uint64, seeds int) {
	if seeds < 1 {
		seeds = 1
	}
	fmt.Println(experiments.RowHeader)
	fails := 0
	for s := 0; s < seeds; s++ {
		row := rows(base+uint64(s), name)[0]
		fmt.Println(row)
		if !row.Match {
			fails++
		}
	}
	if fails > 0 {
		fmt.Printf("%d/%d seed(s) did not reproduce the paper's row\n", fails, seeds)
		os.Exit(1)
	}
}

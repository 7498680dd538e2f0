// Command scenarios runs the curated adversarial scenario catalogue
// (internal/scenario) and emits the violation matrix: one row per
// (system, adversary, fault schedule) with the measured SC/EC/k-fork
// verdicts and the first counterexample witness of every violated
// property. The matrix is the two-sided evidence for the paper's
// hierarchy: benign baselines hold, and each predicted-breakable
// criterion is broken by a concrete measured execution.
//
// Scenario dispatch goes through the public btsim registry, so every
// registered system is scenario-able; -list shows both the catalogue
// and the registry.
//
// Usage:
//
//	scenarios [-list] [-only substr] [-seed N] [-sweep K] [-workers W] [-v] [-check] [-json]
//	          [-long full|smoke] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	          [-mutexprofile mutex.pprof] [-blockprofile block.pprof]
//
// -list prints the catalogue and the registered systems; -seed
// overrides every pinned seed; -sweep K re-runs each scenario at K
// consecutive seeds (parallel) and reports how often each property
// broke; -check exits non-zero when a scenario fails to measure a
// violation the paper predicts (CI smoke); -json emits the matrix as
// machine-readable JSON (one object per run, with per-property
// verdicts and witnesses) instead of the rendered tables; -long runs the
// streaming-only ≥1M-op scenario ("smoke" is the scaled CI variant);
// -cpuprofile/-memprofile write pprof profiles of the whole invocation
// (see SCALING.md's profiling workflow); -mutexprofile/-blockprofile
// record every lock contention and every blocking event of it and write
// them out at exit. A profile that cannot be written makes the exit code
// at least 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/btsim"
	"repro/internal/consistency"
	"repro/internal/profile"
	"repro/internal/scenario"
)

func main() {
	list := flag.Bool("list", false, "list the catalogue and the registered systems, then exit")
	only := flag.String("only", "", "run only scenarios whose name contains this substring")
	seed := flag.Uint64("seed", 0, "override the pinned per-scenario seeds (0 keeps them)")
	sweep := flag.Int("sweep", 0, "additionally sweep each scenario across K consecutive seeds")
	workers := flag.Int("workers", 4, "parallel runs during -sweep")
	verbose := flag.Bool("v", false, "print every witness and the fault-event log")
	check := flag.Bool("check", false, "exit 1 if a predicted violation goes unmeasured")
	jsonOut := flag.Bool("json", false, "emit the violation matrix as JSON instead of the rendered tables")
	long := flag.String("long", "", `run the streaming-only long-run scenario: "full" (≥1M ops) or "smoke" (CI scale)`)
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the invocation to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (at exit) to this file")
	mutexprofile := flag.String("mutexprofile", "", "write a profile of every lock contention (at exit) to this file")
	blockprofile := flag.String("blockprofile", "", "write a profile of every blocking event (at exit) to this file")
	flag.Parse()

	stopProfiles, err := profile.Start(*cpuprofile, *memprofile, *mutexprofile, *blockprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scenarios:", err)
		os.Exit(2)
	}
	var code int
	switch {
	case *list:
		printList()
	case *long != "":
		code = runLong(*long)
	default:
		code = runCatalogue(*only, *seed, *sweep, *workers, *verbose, *check, *jsonOut)
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "scenarios:", err)
		code = max(code, 1)
	}
	os.Exit(code)
}

// runCatalogue runs the catalogue entries the flags select, prints the
// matrix (or its JSON) and the sweep, and returns the exit code.
func runCatalogue(only string, seed uint64, sweep, workers int, verbose, check, jsonOut bool) int {
	var outs []*scenario.Outcome
	failed := false
	for _, spec := range scenario.Catalogue() {
		if only != "" && !strings.Contains(spec.Name, only) {
			continue
		}
		o, err := spec.Run(seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scenarios:", err)
			return 2
		}
		outs = append(outs, o)
		if missing := o.MissingExpected(); len(missing) > 0 {
			failed = true
			fmt.Fprintf(os.Stderr, "scenarios: %s did not measure predicted violation(s) %v\n", spec.Name, missing)
		}
	}
	if len(outs) == 0 {
		fmt.Fprintln(os.Stderr, "scenarios: no scenario matched")
		return 2
	}

	if jsonOut {
		if err := writeJSON(os.Stdout, outs); err != nil {
			fmt.Fprintln(os.Stderr, "scenarios:", err)
			return 2
		}
		if check && failed {
			return 1
		}
		return 0
	}

	fmt.Print(scenario.Matrix(outs))
	fmt.Println()
	for _, o := range outs {
		fmt.Printf("%-26s seed=%-6d digest=%s  %s\n", o.Spec.Name, o.Seed, o.Digest, o.Spec.Note)
	}

	if verbose {
		for _, o := range outs {
			if len(o.Violated) == 0 && len(o.Res.FaultEvents) == 0 {
				continue
			}
			fmt.Printf("\n=== %s ===\n", o.Spec.Name)
			for _, name := range o.Violated {
				if w, ok := o.Witnesses[name]; ok {
					fmt.Println("  witness:", w)
				}
			}
			if len(o.Res.FaultEvents) > 0 {
				fmt.Printf("  fault events (%d):\n", len(o.Res.FaultEvents))
				for i, e := range o.Res.FaultEvents {
					if i >= 20 {
						fmt.Printf("    … %d more\n", len(o.Res.FaultEvents)-i)
						break
					}
					fmt.Println("   ", e)
				}
			}
		}
	}

	if sweep > 0 {
		fmt.Printf("\nsweep (%d seeds each, %d workers):\n", sweep, workers)
		for _, o := range outs {
			seeds := make([]uint64, sweep)
			for i := range seeds {
				seeds[i] = o.Seed + uint64(i)
			}
			res, err := scenario.Sweep(o.Spec, seeds, workers)
			if err != nil {
				fmt.Fprintln(os.Stderr, "scenarios:", err)
				return 2
			}
			fmt.Printf("%-26s %s\n", o.Spec.Name, scenario.SweepSummary(res))
		}
	}

	if check && failed {
		return 1
	}
	return 0
}

// jsonOutcome is the machine-readable row of the violation matrix: one
// object per (system, adversary, fault schedule) run, with per-property
// verdicts under each criterion and the first witness of every violated
// property. The shape is stable for dashboards and CI diffing.
type jsonOutcome struct {
	Name         string            `json:"name"`
	System       string            `json:"system"`
	Adversary    string            `json:"adversary"`
	Seed         uint64            `json:"seed"`
	Digest       string            `json:"digest"`
	Note         string            `json:"note,omitempty"`
	ExpectBroken []string          `json:"expect_broken,omitempty"`
	SCOK         bool              `json:"sc_ok"`
	ECOK         bool              `json:"ec_ok"`
	Properties   []jsonProperty    `json:"properties"`
	KFork        *jsonProperty     `json:"k_fork,omitempty"`
	Violated     []string          `json:"violated,omitempty"`
	Missing      []string          `json:"missing_expected,omitempty"`
	Witnesses    map[string]string `json:"witnesses,omitempty"`
}

// jsonProperty is one property verdict with the criterion it was
// checked under and the number of atomic facts examined.
type jsonProperty struct {
	Criterion string `json:"criterion"`
	Property  string `json:"property"`
	OK        bool   `json:"ok"`
	Checked   int    `json:"checked"`
}

func writeJSON(w io.Writer, outs []*scenario.Outcome) error {
	rows := make([]jsonOutcome, 0, len(outs))
	for _, o := range outs {
		row := jsonOutcome{
			Name:         o.Spec.Name,
			System:       o.Spec.System,
			Adversary:    o.Res.AdversaryName,
			Seed:         o.Seed,
			Digest:       o.Digest,
			Note:         o.Spec.Note,
			ExpectBroken: o.Spec.ExpectBroken,
			SCOK:         o.SC.OK,
			ECOK:         o.EC.OK,
			Violated:     o.Violated,
			Missing:      o.MissingExpected(),
		}
		for _, pair := range []struct {
			crit    string
			reports []*consistency.Report
		}{{"SC", o.SC.Reports}, {"EC", o.EC.Reports}} {
			for _, rep := range pair.reports {
				row.Properties = append(row.Properties, jsonProperty{
					Criterion: pair.crit,
					Property:  rep.Property,
					OK:        rep.OK,
					Checked:   rep.Checked,
				})
			}
		}
		if o.KFork != nil {
			row.KFork = &jsonProperty{
				Criterion: "k-fork",
				Property:  o.KFork.Property,
				OK:        o.KFork.OK,
				Checked:   o.KFork.Checked,
			}
		}
		if len(o.Witnesses) > 0 {
			row.Witnesses = make(map[string]string, len(o.Witnesses))
			for prop, wit := range o.Witnesses {
				row.Witnesses[prop] = wit.Detail
			}
		}
		rows = append(rows, row)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// runLong executes the streaming-only long-run scenario — the ≥1M-op
// execution whose history could not be retained for a replay — prints
// its bounded-memory evidence and returns the exit code.
func runLong(mode string) int {
	var spec scenario.Spec
	switch mode {
	case "full":
		spec = scenario.DefaultLongRun()
	case "smoke":
		spec = scenario.SmokeLongRun()
	default:
		fmt.Fprintf(os.Stderr, "scenarios: unknown -long mode %q (known: full, smoke)\n", mode)
		return 2
	}
	// The peak of the live heap, sampled every 256 rounds and once more
	// at the end, is the run's memory high-water mark (ablation #10).
	var peak uint64
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		peak = max(peak, ms.HeapAlloc)
	}
	spec.Observer = func(p btsim.Progress) bool {
		if p.Round%256 == 0 {
			sample()
		}
		return true
	}
	o, err := spec.Run(0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scenarios:", err)
		return 2
	}
	sample()
	verdict := "all properties hold"
	if len(o.Violated) > 0 {
		verdict = fmt.Sprintf("violated: %v", o.Violated)
	}
	st := o.Res.Stream
	fmt.Printf("%s: %d ops in %d segments, peak heap %.1f MB, %d records retained — %s\n",
		spec.Name, st.MonitorStats.Ops, st.Segments, float64(peak)/1e6, st.MonitorStats.Retained, verdict)
	fmt.Printf("  SC: %v  EC: %v\n", o.SC.OK, o.EC.OK)
	if len(o.Violated) > 0 {
		return 1
	}
	return 0
}

// printList renders the catalogue and the btsim registry: what can run,
// and what it runs on.
func printList() {
	fmt.Println("registered systems (btsim registry — any name is scenario-able):")
	for _, sys := range btsim.Systems() {
		info := sys.Info()
		fmt.Printf("  %-11s §%-4s %-16s %-10s %s\n",
			info.Name, info.Section, info.Oracle, info.Criterion, info.Synopsis)
	}
	fmt.Println("\ncurated catalogue:")
	for _, s := range scenario.Catalogue() {
		expect := "baseline"
		if len(s.ExpectBroken) > 0 {
			expect = "breaks " + strings.Join(s.ExpectBroken, ",")
		}
		fmt.Printf("  %-26s %-11s %-34s %s\n", s.Name, s.System, expect, s.Note)
	}
}

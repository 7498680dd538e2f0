// Command benchmark is the repository's ruler: five named workloads,
// five end-to-end metrics with regression bounds, and a separate traced
// pass that splits a run across the layers. See README.md.
//
//	bash benchmark/run.sh                      # every workload, then the traced pass
//	bash benchmark/run.sh --workload flood_n64 --seed 42 --seconds 15 --trace 0
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print the result as one JSON line (default: all five, interleaved)")
		seed    = flag.Uint64("seed", 0, "workload seed (default: each workload's own, at which its outputs are pinned)")
		seconds = flag.Float64("seconds", 15, "measuring time per workload")
		trace   = flag.Int("trace", -1, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
		outDir  = flag.String("out", ".bench_build", "directory for result.json and trace.json")
		doCmp   = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		seedSet bool
	)
	flag.Parse()
	flag.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })

	if *doCmp {
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		a, err := readResult(flag.Arg(0))
		if err != nil {
			fatal("%v", err)
		}
		b, err := readResult(flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if !compare(os.Stdout, a, b) {
			os.Exit(1)
		}
		return
	}

	ws := workloads()
	budget := time.Duration(*seconds * float64(time.Second))
	pl := plan{setups: 3, plain: budget, traced: budget / 2, kernels: fullKernels, ref: fullReference}
	if *name != "" {
		ws = pick(ws, *name)
		if ws == nil {
			fatal("unknown workload %q", *name)
		}
		if *trace != 0 && *trace != 1 {
			fatal("-workload needs -trace 0 or -trace 1")
		}
		if *trace == 0 {
			pl.traced = 0
		} else {
			pl.setups, pl.plain, pl.traced = 1, 0, budget
		}
	}
	var seedArg *uint64
	if seedSet {
		seedArg = seed
	}

	tr := &tracer{}
	res := run(ws, seedArg, pl, tr)
	printResult(os.Stdout, res)
	if err := writeArtifacts(*outDir, res, tr); err != nil {
		fatal("%v", err)
	}
	for _, f := range res.Failures {
		fmt.Println("FAILED:", f)
	}
	if *name != "" {
		printContractLine(os.Stdout, res, *trace == 1)
	}
	if len(res.Failures) > 0 {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func pick(ws []workload, name string) []workload {
	for _, w := range ws {
		if w.name == name {
			return []workload{w}
		}
	}
	return nil
}

// printResult prints every metric by name with its unit, range and
// sample count.
func printResult(w io.Writer, res result) {
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d %s commit=%s\n", res.Env.NProc, res.Env.GOMAXPROCS, res.Env.GoVersion, res.Env.Commit)
	row := func(name string, s stat) {
		fmt.Fprintf(w, "  %-38s %14.4f %-5s  min %-12.4f max %-12.4f n=%d\n", name, s.Value, s.Unit, s.Min, s.Max, s.N)
	}
	for _, wr := range res.Workloads {
		fmt.Fprintf(w, "\n%s (seed %d): attempted %d, failed %d; host slowdown %.2f [%.2f - %.2f]\n",
			wr.Name, wr.Seed, wr.Attempted, wr.Failed, wr.Slowdown.Value, wr.Slowdown.Min, wr.Slowdown.Max)
		for _, d := range endToEnd {
			row(d.Name, wr.EndToEnd[d.Name])
		}
		if wr.PerLayer == nil {
			continue
		}
		fmt.Fprintln(w, "  -- traced pass --")
		for _, d := range perLayer {
			row(d.Name, wr.PerLayer[d.Name])
		}
	}
}

// printContractLine prints the single-workload result in the shape the
// benchmark driver reads from the last line of standard output.
func printContractLine(w io.Writer, res result, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	wr := res.Workloads[0]
	stats := wr.EndToEnd
	if traced {
		stats = wr.PerLayer
	}
	ms := map[string]value{}
	for name, s := range stats {
		ms[name] = value{s.Value, s.Unit}
	}
	line, _ := json.Marshal(map[string]any{ // plain maps of numbers and strings always marshal
		"correct":   len(res.Failures) == 0,
		"attempted": max(wr.Attempted, 1),
		"failed":    wr.Failed,
		"metrics":   ms,
	})
	fmt.Fprintln(w, string(line))
}

// writeArtifacts writes result.json (the input of -compare) and, after
// a traced pass, trace.json (Chrome trace-event JSON) into dir.
func writeArtifacts(dir string, res result, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), data, 0o644); err != nil {
		return err
	}
	if len(tr.spans) == 0 {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, tr.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

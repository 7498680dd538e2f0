// Command trace runs one registered system under the deterministic
// observability layer (btsim.WithMetrics + WithTrace) and renders the
// resulting virtual-time trace: raw Chrome trace-event JSON for
// Perfetto / chrome://tracing, JSON-lines for ad-hoc tooling, or an
// ASCII view with an event-density lane and the monitor-state timeline
// sampled from the metric series. Because the trace is sampled by
// scheduler sequence number against virtual time, re-running the same
// (system, seed, flags) reproduces the same output byte for byte.
//
// Usage:
//
//	trace [-system name] [-n N] [-rounds R] [-seed S]
//	      [-difficulty D] [-read-every E] [-drop nth,to]
//	      [-sample S] [-limit L] [-format chrome|jsonl] [-o file]
//	      [-lanes] [-check file]
//
// -drop nth,to loses exactly one message: the nth (0-based) addressed
// to replica to, or the nth overall when to < 0. Only bitcoin and
// ethereum take message loss; every other system runs lossless.
//
// -lanes renders the ASCII lane view instead of the raw trace; -check
// skips the run entirely and validates an existing Chrome trace-event
// JSON file (the CI trace-smoke step), exiting non-zero if it does not
// parse or is empty. A run whose output cannot be written exits 2.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/btsim"
	"repro/internal/trace"

	_ "repro/btsim/systems"
)

func main() {
	system := flag.String("system", "bitcoin", "registered system to run (see cmd/scenarios -list)")
	n := flag.Int("n", 8, "replica count")
	rounds := flag.Int("rounds", 150, "simulated rounds")
	seed := flag.Uint64("seed", 1, "deterministic seed")
	difficulty := flag.Float64("difficulty", 5, "PoW difficulty (PoW systems)")
	readEvery := flag.Int64("read-every", 15, "issue a read every this many virtual-time units")
	drop := flag.String("drop", "", `lose the nth message (0-based) addressed to a replica, as "nth,to" (bitcoin and ethereum only)`)
	sample := flag.Int64("sample", 1, "keep one in S common events (rare kinds always kept)")
	limit := flag.Int("limit", 0, "cap retained events (0 = library default)")
	format := flag.String("format", "chrome", `output format: "chrome" (Perfetto-loadable) or "jsonl"`)
	out := flag.String("o", "", "write the trace here instead of stdout")
	lanes := flag.Bool("lanes", false, "render the ASCII event lane and the monitor-state timeline instead of the raw trace")
	check := flag.String("check", "", "validate an existing Chrome trace-event JSON file and exit")
	flag.Parse()

	if *check != "" {
		os.Exit(runCheck(*check))
	}
	if *format != "chrome" && *format != "jsonl" {
		fatalf("unknown -format %q (known: chrome, jsonl)", *format)
	}

	opts := []btsim.Option{
		btsim.WithN(*n), btsim.WithRounds(*rounds), btsim.WithSeed(*seed),
		btsim.WithReadEvery(*readEvery), btsim.WithDifficulty(*difficulty),
		btsim.WithMetrics(),
	}
	if *drop != "" {
		var nth, to int
		if _, err := fmt.Sscanf(*drop, "%d,%d", &nth, &to); err != nil {
			fatalf("bad -drop %q (want \"nth,to\"): %v", *drop, err)
		}
		opts = append(opts, btsim.WithDropNth(nth, to))
	}

	// The run always traces into a buffer; -lanes needs the parseable
	// JSON-lines form, raw output honors -format.
	var buf bytes.Buffer
	topts := btsim.TraceOptions{SampleEvery: *sample, Limit: *limit, JSONL: *lanes || *format == "jsonl"}
	opts = append(opts, btsim.WithTrace(&buf, topts))

	res, err := btsim.Run(*system, opts...)
	if err != nil {
		fatalf("%v", err)
	}
	if dropped := res.Metrics.Summary()["timing:trace.dropped"]; dropped > 0 {
		fmt.Fprintf(os.Stderr, "trace: %d events past the limit were dropped (raise -limit or -sample)\n", dropped)
	}

	w := io.Writer(os.Stdout)
	var f *os.File
	if *out != "" {
		if f, err = os.Create(*out); err != nil {
			fatalf("%v", err)
		}
		w = f
	}
	err = emit(w, res, buf.Bytes(), *lanes)
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fatalf("%v", err)
	}
}

// emit writes the run's output to w in one Write: the raw trace as
// recorded or, with lanes, the ASCII view rendered from it.
func emit(w io.Writer, res *btsim.Result, raw []byte, lanes bool) error {
	if lanes {
		events, err := trace.ParseJSONL(bytes.NewReader(raw))
		if err != nil {
			return fmt.Errorf("parsing own trace: %w", err)
		}
		var view bytes.Buffer
		renderLanes(&view, res, events)
		raw = view.Bytes()
	}
	_, err := w.Write(raw)
	return err
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "trace: "+format+"\n", args...)
	os.Exit(2)
}

// laneWidth is the number of virtual-time buckets in the ASCII view.
const laneWidth = 64

// density maps a per-bucket count (scaled against the busiest bucket)
// to a glyph; index 0 is "empty".
var density = []byte(" .:-=+*#%@")

// glyph is v's density glyph on a lane whose busiest bucket holds peak.
func glyph(v, peak int64) byte {
	if v <= 0 {
		return density[0]
	}
	return density[1+v*int64(len(density)-2)/peak]
}

// renderLanes prints the ASCII trace view: the scheduler lane (bucketed
// event density over virtual time), a marker lane for the rare kinds,
// and the monitor-state timeline from the sampled metric series, into a
// buffer (emit writes it out).
func renderLanes(w *bytes.Buffer, res *btsim.Result, events []trace.Event) {
	if len(events) == 0 {
		fmt.Fprintln(w, "trace: no events retained")
		return
	}
	vtMax := int64(1)
	for _, ev := range events {
		if ev.VT > vtMax {
			vtMax = ev.VT
		}
	}
	bucket := func(vt int64) int {
		b := int(vt * laneWidth / (vtMax + 1))
		if b >= laneWidth {
			b = laneWidth - 1
		}
		return b
	}

	counts := make([]int64, laneWidth)
	kinds := map[trace.Kind]int{}
	for _, ev := range events {
		counts[bucket(ev.VT)]++
		kinds[ev.Kind]++
	}
	peak := int64(1)
	for _, c := range counts {
		peak = max(peak, c)
	}
	lane := make([]byte, laneWidth)
	for i, c := range counts {
		lane[i] = glyph(c, peak)
	}
	fmt.Fprintf(w, "virtual time 0..%d across %d columns (each column ≈ %d vt units)\n\n",
		vtMax, laneWidth, (vtMax+laneWidth)/laneWidth)
	fmt.Fprintf(w, "%-13s |%s| peak %d/col\n", "scheduler", lane, peak)

	// Rare-event marker lane: one glyph per kind, last writer wins
	// within a bucket.
	marks := map[trace.Kind]byte{
		trace.KFault: 'F', trace.KCrash: 'C', trace.KRestart: 'R', trace.KWitness: 'W',
	}
	lane = bytes.Repeat([]byte{' '}, laneWidth)
	any := false
	for _, ev := range events {
		if g, ok := marks[ev.Kind]; ok {
			lane[bucket(ev.VT)] = g
			any = true
		}
	}
	if any {
		fmt.Fprintf(w, "%-13s |%s| F=fault C=crash R=restart W=witness\n", "events", lane)
	}

	// Monitor-state timeline and scheduler queue depth from the
	// snapshot's sampled series.
	if res.Metrics != nil {
		for _, col := range []string{"mon.retained", "mon.witnesses", "sim.queue"} {
			renderSeriesLane(w, res, col, vtMax, bucket)
		}
	}

	fmt.Fprintln(w)
	var names []string
	for k := range kinds {
		names = append(names, k.String())
	}
	sort.Strings(names)
	for _, name := range names {
		k, _ := trace.KindFromString(name)
		fmt.Fprintf(w, "%-8s %6d\n", name, kinds[k])
	}
	fmt.Fprintf(w, "%-8s %6d   digest %s  metrics %s\n", "total", len(events), res.Digest(), res.Metrics.Digest())
}

// renderSeriesLane prints one metric column as a density lane, scaled
// against its own peak. Missing columns are silently skipped.
func renderSeriesLane(w *bytes.Buffer, res *btsim.Result, col string, vtMax int64, bucket func(int64) int) {
	idx := -1
	for i, c := range res.Metrics.Series.Cols {
		if c == col {
			idx = i
		}
	}
	if idx < 0 {
		return
	}
	vals := make([]int64, laneWidth)
	seen := make([]bool, laneWidth)
	var peak int64 = 1
	for _, row := range res.Metrics.Series.Rows {
		b := bucket(row.VT)
		v := row.Vals[idx]
		if !seen[b] || v > vals[b] {
			vals[b] = v
			seen[b] = true
		}
		if v > peak {
			peak = v
		}
	}
	lane := make([]byte, laneWidth)
	last := int64(0)
	for i := range lane {
		v := last
		if seen[i] {
			v = vals[i]
			last = v
		}
		lane[i] = glyph(v, peak)
	}
	fmt.Fprintf(w, "%-13s |%s| peak %d\n", col, lane, peak)
}

// runCheck validates a Chrome trace-event JSON file: it must parse,
// contain at least one event, and carry the metadata + duration phases
// the exporter always writes. Used by the CI trace-smoke step.
func runCheck(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		return 2
	}
	var f struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		fmt.Fprintf(os.Stderr, "trace: %s does not parse as Chrome trace-event JSON: %v\n", path, err)
		return 1
	}
	if len(f.TraceEvents) == 0 {
		fmt.Fprintf(os.Stderr, "trace: %s has no traceEvents\n", path)
		return 1
	}
	phases := map[string]int{}
	faults := 0
	for _, ev := range f.TraceEvents {
		phases[ev.Ph]++
		if strings.HasPrefix(ev.Name, "fault") {
			faults++
		}
	}
	var keys []string
	for ph := range phases {
		keys = append(keys, ph)
	}
	sort.Strings(keys)
	fmt.Printf("%s: %d events ok —", path, len(f.TraceEvents))
	for _, ph := range keys {
		fmt.Printf(" ph=%s:%d", ph, phases[ph])
	}
	if faults > 0 {
		fmt.Printf(" faults:%d", faults)
	}
	fmt.Println()
	if phases["M"] == 0 || phases["X"] == 0 {
		fmt.Fprintf(os.Stderr, "trace: %s is missing expected phases (need M metadata and X durations)\n", path)
		return 1
	}
	return 0
}

// Command live deploys a registered system as a real concurrent
// deployment — N transport nodes, each hosting one replica process on
// wall-clock timers, exchanging messages over an in-process ("chan") or
// loopback-TCP ("tcp") carrier — and drives timed client load against
// it with the online consistency monitor attached. Violation witnesses
// stream to stdout as the monitor forms them; the run ends with a
// throughput/latency summary and the finalized SC/EC verdicts.
//
// This is the deployment-side counterpart of cmd/scenarios: the same
// oracle, selector and validity predicate a system registers for
// simulation, re-hosted on real goroutines and real sockets, checked by
// the same streaming monitor. A benign run must hold every BT-ADT
// property; -check turns that into an exit code for CI.
//
// Usage:
//
//	live [-transport chan|tcp] [-system bitcoin] [-n 4] [-duration 2s | -appends N]
//	     [-clients 2] [-rate R] [-spray] [-k K] [-seed S]
//	     [-crash NODE] [-durable] [-crash-after D] [-downtime D]
//	     [-check] [-v] [-cpuprofile cpu.pprof] [-mutexprofile mutex.pprof]
//
// -crash schedules one crash of the given node during the load phase —
// btsim.WithCrashes, the option a simulated run takes, with -crash-after
// and -downtime rounded down to its live unit, the 12.5 ms replica tick;
// -durable (btsim.WithDurability) restarts the node from a snapshot,
// otherwise from genesis, and the summary reports the anti-entropy
// rejoin counters. -check exits non-zero on any violated property (bar
// Local Monotonic Read after an amnesia restart, which the paper
// predicts), a non-convergent deployment, a monitor failure, or a leaked
// goroutine after teardown. -cpuprofile and -mutexprofile profile the
// run itself (the load phase, the settle and the final check), the
// latter recording every lock contention; a profile that cannot be
// written exits 1 after the summary.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/btsim"
	_ "repro/btsim/systems"
	"repro/internal/consistency"
	"repro/internal/profile"
	"repro/internal/transport"
)

func main() {
	carrier := flag.String("transport", "chan", `carrier: "chan" (in-process) or "tcp" (loopback sockets)`)
	system := flag.String("system", "bitcoin", "registered system to deploy")
	n := flag.Int("n", 4, "node count")
	duration := flag.Duration("duration", 0, "load phase wall-time bound (default 2s when -appends is unset)")
	appends := flag.Int64("appends", 0, "load phase granted-append bound (0 = duration-bounded)")
	clients := flag.Int("clients", 2, "concurrent load-generator clients")
	rate := flag.Float64("rate", 0, "per-client target appends/sec (0 = closed loop)")
	spray := flag.Bool("spray", false, "round-robin appends across nodes instead of the single-writer default")
	k := flag.Int("k", 0, "also report k-Fork Coherence at this k (0 = off)")
	seed := flag.Uint64("seed", 1, "oracle seed")
	crash := flag.Int("crash", -1, "crash this node during the load (-1 = no crash)")
	durable := flag.Bool("durable", false, "restart the crashed node from a snapshot instead of amnesia")
	crashAfter := flag.Duration("crash-after", 200*time.Millisecond, "delay from load start to the crash")
	downtime := flag.Duration("downtime", 300*time.Millisecond, "crash window length")
	check := flag.Bool("check", false, "exit non-zero on violation, non-convergence, monitor error, or goroutine leak")
	verbose := flag.Bool("v", false, "print full verdicts and the metrics summary")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	mutexprofile := flag.String("mutexprofile", "", "write a profile of every lock contention in the run to this file")
	flag.Parse()

	if *duration == 0 && *appends == 0 {
		*duration = 2 * time.Second
	}

	opts := []btsim.Option{
		btsim.WithN(*n),
		btsim.WithSeed(*seed),
		btsim.WithLive(*carrier),
		btsim.WithLoad(btsim.Load{
			Clients: *clients, Rate: *rate,
			Duration: *duration, Appends: *appends, Spray: *spray,
		}),
		btsim.WithMonitor(func(w consistency.Witness) {
			fmt.Println("WITNESS", w)
		}),
	}
	if *k > 0 {
		opts = append(opts, btsim.WithMonitorK(*k))
	}
	if *crash >= 0 {
		start := int64(*crashAfter / transport.Tick)
		opts = append(opts,
			btsim.WithCrashes(btsim.Crash{Proc: *crash, Start: start, End: start + int64(*downtime/transport.Tick)}),
			btsim.WithDurability(*durable))
	}

	// Goroutine-leak baseline: everything the deployment spawns (node
	// loops, TCP accept/read/write loops, the monitor consumer, load
	// clients) must be gone after teardown.
	stopProfiles, err := profile.Start(*cpuprofile, "", *mutexprofile, "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "live:", err)
		os.Exit(1)
	}
	base := runtime.NumGoroutine()

	res, err := btsim.Run(*system, opts...)
	profErr := stopProfiles()
	if profErr != nil {
		fmt.Fprintln(os.Stderr, "live:", profErr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "live:", err)
		os.Exit(1)
	}
	lr := res.Live

	fmt.Printf("%s over %s  n=%d  clients=%d  seed=%d\n",
		lr.System, lr.Transport, lr.N, *clients, *seed)
	fmt.Printf("load    %s elapsed, %s settle, converged=%v\n",
		lr.Elapsed.Round(time.Millisecond), lr.Settle.Round(time.Millisecond), lr.Converged)
	fmt.Printf("appends %d granted / %d attempts  (%.0f/s sustained)\n",
		lr.AppendsOK, lr.Attempts, lr.AppendsPerSec)
	fmt.Printf("reads   %d  (%.0f/s)\n", lr.Reads, lr.ReadsPerSec)
	fmt.Printf("latency append p50=%dµs p99=%dµs   read p50=%dµs p99=%dµs\n",
		lr.AppendLatUS.Quantile(0.5), lr.AppendLatUS.Quantile(0.99),
		lr.ReadLatUS.Quantile(0.5), lr.ReadLatUS.Quantile(0.99))
	fmt.Printf("carrier %d sent / %d delivered", lr.Sent, lr.Delivered)
	if lr.DroppedDown > 0 {
		fmt.Printf("  (%d dropped at crashed nodes)", lr.DroppedDown)
	}
	fmt.Println()
	ms := lr.MonitorStats
	fmt.Printf("monitor %d ops consumed (%d reads, %d appends), %d retained, %d live witnesses\n",
		ms.Ops, ms.Reads, ms.Appends, ms.Retained, lr.LiveWitnesses)
	if rs := lr.Recovery; rs != nil {
		mode := "amnesia"
		if rs.DurableRestores > 0 {
			mode = "durable"
		}
		fmt.Printf("recovery %d crash / %d restart (%s), %d solicits (%d retries), %d blocks resynced\n",
			rs.Crashes, rs.Restarts, mode, rs.Solicits, rs.Retries, rs.ResyncBlocks)
	}

	violated := lr.Violated()
	fmt.Printf("SC %s   EC %s", verdictMark(lr.SC.OK), verdictMark(lr.EC.OK))
	if lr.KFork != nil {
		fmt.Printf("   %s %s", lr.KFork.Property, verdictMark(lr.KFork.OK))
	}
	fmt.Println()
	if len(violated) > 0 {
		fmt.Println("violated:", violated)
	}

	if *verbose {
		fmt.Println()
		fmt.Println(lr.SC)
		fmt.Println(lr.EC)
		if lr.Metrics != nil {
			fmt.Println("metrics:")
			for k, v := range lr.Metrics.Summary() {
				fmt.Printf("  %-32s %d\n", k, v)
			}
		}
	}

	leaked := leakCheck(base)
	if leaked > 0 {
		fmt.Fprintf(os.Stderr, "live: %d goroutine(s) leaked after teardown\n", leaked)
	}

	if *check {
		// An amnesia restart is allowed the one break the paper predicts
		// for it (the catalogue pins it on bitcoin/crash-amnesia): a read
		// that lands on the restarted node before it has resynchronized
		// jumps backwards.
		if *crash >= 0 && !*durable {
			violated = slices.DeleteFunc(violated, func(p string) bool { return p == "LocalMonotonicRead" })
		}
		bad := len(violated) > 0 || !lr.Converged || leaked > 0
		if lr.AppendsOK == 0 {
			fmt.Fprintln(os.Stderr, "live: no appends granted")
			bad = true
		}
		if bad {
			os.Exit(1)
		}
	}
	if profErr != nil {
		os.Exit(1)
	}
}

func verdictMark(ok bool) string {
	if ok {
		return "holds"
	}
	return "VIOLATED"
}

// leakCheck waits (with grace) for the goroutine count to return to the
// pre-run baseline; the scheduler needs a moment to reap loops that
// just had their queues closed.
func leakCheck(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		extra := runtime.NumGoroutine() - base
		if extra <= 0 || time.Now().After(deadline) {
			if extra < 0 {
				extra = 0
			}
			return extra
		}
		time.Sleep(20 * time.Millisecond)
	}
}

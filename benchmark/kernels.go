package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/oracle"
	"repro/internal/protocols"
	"repro/internal/protocols/fabric"
	"repro/internal/replica"
	"repro/internal/simnet"
	"repro/internal/tape"
	"repro/internal/transport"
)

// kernelSizes fixes the inputs of the isolated kernels. Each kernel
// calls one layer alone on a fixed input, so its number moves only when
// that layer does.
type kernelSizes struct {
	reps         int    // repetitions per kernel; the minimum is reported
	flood        simCfg // the run whose tree and history feed core/consistency
	floodSeed    uint64
	procs        int // simnet flood: processes
	broadcasts   int // simnet flood: broadcasts, one per tick
	chain        int // fork-free chain length for SingleChain / ReadHead
	commEvents   int // RecordComm calls
	reads        int // ReadHead calls
	fabric       fabricCfg
	fabricSeed   uint64
	tokens       int // GetToken+ConsumeToken calls
	frames       int // codec round trips
	carrierSends int // Send 0→1 per carrier
}

var fullKernels = kernelSizes{
	reps: 5, flood: simCfg{n: 64, blocks: 5000}, floodSeed: 42,
	procs: 64, broadcasts: 5000, chain: 3000, commEvents: 645000, reads: 200000,
	fabric: fabricCfg{n: 48, rounds: 1000}, fabricSeed: 2026,
	tokens: 20000, frames: 100000, carrierSends: 100000,
}

// minOver runs fn reps times and returns the fastest; a kernel has no
// queueing or contention to characterise, so the minimum is its least
// disturbed reading.
func minOver(reps int, fn func() time.Duration) time.Duration {
	best := fn()
	for i := 1; i < reps; i++ {
		best = min(best, fn())
	}
	return best
}

func perCall(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(max(n, 1)) }

// runKernels returns every kernel metric by name.
func runKernels(sz kernelSizes) (map[string]float64, error) {
	out := map[string]float64{}
	simnetKernels(sz, out)
	if err := coreAndCheckerKernels(sz, out); err != nil {
		return nil, err
	}
	historyKernels(sz, out)
	if err := monitorKernel(sz, out); err != nil {
		return nil, err
	}
	oracleKernel(sz, out)
	if err := transportKernels(sz, out); err != nil {
		return nil, err
	}
	return out, nil
}

// simnetKernels floods broadcasts through no-op handlers: the scheduler
// and network alone, serial and on two shards.
func simnetKernels(sz kernelSizes, out map[string]float64) {
	events := sz.broadcasts * sz.procs
	flood := func(shards int) (time.Duration, uint64) {
		sim := simnet.NewSim(1)
		nw := simnet.NewNetwork(sim, sz.procs, simnet.Synchronous{Delta: 3})
		for p := 0; p < sz.procs; p++ {
			nw.AddShardSafeHandler(p, func(simnet.Message) {})
		}
		if shards > 1 {
			nw.EnableSharding(shards)
		}
		for i := 0; i < sz.broadcasts; i++ {
			sim.Schedule(int64(i+1), func() { nw.Broadcast(i%sz.procs, i) })
		}
		a0, t0 := readUint(heapObjsMetric), now()
		sim.RunUntilIdle()
		return now() - t0, readUint(heapObjsMetric) - a0
	}
	var allocs uint64
	serial := minOver(sz.reps, func() time.Duration {
		d, a := flood(1)
		allocs = a
		return d
	})
	out["simnet.flood_ns_per_event"] = perCall(serial, events)
	out["simnet.flood_allocs_per_event"] = float64(allocs) / float64(events)
	sharded := minOver(sz.reps, func() time.Duration { d, _ := flood(2); return d })
	out["simnet.flood_s2_ns_per_event"] = perCall(sharded, events)
}

// coreAndCheckerKernels replays the flood run's tree through the core
// operations and its history through the batch checker.
func coreAndCheckerKernels(sz kernelSizes, out map[string]float64) error {
	g := sz.flood.simulate(sz.floodSeed, nil, nil, core.WellFormed{}, nil)
	tree := g.Procs[0].Tree()
	blocks := tree.Blocks()[1:] // (height, ID) order: parents first; genesis is in every tree
	if len(blocks) != sz.flood.blocks {
		return fmt.Errorf("kernel fixture: %d blocks at replica 0, want %d", len(blocks), sz.flood.blocks)
	}

	attach := minOver(sz.reps, func() time.Duration {
		t := core.NewTree()
		t0 := now()
		for _, b := range blocks {
			if err := t.Attach(b); err != nil {
				panic(err) // a tree's own blocks re-attach in height order
			}
		}
		return now() - t0
	})
	out["core.attach_ns_per_block"] = perCall(attach, len(blocks))

	selectKernel := func(f core.HeadSelector, t *core.Tree, calls int) float64 {
		return perCall(minOver(sz.reps, func() time.Duration {
			t0 := now()
			for i := 0; i < calls; i++ {
				if f.SelectHead(t) == nil {
					panic("nil head")
				}
			}
			return now() - t0
		}), calls)
	}
	out["core.select_longest_ns_per_call"] = selectKernel(core.LongestChain{}, tree, 1000)
	out["core.select_ghost_ns_per_call"] = selectKernel(core.GHOST{}, tree, 200)
	single := core.NewTree()
	for _, b := range linearChain(sz.chain)[1:] {
		if err := single.Attach(b); err != nil {
			return fmt.Errorf("kernel fixture: %w", err)
		}
	}
	out["core.select_single_ns_per_call"] = selectKernel(core.SingleChain{}, single, 2000)

	chk := consistency.NewChecker(core.LengthScore{}, core.WellFormed{})
	var nops int
	classify := minOver(sz.reps, func() time.Duration {
		h := g.History() // a fresh snapshot: History memoizes its indices on first use
		nops = len(h.Ops)
		t0 := now()
		chk.Classify(h)
		return now() - t0
	})
	out["consistency.classify_ns_per_op"] = perCall(classify, nops)
	return nil
}

// linearChain builds a fork-free chain of n blocks after genesis.
func linearChain(n int) core.Chain {
	c := core.GenesisChain()
	for i := 1; i <= n; i++ {
		h := c.Head()
		c = c.Append(core.NewBlock(h.ID, h.Height+1, 0, i, []byte{byte(i), byte(i >> 8)}))
	}
	return c
}

// historyKernels drives the recorder alone: the comm log, interned
// reads, and the snapshot that copies both out.
func historyKernels(sz kernelSizes, out map[string]float64) {
	chain := linearChain(sz.chain)
	clock := func() int64 { return 0 }
	var bytes uint64
	var snapshot time.Duration
	comm := minOver(sz.reps, func() time.Duration {
		rec := history.NewRecorder(64, clock)
		a0, t0 := readUint(heapAllocMetric), now()
		for i := 0; i < sz.commEvents; i++ {
			b := chain[1+i%sz.chain]
			rec.RecordComm(history.EvUpdate, i%64, b.Parent, b.ID)
		}
		d := now() - t0
		bytes = readUint(heapAllocMetric) - a0
		t0 = now()
		rec.Snapshot()
		if s := now() - t0; snapshot == 0 || s < snapshot {
			snapshot = s
		}
		return d
	})
	out["history.record_comm_ns_per_event"] = perCall(comm, sz.commEvents)
	out["history.record_comm_bytes_per_event"] = float64(bytes) / float64(sz.commEvents)
	out["history.snapshot_ns_per_event"] = perCall(snapshot, sz.commEvents)

	read := minOver(sz.reps, func() time.Duration {
		rec := history.NewRecorder(4, clock)
		for _, b := range chain {
			rec.InternBlock(b)
		}
		head := chain.Head()
		t0 := now()
		for i := 0; i < sz.reads; i++ {
			rec.ReadHead(i%4, head)
		}
		return now() - t0
	})
	out["history.record_read_ns_per_op"] = perCall(read, sz.reads)
}

// monitorKernel replays a retained fabric history through the online
// monitor: OpDone per operation, then Finalize.
func monitorKernel(sz kernelSizes, out map[string]float64) error {
	var rec *history.Recorder
	res := fabric.Run(fabric.Config{Config: protocols.Config{
		N: sz.fabric.n, Rounds: sz.fabric.rounds, Seed: sz.fabricSeed, ReadEvery: 1,
		Stream: func(r *history.Recorder, _ core.Score) { rec = r },
	}})
	h := res.History
	var bad bool
	replay := minOver(sz.reps, func() time.Duration {
		mon := consistency.NewMonitor(consistency.MonitorConfig{
			Procs: h.Procs, Score: core.LengthScore{}, P: core.WellFormed{}, Table: rec.Table(),
		})
		t0 := now()
		for _, op := range h.Ops {
			mon.OpDone(op)
		}
		sc, ec := mon.Finalize()
		d := now() - t0
		bad = bad || !sc.OK || !ec.OK
		return d
	})
	if bad {
		return fmt.Errorf("kernel fixture: the monitor rejects a benign fabric history")
	}
	out["consistency.monitor_ns_per_op"] = perCall(replay, len(h.Ops))
	return nil
}

// oracleKernel mints a chain through the frugal k=1 oracle: one
// GetToken and one ConsumeToken per block.
func oracleKernel(sz kernelSizes, out map[string]float64) {
	payload := protocols.CoinbasePayload(0, 0)
	d := minOver(sz.reps, func() time.Duration {
		orc := oracle.NewFrugal(1, func(tape.Merit) float64 { return 1 }, core.WellFormed{}, 7)
		parent := core.Genesis()
		t0 := now()
		for i := 0; i < sz.tokens; i++ {
			b, ok := orc.GetToken(1, parent, 0, i, payload)
			if !ok {
				panic("frugal oracle with merit 1 refused a token")
			}
			if _, consumed := orc.ConsumeToken(b); !consumed {
				panic("first token of a height was not consumed")
			}
			parent = b
		}
		return now() - t0
	})
	out["oracle.token_ns_per_call"] = perCall(d, sz.tokens)
}

// transportKernels times the frame codec on an update message and each
// carrier on a 0→1 stream, up to the last delivery.
func transportKernels(sz kernelSizes, out map[string]float64) error {
	parent := core.Genesis()
	blk := core.NewBlock(parent.ID, 1, 3, 7, protocols.CoinbasePayload(3, 7))
	msg := replica.UpdateMsg{Parent: parent.ID, Block: blk}
	frame, err := transport.AppendPayload(nil, msg)
	if err != nil {
		return fmt.Errorf("codec kernel: %w", err)
	}
	out["transport.codec_bytes_per_frame"] = float64(len(frame))
	buf := make([]byte, 0, len(frame))
	enc := minOver(sz.reps, func() time.Duration {
		t0 := now()
		for i := 0; i < sz.frames; i++ {
			buf, _ = transport.AppendPayload(buf[:0], msg) // encoded once above without error
		}
		return now() - t0
	})
	out["transport.codec_encode_ns_per_frame"] = perCall(enc, sz.frames)
	dec := minOver(sz.reps, func() time.Duration {
		t0 := now()
		for i := 0; i < sz.frames; i++ {
			if _, err := transport.DecodePayload(frame); err != nil {
				panic(err) // the frame was produced by AppendPayload
			}
		}
		return now() - t0
	})
	out["transport.codec_decode_ns_per_frame"] = perCall(dec, sz.frames)

	for _, carrier := range []string{"tcp", "chan"} {
		var failed error
		d := minOver(sz.reps, func() time.Duration {
			d, err := carrierStream(carrier, msg, sz.carrierSends)
			if err != nil {
				failed = err
			}
			return d
		})
		if failed != nil {
			return fmt.Errorf("%s carrier kernel: %w", carrier, failed)
		}
		out["transport."+carrier+"_ns_per_msg"] = perCall(d, sz.carrierSends)
	}
	return nil
}

func carrierStream(carrier string, msg replica.UpdateMsg, sends int) (time.Duration, error) {
	tr, err := transport.New(carrier, transport.NewRoster(2, nil, nil))
	if err != nil {
		return 0, err
	}
	defer tr.Close()
	var wg sync.WaitGroup
	wg.Add(sends)
	if err := tr.Listen(0, func(transport.Message) {}); err != nil {
		return 0, err
	}
	if err := tr.Listen(1, func(transport.Message) { wg.Done() }); err != nil {
		return 0, err
	}
	for id := 0; id < 2; id++ {
		if err := tr.Dial(id); err != nil {
			return 0, err
		}
	}
	t0 := now()
	for i := 0; i < sends; i++ {
		if err := tr.Send(0, 1, msg); err != nil {
			return 0, err
		}
	}
	wg.Wait()
	return now() - t0, nil
}

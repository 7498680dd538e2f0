package simnet

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/trace"
)

// This file implements the sharded execution engine: the scheduler's
// event queue is partitioned by replica group, K worker goroutines
// process intra-shard deliveries of one virtual timestamp concurrently,
// and every order-sensitive side effect is staged and committed at a
// deterministic merge barrier — in exactly the order the serial
// scheduler would have produced it. The digest-pinned test suite is the
// specification: a run with shards=k must be byte-identical to the same
// run with shards=1 (SCALING.md states the full argument).
//
// The partitioning is deterministic (cf. the Bobpp deterministic
// task-partitioning approach): process p belongs to shard p·k/n, a
// fixed contiguous assignment independent of load or thread timing.
//
// Why correctness holds, in one paragraph: two deliveries at the same
// virtual timestamp addressed to different processes cannot observe
// each other — handler state is process-local by the shard-safety
// contract — so executing them concurrently is equivalent to executing
// them in (time, seq) order PROVIDED their shared side effects (message
// sends with their RNG delay draws and sequence assignments, fault-log
// appends, history recording) happen in (time, seq) order. The engine
// guarantees exactly that: during a parallel phase those effects are
// buffered per shard, tagged with the spawning event's globally unique
// sequence number, and replayed at the barrier in tag order through the
// very same code path the serial scheduler uses. Timers and deliveries
// to processes with order-sensitive handlers (plain AddHandler — the
// consensus engines) never enter a shard heap at all: they interleave
// serially between batches under the same (time, seq) rule.

// maxTime is the RunUntilIdle horizon.
const maxTime = math.MaxInt64

// stagedKind tags one deferred side effect.
type stagedKind uint8

const (
	// stSend replays a Network.Send at the barrier (the send's drop
	// decision, RNG delay draw, FIFO/schedule resolution and sequence
	// assignment all happen at commit time, in serial order).
	stSend stagedKind = iota
	// stNote appends a fault event to the network's fault log.
	stNote
)

// stagedItem is one deferred side effect, ordered by the sequence
// number of the delivery event whose handler produced it.
type stagedItem struct {
	tag      int64
	kind     stagedKind
	from, to int
	payload  any
	note     FaultEvent
}

// shardState is the per-shard staging area. During a parallel phase it
// is written by exactly one worker goroutine (the shard's), so no
// locking is needed; the coordinator reads it only after the barrier.
type shardState struct {
	// curTag is the sequence number of the delivery currently being
	// processed by this shard's worker. Network.ShardContext exposes it
	// so the history recorder can tag staged communication events.
	curTag int64
	items  []stagedItem
	pos    int // commit cursor
	// delivered/dropped accumulate this batch's counter increments
	// (summed into the network at the barrier; sums are order-free).
	delivered, dropped int
}

// engine is the sharded scheduler state, owned by one Sim + Network
// pair. It is created by Network.EnableSharding and drives Run /
// RunUntilIdle when installed.
type engine struct {
	sim *Sim
	nw  *Network
	k   int

	// heaps are the per-shard delivery queues; scratch holds the
	// current batch per shard (reused across batches).
	heaps   []queue
	scratch [][]event
	stages  []shardState

	// inParallel is true while worker goroutines run. It is written by
	// the coordinator strictly before starting workers and after
	// waiting for them, so reads from workers are race-free; it guards
	// Sim.Schedule and routes Send/NoteFault/RecordComm into staging.
	inParallel bool

	// onBarrier hooks run after every batch commit (the history
	// recorder flushes its staged communication events here).
	onBarrier []func()

	// batches counts parallel batches run; shardDelivered, when metrics
	// are attached, tallies staged deliveries per shard across the run
	// (both feed the snapshot's k-specific Sharding section, never the
	// digest-covered core).
	batches        int64
	shardDelivered []int64
}

// newEngine builds the engine for k shards over nw.
func newEngine(nw *Network, k int) *engine {
	return &engine{
		sim:     nw.sim,
		nw:      nw,
		k:       k,
		heaps:   make([]queue, k),
		scratch: make([][]event, k),
		stages:  make([]shardState, k),
	}
}

// nextTime returns the earliest queued timestamp across the global heap
// and every shard heap, and whether any event is queued at all.
func (eng *engine) nextTime() (int64, bool) {
	t := int64(maxTime)
	ok := false
	if eng.sim.pq.len() > 0 {
		t, ok = eng.sim.pq.keys[0].time, true
	}
	for i := range eng.heaps {
		if h := &eng.heaps[i]; h.len() > 0 && (!ok || h.keys[0].time < t) {
			t, ok = h.keys[0].time, true
		}
	}
	return t, ok
}

// run is the sharded main loop: advance timestamp by timestamp until
// the horizon, processing each timestamp's events in batches. bump
// mirrors Run's clock semantics (RunUntilIdle does not advance the
// clock past the last event).
func (eng *engine) run(until int64, bump bool) int {
	n := 0
	for {
		t, ok := eng.nextTime()
		if !ok || t > until {
			break
		}
		if eng.sim.metrics != nil {
			eng.sim.metrics.Tick(t)
		}
		// stepped advances per timestamp so the sim.steps probe reads
		// the same value at every sample boundary as the serial loop
		// (boundaries are always crossed between timestamps).
		k := eng.runTimestamp(t)
		eng.sim.stepped += k
		n += k
	}
	if bump && eng.sim.now < until {
		eng.sim.now = until
	}
	if eng.sim.metrics != nil && until != maxTime {
		eng.sim.metrics.Tick(until)
	}
	return n
}

// runTimestamp executes every event at virtual time t, preserving the
// serial (time, seq) execution order observably. Within the timestamp
// it alternates between parallel batches (shard-heap deliveries whose
// sequence numbers all precede the next global event) and single
// serial global events (timers, deliveries to order-sensitive
// handlers). Effects of an event — including delay-0 loopback sends
// landing back at time t — carry later sequence numbers and are picked
// up by a later iteration, exactly as the serial scheduler interleaves
// them.
func (eng *engine) runTimestamp(t int64) int {
	s := eng.sim
	s.now = t
	n := 0
	for {
		// gseq fences the batch: only shard deliveries ordered before
		// the next global event may run concurrently now.
		gseq := int64(math.MaxInt64)
		if s.pq.len() > 0 && s.pq.keys[0].time == t {
			gseq = s.pq.keys[0].seq
		}
		batch := 0
		for sh := range eng.heaps {
			eng.scratch[sh] = eng.scratch[sh][:0]
			h := &eng.heaps[sh]
			for h.len() > 0 && h.keys[0].time == t && h.keys[0].seq < gseq {
				eng.scratch[sh] = append(eng.scratch[sh], h.pop())
				batch++
			}
		}
		if batch > 0 {
			eng.runBatch()
			n += batch
			continue
		}
		if gseq != math.MaxInt64 {
			// No shard delivery precedes the global event: run it
			// serially with immediate effects (the shards=1 path).
			e := s.pq.pop()
			s.curSeq = e.seq
			if s.tracer != nil {
				s.traceExec(&e)
			}
			if e.kind == evDeliver {
				e.nw.deliver(e.msg)
			} else {
				e.fn()
			}
			n++
			continue
		}
		return n
	}
}

// runBatch processes the collected scratch batch: one worker per
// non-empty shard, each delivering its shard's events in sequence
// order with side effects staged, then a barrier committing every
// staged effect in global sequence order. A batch touching only one
// shard still runs on the staging path — the code path must not depend
// on how the batch happened to distribute, only on event order.
func (eng *engine) runBatch() {
	eng.batches++
	tr := eng.sim.tracer
	if tr != nil {
		tr.Emit(trace.Event{VT: eng.sim.now, Seq: eng.batches, Kind: trace.KEpoch, Shard: -1})
	}
	eng.inParallel = true
	var wg sync.WaitGroup
	var panicked any
	var panicMu sync.Mutex
	for sh := range eng.scratch {
		evs := eng.scratch[sh]
		if len(evs) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh int, evs []event) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
				}
			}()
			st := &eng.stages[sh]
			for i := range evs {
				st.curTag = evs[i].seq
				if tr != nil && tr.Sampled(trace.KDeliver, evs[i].seq) {
					tr.EmitStaged(sh, trace.Event{VT: evs[i].time, Seq: evs[i].seq, Kind: trace.KDeliver, Shard: sh, P: evs[i].msg.To})
				}
				eng.nw.deliverSharded(evs[i].msg, sh, st)
			}
		}(sh, evs)
	}
	// The merge-barrier stall — the coordinator blocked on the slowest
	// worker — is the sharded scheduler's headline overhead; measure it
	// only when someone is looking (wall time is non-deterministic and
	// stays out of the digest-covered sections).
	measure := eng.sim.metrics != nil || tr != nil
	var start time.Time
	if measure {
		start = time.Now()
	}
	wg.Wait()
	eng.inParallel = false
	if panicked != nil {
		panic(panicked)
	}
	if measure {
		stall := int64(time.Since(start))
		if eng.sim.metrics != nil {
			eng.sim.metrics.AddTiming("merge.stall.ns", stall)
		}
		if tr != nil {
			tr.Emit(trace.Event{VT: eng.sim.now, Seq: eng.batches, Kind: trace.KStall, Shard: -1, Wall: stall})
		}
	}
	eng.commit()
}

// commit replays the staged side effects of the finished batch in
// global order: a k-way merge of the per-shard item lists by tag
// (within one shard, items are already in tag-then-program order).
// Staged sends go through the real Send path here, so drop rules, RNG
// delay draws, FIFO bumps and sequence assignment all happen in the
// serial order — the sequence numbers a shards=1 run would assign are
// reproduced exactly, not merely equivalently.
func (eng *engine) commit() {
	for {
		best, bestTag := -1, int64(0)
		for sh := range eng.stages {
			st := &eng.stages[sh]
			if st.pos < len(st.items) {
				if tag := st.items[st.pos].tag; best < 0 || tag < bestTag {
					best, bestTag = sh, tag
				}
			}
		}
		if best < 0 {
			break
		}
		st := &eng.stages[best]
		it := &st.items[st.pos]
		st.pos++
		// Replayed effects execute under their spawning delivery's seq,
		// so fault trace events are stamped as a serial run would.
		eng.sim.curSeq = it.tag
		switch it.kind {
		case stSend:
			eng.nw.sendNow(it.from, it.to, it.payload)
		case stNote:
			eng.nw.faultLog = append(eng.nw.faultLog, it.note)
		}
	}
	for sh := range eng.stages {
		st := &eng.stages[sh]
		eng.nw.delivered += st.delivered
		eng.nw.dropped += st.dropped
		if eng.shardDelivered != nil {
			eng.shardDelivered[sh] += int64(st.delivered)
		}
		for i := range st.items {
			st.items[i] = stagedItem{} // release payload references
		}
		st.items = st.items[:0]
		st.pos, st.delivered, st.dropped = 0, 0, 0
	}
	if tr := eng.sim.tracer; tr != nil {
		tr.Commit()
	}
	for _, hook := range eng.onBarrier {
		hook()
	}
}

// shardOf maps a process to its owning shard: fixed contiguous ranges,
// so neighbouring replicas share a shard and the assignment is
// independent of scheduling.
func (eng *engine) shardOf(p int) int {
	return p * eng.k / eng.nw.n
}

// EnableSharding partitions this network's deliveries across k shards
// processed by worker goroutines (k ≤ 1 is a no-op: the serial
// scheduler). It must be called on at most one network per Sim, after
// the network's handlers are registered and before the run starts.
// Deliveries to processes that registered a plain AddHandler stay on
// the serial path (see AddShardSafeHandler for the safety contract),
// so consensus-style engines are correct — just not accelerated.
//
// Sharded runs are specified to be byte-identical to serial runs:
// every pinned digest must be preserved for any k.
func (nw *Network) EnableSharding(k int) {
	if k > nw.n {
		k = nw.n
	}
	if k <= 1 {
		return
	}
	if nw.sim.eng != nil {
		if nw.sim.eng.nw == nw {
			return
		}
		panic("simnet: EnableSharding on two networks of one Sim")
	}
	eng := newEngine(nw, k)
	nw.eng = eng
	nw.sim.eng = eng
	if tr := nw.sim.tracer; tr != nil {
		tr.SetShards(k)
	}
}

// Shards reports the number of shards in use (1 = serial scheduler).
func (nw *Network) Shards() int {
	if nw.eng == nil {
		return 1
	}
	return nw.eng.k
}

// OnBarrier registers a hook to run after every batch commit, in
// registration order. The history recorder uses it to flush staged
// communication events in global order.
func (nw *Network) OnBarrier(fn func()) {
	if nw.eng == nil {
		panic("simnet: OnBarrier without EnableSharding")
	}
	nw.eng.onBarrier = append(nw.eng.onBarrier, fn)
}

// ShardContext reports, for a process performing work right now,
// whether a parallel phase is active and under which (shard, tag) its
// order-sensitive effects must be staged. The history recorder calls
// it on every RecordComm; outside parallel phases ok is false and the
// caller records directly. The tag is the sequence number of the
// delivery event being handled — the global-order position every
// staged effect of that delivery inherits.
func (nw *Network) ShardContext(p int) (shard int, tag int64, ok bool) {
	eng := nw.eng
	if eng == nil || !eng.inParallel {
		return 0, 0, false
	}
	sh := eng.shardOf(p)
	return sh, eng.stages[sh].curTag, true
}

// safeShard returns the shard owning process p, and whether deliveries
// to p may be processed concurrently (no order-sensitive handler).
func (nw *Network) safeShard(p int) (int, bool) {
	if nw.eng == nil || (p < len(nw.serialOnly) && nw.serialOnly[p]) {
		return 0, false
	}
	return nw.eng.shardOf(p), true
}

// deliverSharded is deliver for the parallel phase: counters and
// crash-loss fault events are staged instead of applied, and handlers
// run under the shard-safety contract.
func (nw *Network) deliverSharded(m Message, sh int, st *shardState) {
	if nw.sched.DownAt(nw.sim.now, m.To) {
		st.dropped++
		if nw.logFaults {
			st.items = append(st.items, stagedItem{
				tag: st.curTag, kind: stNote,
				note: FaultEvent{Time: nw.sim.now, Kind: "crashloss", From: m.From, To: m.To},
			})
		}
		if tr := nw.sim.tracer; tr != nil {
			tr.EmitStaged(sh, trace.Event{
				VT: nw.sim.now, Seq: st.curTag, Kind: trace.KFault, Shard: sh, P: m.To,
				Detail: fmt.Sprintf("crashloss %d->%d", m.From, m.To),
			})
		}
		return
	}
	st.delivered++
	for _, h := range nw.handlers[m.To] {
		h(m)
	}
}

// AddShardSafeHandler registers a delivery handler that the sharded
// engine may run concurrently with handlers of processes in other
// shards. The handler must uphold the shard-safety contract:
//
//   - touch only process-local state (process p's own replica, maps,
//     counters) plus internally synchronized first-writer-wins
//     structures (the run's block index and the history chain table
//     over it, the creator registry);
//   - send and record only on behalf of its own process (from == p),
//     so staged effects are attributed to the right shard;
//   - never call Sim.Schedule (timer creation is order-sensitive; the
//     engine panics if a shard-safe handler tries).
//
// Handlers that cannot promise this — consensus round engines with
// shared vote state, handlers that schedule timeouts — use the plain
// AddHandler, which pins all of the process's deliveries to the serial
// path. Mixing both on one process is safe: one plain handler makes
// the whole process serial.
func (nw *Network) AddShardSafeHandler(p int, h Handler) {
	nw.handlers[p] = append(nw.handlers[p], h)
}

// markSerialOnly pins process p's deliveries to the serial path, and
// migrates any delivery already queued in a shard heap back to the
// global heap (preserving its (time, seq) position), so AddHandler
// stays correct in any order relative to EnableSharding.
func (nw *Network) markSerialOnly(p int) {
	if nw.serialOnly == nil {
		nw.serialOnly = make([]bool, nw.n)
	}
	nw.serialOnly[p] = true
	if eng := nw.eng; eng != nil {
		// Every queued event keeps its time and seq, so the (time, seq)
		// total order is preserved across the two queues.
		sh := eng.shardOf(p)
		old := eng.heaps[sh]
		eng.heaps[sh] = queue{}
		for _, k := range old.keys {
			if e := old.slots[k.slot]; e.msg.To == p {
				nw.sim.pq.push(e)
			} else {
				eng.heaps[sh].push(e)
			}
		}
	}
}

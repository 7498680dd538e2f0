package consistency

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
)

// fuzzBuild interprets a byte string as a deterministic op stream over
// `procs` sequential processes: chain extensions, forks, explicit and
// interned reads, stale reads, duplicate and failed appends, forged
// blocks, mid-stream fault declarations, and permanently-pending
// appends. Completed operations stay atomic (invoke+respond adjacent),
// which is the regime where a response-order feed's Checked counts are
// specified to match the definitions exactly (fuzzBuildOverlap is the
// other regime).
//
// Every extension and fork is flooded: the creator's update and send,
// then one delivery per later byte — a receive and an update at the
// target — among which some are dropped (never received), some update
// before they receive, some relay a send, some arrive twice (a replica
// rejoining from genesis receives and updates again, its creator too).
// A muted creator never sends, a loopback may never arrive, a block may
// reach everyone without its creator's send, and a process may be
// marked faulty after its messages.
func fuzzBuild(rec *history.Recorder, procs int, data []byte) {
	chains := make([]core.Chain, procs)
	for p := range chains {
		chains[p] = core.GenesisChain()
	}
	var all []*core.Block // every appended block, for stale/dup actions
	hasRead := make([]bool, procs)
	faulty := make([]bool, procs)
	seq := 0

	type delivery struct {
		to      int
		b       *core.Block
		loop    bool // the creator's own send coming back
		again   bool // arrives a second time later
		relayed bool
	}
	var inflight []delivery
	comm := func(kind history.CommKind, p int, b *core.Block) { rec.RecordComm(kind, p, b.Parent, b.ID) }
	flood := func(p int, b *core.Block, a byte) {
		mode := a >> 6
		if mode == 3 && a&1 == 1 {
			// Relayed without its creator's send: p applies it only when
			// it comes back, perhaps after everyone else has it.
			for q := 0; q < procs; q++ {
				inflight = append(inflight, delivery{to: q, b: b})
			}
			return
		}
		comm(history.EvUpdate, p, b)
		if mode == 3 {
			return // muted
		}
		comm(history.EvSend, p, b)
		for q := 0; q < procs; q++ {
			if q != p || mode != 1 { // mode 1: the loopback never arrives
				inflight = append(inflight, delivery{to: q, b: b, loop: q == p, again: mode == 2})
			}
		}
	}
	deliver := func(step int, a byte) {
		if len(inflight) == 0 {
			return
		}
		i := int(a>>3) % len(inflight)
		d := inflight[i]
		inflight = append(inflight[:i], inflight[i+1:]...)
		switch (int(a)*7 + step) % 6 {
		case 0: // dropped
			return
		case 1: // updated before it is received
			comm(history.EvUpdate, d.to, d.b)
			comm(history.EvReceive, d.to, d.b)
		default:
			comm(history.EvReceive, d.to, d.b)
			if !d.loop {
				comm(history.EvUpdate, d.to, d.b)
			}
			if step%5 == 0 && !d.relayed {
				d.relayed = true
				comm(history.EvSend, d.to, d.b)
			}
		}
		if d.again {
			d.again, d.loop = false, false
			inflight = append(inflight, d)
		}
	}

	mint := func(parent *core.Block, creator int) *core.Block {
		seq++
		b := core.NewBlock(parent.ID, parent.Height+1, creator, seq, []byte{byte(seq), byte(seq >> 8)})
		if seq%5 == 0 {
			// Shared token: k-Fork groups beyond the same-parent rule.
			b = b.WithToken("tkn(shared)")
		}
		rec.InternBlock(b)
		return b
	}

	for step, a := range data {
		deliver(step, a)
		p := int(a>>3) % procs
		switch a % 8 {
		case 0, 1: // extend p's chain with a successful append
			b := mint(chains[p].Head(), p)
			chains[p] = chains[p].Append(b)
			rec.Append(p, b, true)
			all = append(all, b)
			flood(p, b, a)
		case 2: // fork: branch p's chain at half height
			cut := len(chains[p])/2 + 1
			forked := slices.Clone(chains[p][:cut])
			b := mint(forked.Head(), p)
			chains[p] = forked.Append(b)
			rec.Append(p, b, true)
			all = append(all, b)
			flood(p, b, a)
		case 3: // explicit-chain read of p's current chain
			rec.Read(p, slices.Clone(chains[p]))
			hasRead[p] = true
		case 4: // interned read of p's current head
			rec.ReadHead(p, chains[p].Head())
			hasRead[p] = true
		case 5: // stale read or duplicate append of an old block
			if len(all) == 0 {
				rec.Read(p, core.GenesisChain())
				hasRead[p] = true
				break
			}
			old := all[int(a>>3)%len(all)]
			if a>>6 == 0 {
				rec.Append(p, old, true) // duplicate successful append
			} else {
				c := rec.Table().ChainTo(old.ID)
				rec.Read(p, c) // out-of-order (stale) read
				hasRead[p] = true
			}
		case 6: // forged block: interned, read, never appended — or a
			// failed append that likewise must not count
			b := mint(chains[p].Head(), p)
			if a>>6 == 0 {
				rec.Append(p, b, false) // failed append
			}
			rec.Read(p, slices.Clone(chains[p]).Append(b))
			hasRead[p] = true
		case 7: // mid-stream fault (only before p's first read, per the
			// sink contract) or a permanently-pending append
			if !hasRead[p] && !faulty[p] && a>>6 == 1 {
				faulty[p] = true
				rec.MarkFaulty(p)
				break
			}
			b := mint(chains[p].Head(), p)
			rec.InvokeAppend(p, b) // never responded
		}
	}
}

// fuzzSeeds is the seed corpus of the fuzzBuild targets.
var fuzzSeeds = [][]byte{
	{0, 3, 8, 11, 2, 3, 19, 4},
	{0, 0, 2, 3, 11, 3, 2, 11, 3, 5, 45, 5, 6, 70, 6, 3},
	{7, 71, 15, 0, 2, 3, 3, 3, 7, 7, 13, 5, 101, 6, 66, 4, 12, 20, 28},
	{1, 9, 17, 25, 33, 41, 49, 57, 3, 11, 19, 27, 2, 10, 18, 26, 4, 12},
	{0xf1, 0x43, 0x38, 0x41, 0x30}, // a block's creator applies it after everyone else, unsent
}

// FuzzMonitorEquivalence drives randomized op and message streams
// through the monitor and requires its Finalize, k-Fork, Update
// Agreement, LRC and Monotonic Prefix reports to match the
// definition-literal oracle exactly — OK flags, Checked counts,
// violation strings, witness ops and blocks — with the monitor as direct
// sink, with delivery through small sealed segments (which hand over a
// segment's operations before its communication events), with those
// segments and their ops on loan from a drop-mode recorder that reuses
// both, and armed with K = 1 as direct sink, where its live k-Fork
// witnesses must follow the oracle's token groups (liveKForkDiff). Its
// completed operations are atomic, so every retention class must hold at
// most MaxViolations reads at the end.
func FuzzMonitorEquivalence(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		const procs = 3
		horizon := 0
		if len(data) > 0 {
			horizon = int(data[0]) % 5 // 0 = the default window
		}
		build := func(rec *history.Recorder) { fuzzBuild(rec, procs, data) }
		for _, hn := range []monitorHarness{
			{horizon: horizon},
			{horizon: horizon, segSize: 7},
			{horizon: horizon, segSize: 2 + len(data)%3, drop: true},
			{horizon: horizon, k: 1},
		} {
			if n := largestClass(hn.run(t, procs, build)); n > MaxViolations {
				t.Errorf("seg=%d drop=%v: a retention class holds %d reads, bound %d", hn.segSize, hn.drop, n, MaxViolations)
			}
		}
	})
}

// fuzzBuildOverlap interprets a byte string as an op stream in which
// completed operations overlap: every process is sequential, but an
// invocation and its response are separate steps, so a read or an append
// of one process spans whole operations of the others, and whatever is
// still open when the bytes run out stays pending. Blocks are minted on
// two competing branches so that Strong Prefix and Eventual Prefix
// violations arise among the overlapping reads.
func fuzzBuildOverlap(rec *history.Recorder, procs int, data []byte) {
	type open struct {
		op    *history.Op
		head  *core.Block // read: the head to respond with
		eager bool        // read: respond with an explicit chain
	}
	heads := []*core.Block{core.Genesis(), core.Genesis()} // the two branches
	var all []*core.Block
	pending := make([]*open, procs)
	hasRead := make([]bool, procs)
	seq := 0
	for _, a := range data {
		p := int(a>>3) % procs
		if o := pending[p]; o != nil { // respond p's open operation
			pending[p] = nil
			switch {
			case o.op.Kind == history.OpAppend:
				rec.RespondAppend(o.op, a%8 != 7, nil) // one in eight fails
			case o.eager:
				rec.RespondRead(o.op, rec.Table().ChainTo(o.head.ID))
			default:
				rec.RespondReadHead(o.op, o.head)
			}
			continue
		}
		switch act := a % 8; {
		case act <= 2: // invoke an append extending one of the branches
			br := int(a>>6) % 2
			seq++
			b := core.NewBlock(heads[br].ID, heads[br].Height+1, p, seq, []byte{byte(seq), byte(seq >> 8)})
			if seq%5 == 0 {
				b = b.WithToken("tkn(shared)")
			}
			rec.InternBlock(b)
			heads[br] = b
			all = append(all, b)
			pending[p] = &open{op: rec.InvokeAppend(p, b)}
		case act == 3 && !hasRead[p]: // mark p faulty — before its first read, per the sink contract
			rec.MarkFaulty(p)
		default: // invoke a read: a branch head, or an older block
			h := heads[int(a>>6)%2]
			if act == 7 && len(all) > 0 {
				h = all[int(a>>3)%len(all)]
			}
			hasRead[p] = true
			pending[p] = &open{op: rec.InvokeRead(p), head: h, eager: act == 6}
		}
	}
}

// overlapSeeds is the seed corpus of the fuzzBuildOverlap streams.
var overlapSeeds = [][]byte{
	{0, 36, 8, 44, 1, 12, 64, 76, 5, 13, 20, 7, 15, 4},
	{0, 8, 16, 1, 9, 17, 4, 76, 20, 5, 13, 21, 70, 14, 86, 6, 14, 22},
	{2, 74, 18, 3, 11, 4, 12, 20, 0, 0, 8, 8, 71, 15, 23, 7, 15, 23, 1},
	{64, 0, 72, 8, 4, 12, 68, 76, 20, 84, 4, 12, 20, 6, 78, 22, 1, 65},
}

// FuzzClassifyOverlap holds Checker.Classify — the recording-order
// replay into a Monitor — against the oracle on histories with
// overlapping completed operations and pending tails: OK flags,
// violations and witnesses of every report, and Checked of every report
// but EventualPrefix (whose count the monitor reconstructs assuming
// atomic operations — the one divergence its contract documents). The
// all-pairs StrongPrefix must reach the criterion's verdict too, and so
// must a monitor fed the same stream in response order, as the
// recorder's sink (the live deployment's feed): same OK flags, same
// violated properties — its witnesses are not compared, see
// TestMonitorResponseOrderFeed. In both monitors every retention class
// must hold at most MaxViolations+procs−1 reads.
func FuzzClassifyOverlap(f *testing.F) {
	for _, seed := range overlapSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		const procs = 3
		horizon := 0
		if len(data) > 0 {
			horizon = int(data[0]) % 5
		}
		rec := history.NewRecorder(procs, nil)
		online := NewMonitor(MonitorConfig{Procs: procs, Horizon: horizon, Table: rec.Table()})
		rec.SetSink(online)
		fuzzBuildOverlap(rec, procs, data)
		h := rec.Snapshot()
		for _, op := range rec.PendingOps() {
			online.OpPending(op)
		}
		for _, score := range []core.Score{core.LengthScore{}, chainLength{}} {
			chk := NewChecker(score, nil)
			chk.Horizon = horizon
			replayed := chk.replay(h)
			if n := largestClass(replayed); n > MaxViolations+procs-1 {
				t.Errorf("%s: a retention class of the replay holds %d reads, bound %d", score.Name(), n, MaxViolations+procs-1)
			}
			sc, ec := replayed.Finalize()
			kfork := func(k int) *Report { return chk.KForkCoherence(h, k) }
			if d := diffOracle(h, score, nil, horizon, sc, ec, kfork,
				UpdateAgreement(h), LRC(h), chk.MonotonicPrefix(h), true); d != "" {
				t.Errorf("%s: %s", score.Name(), d)
			}
			if pairwise := chk.StrongPrefix(h); pairwise.OK != sc.Reports[2].OK {
				t.Errorf("all-pairs StrongPrefix %v, criterion %v", pairwise.OK, sc.Reports[2].OK)
			}
		}
		if n := largestClass(online); n > MaxViolations+procs-1 {
			t.Errorf("a retention class of the response-order feed holds %d reads, bound %d", n, MaxViolations+procs-1)
		}
		msc, mec := online.Finalize()
		osc, oec := oracleClassify(nil, nil, horizon, h)
		if fmt.Sprint(msc.Failing(), mec.Failing()) != fmt.Sprint(osc.Failing(), oec.Failing()) {
			t.Errorf("response-order feed violates %v / %v, the oracle %v / %v",
				msc.Failing(), mec.Failing(), osc.Failing(), oec.Failing())
		}
	})
}

package history

import "repro/internal/core"

// Sharded-scheduler support: when the simulation runs on a sharded
// event loop (simnet.EnableSharding), delivery handlers of different
// shards record communication events concurrently. To keep the global
// sequence index — and with it every pinned replay digest — identical
// to a serial run, RecordComm stages events into per-shard buffers
// during a parallel phase and the scheduler's barrier flushes them in
// global event order via CommitStagedComms. Each per-shard buffer has
// exactly one writer (that shard's worker goroutine), so staging takes
// no lock at all; only the barrier flush touches the recorder's mutex.

// ShardContext reports, for a process recording right now, whether a
// parallel phase is active and under which (shard, tag) the event must
// be staged. The tag is the global sequence number of the delivery
// event being handled; staged events are committed in tag order. The
// wiring layer passes simnet's Network.ShardContext — the history
// package keeps only the function type, so no import cycle forms.
type ShardContext func(p int) (shard int, tag int64, ok bool)

// stagedComm is one communication event awaiting its barrier commit.
type stagedComm struct {
	tag    int64
	kind   CommKind
	proc   int
	parent core.BlockID
	block  core.BlockID
}

// SetShardContext installs the staging router for a sharded run with
// the given shard count. Call it before recording starts (the wiring
// layer does, right after enabling sharding on the network) and
// register CommitStagedComms as the scheduler's barrier hook.
func (r *Recorder) SetShardContext(shards int, ctx ShardContext) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.shardCtx = ctx
	r.staged = make([][]stagedComm, shards)
	r.stagedPos = make([]int, shards)
}

// CommitStagedComms flushes every staged communication event in global
// order — a k-way merge of the per-shard buffers by tag (within one
// buffer, events are already tag-then-program ordered). The scheduler
// calls it at each batch barrier, before any later event records, so
// sequence indices come out exactly as a serial run would assign them.
func (r *Recorder) CommitStagedComms() {
	total := 0
	for i := range r.staged {
		total += len(r.staged[i])
	}
	if total == 0 {
		return
	}
	r.mu.Lock()
	for {
		best, bestTag := -1, int64(0)
		for sh := range r.staged {
			if p := r.stagedPos[sh]; p < len(r.staged[sh]) {
				if tag := r.staged[sh][p].tag; best < 0 || tag < bestTag {
					best, bestTag = sh, tag
				}
			}
		}
		if best < 0 {
			break
		}
		sc := &r.staged[best][r.stagedPos[best]]
		r.stagedPos[best]++
		r.appendComm(sc.kind, sc.proc, sc.parent, sc.block)
	}
	for sh := range r.staged {
		r.staged[sh] = r.staged[sh][:0]
		r.stagedPos[sh] = 0
	}
	r.mu.Unlock()
}

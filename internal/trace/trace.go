// Package trace records a structured, deterministically sampled log of
// scheduler events — sends, deliveries, timers, faults, crashes,
// shard epochs, merge-barrier stalls, consistency witnesses — keyed by
// virtual time. Sampling is decided by the event's scheduler sequence
// number (`seq % SampleEvery == 0`), never by wall time or retained
// volume, so the *set* of sampled events is identical across runs and
// shard counts; rare kinds (faults, crashes, epochs, stalls,
// witnesses) are always kept. Under the sharded scheduler, events from
// parallel workers are staged per shard and merged by seq at the
// engine's commit barrier, mirroring how message sends commit.
//
// Exports: Chrome trace-event JSON (load in Perfetto / chrome://tracing;
// per-shard lanes as processes, per-replica rows as threads, metric
// series as counter tracks) and JSON-lines for ad-hoc tooling.
package trace

import "sort"

// Kind classifies a trace event.
type Kind uint8

const (
	KSend    Kind = iota // a message entered the network (seq = scheduled delivery event)
	KDeliver             // a delivery executed at a replica
	KTimer               // a scheduled callback fired
	KFault               // an injected fault took effect (drop, partition loss, crashloss, defer)
	KCrash               // a crash window opened at a replica
	KRestart             // a crash window closed (replica restarted)
	KEpoch               // a sharded parallel batch began (one per merge epoch)
	KStall               // merge-barrier stall measurement for a batch (wall ns in Wall)
	KWitness             // the consistency monitor emitted a violation witness
)

var kindNames = [...]string{
	"send", "deliver", "timer", "fault", "crash", "restart", "epoch", "stall", "witness",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString inverts Kind.String; ok is false for unknown names.
func KindFromString(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// rare reports whether this kind bypasses sampling (always retained).
func (k Kind) rare() bool { return k >= KFault }

// Event is one trace record. VT is virtual time; Seq is the scheduler
// sequence number that makes sampling and merge order deterministic
// (for KWitness it is a monotone per-run witness index, for KEpoch and
// KStall the batch ordinal). Wall carries the only non-deterministic
// payload in the stream: wall-clock nanoseconds on KStall events.
type Event struct {
	VT     int64  `json:"vt"`
	Seq    int64  `json:"seq"`
	Kind   Kind   `json:"-"`
	Shard  int    `json:"shard"`
	P      int    `json:"p"`
	Detail string `json:"detail,omitempty"`
	Wall   int64  `json:"wall,omitempty"`
}

// Options configures a Tracer.
type Options struct {
	// SampleEvery keeps one in SampleEvery common events (send /
	// deliver / timer), selected by seq%SampleEvery == 0. ≤ 1 keeps
	// everything. Rare kinds are always kept.
	SampleEvery int64
	// Limit caps retained events; once reached, further events are
	// counted in Dropped() instead of stored. ≤ 0 means DefaultLimit.
	Limit int
}

// DefaultLimit bounds retained events when Options.Limit is unset.
const DefaultLimit = 1 << 20

// Tracer accumulates one run's trace. Emit is for serial scheduler
// context; EmitStaged is for sharded parallel workers (owner-shard
// slice, no synchronization needed), merged by Commit at the barrier.
type Tracer struct {
	sampleEvery int64
	limit       int
	events      []Event
	staged      [][]Event
	dropped     int64
	witnessSeq  int64
}

// New creates a Tracer.
func New(opts Options) *Tracer {
	if opts.SampleEvery < 1 {
		opts.SampleEvery = 1
	}
	if opts.Limit <= 0 {
		opts.Limit = DefaultLimit
	}
	return &Tracer{sampleEvery: opts.SampleEvery, limit: opts.Limit}
}

// Sampled reports whether an event of this kind and scheduler seq is
// retained. The decision depends only on (kind, seq) — deterministic
// and shard-count-invariant.
func (t *Tracer) Sampled(kind Kind, seq int64) bool {
	return kind.rare() || seq%t.sampleEvery == 0
}

// Emit records an event from serial scheduler context. Call Sampled
// first on hot paths to skip constructing the Event.
func (t *Tracer) Emit(ev Event) {
	if len(t.events) >= t.limit {
		t.dropped++
		return
	}
	t.events = append(t.events, ev)
}

// NextWitnessSeq returns a monotone index for KWitness events, which
// have no scheduler seq of their own. Witness emission order is
// deterministic (the monitor is fed in serial context in both serial
// and sharded runs), so the index is shard-count-invariant.
func (t *Tracer) NextWitnessSeq() int64 {
	t.witnessSeq++
	return t.witnessSeq
}

// SetShards sizes the per-shard staging areas (sharded runs only).
func (t *Tracer) SetShards(k int) {
	t.staged = make([][]Event, k)
}

// EmitStaged records an event from parallel worker context into the
// owner shard's staging slice. Only the owning worker touches it.
func (t *Tracer) EmitStaged(shard int, ev Event) {
	t.staged[shard] = append(t.staged[shard], ev)
}

// Commit merges all staged events into the main stream in ascending
// Seq order (each shard's slice is already seq-ascending, so this is a
// k-way merge) and clears the staging areas. Call at the merge barrier.
func (t *Tracer) Commit() {
	for {
		best := -1
		for s := range t.staged {
			if len(t.staged[s]) == 0 {
				continue
			}
			if best < 0 || t.staged[s][0].Seq < t.staged[best][0].Seq {
				best = s
			}
		}
		if best < 0 {
			break
		}
		t.Emit(t.staged[best][0])
		t.staged[best] = t.staged[best][1:]
	}
	for s := range t.staged {
		t.staged[s] = t.staged[s][:0]
	}
}

// Events returns the retained events in canonical (VT, Seq, Kind)
// order. Sorting at read time gives serial and sharded runs the same
// stream order for the same retained set.
func (t *Tracer) Events() []Event {
	evs := t.events
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].VT != evs[j].VT {
			return evs[i].VT < evs[j].VT
		}
		if evs[i].Seq != evs[j].Seq {
			return evs[i].Seq < evs[j].Seq
		}
		return evs[i].Kind < evs[j].Kind
	})
	return evs
}

// Dropped reports events discarded after Limit was reached.
func (t *Tracer) Dropped() int64 { return t.dropped }

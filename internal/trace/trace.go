// Package trace records a structured, deterministically sampled log of
// scheduler events — sends, deliveries, timers, faults, crashes,
// consistency witnesses — keyed by virtual time. Sampling is decided by
// the event's scheduler sequence number (`seq % SampleEvery == 0`),
// never by wall time or retained volume, so the *set* of sampled events
// is identical across runs; rare kinds (faults, crashes, witnesses) are
// always kept. Every payload is derived from simulation state, so a
// trace is byte-reproducible from its seed. The monitor's witness
// callback and the scheduler emit from the one goroutine that runs the
// simulation; a Tracer takes no lock.
//
// Exports: Chrome trace-event JSON (load in Perfetto / chrome://tracing;
// per-replica rows as threads, metric series as counter tracks) and
// JSON-lines for ad-hoc tooling.
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
	KWitness             // the consistency monitor emitted a violation witness
)

var kindNames = [...]string{
	"send", "deliver", "timer", "fault", "crash", "restart", "witness",
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
// sequence number that makes sampling deterministic (for KWitness it is
// a monotone per-run witness index).
type Event struct {
	VT     int64  `json:"vt"`
	Seq    int64  `json:"seq"`
	Kind   Kind   `json:"-"`
	P      int    `json:"p"`
	Detail string `json:"detail,omitempty"`
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

// Tracer accumulates one run's trace.
type Tracer struct {
	sampleEvery int64
	limit       int
	events      []Event
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
// retained. The decision depends only on (kind, seq).
func (t *Tracer) Sampled(kind Kind, seq int64) bool {
	return kind.rare() || seq%t.sampleEvery == 0
}

// Emit records an event. Call Sampled first on hot paths to skip
// constructing the Event.
func (t *Tracer) Emit(ev Event) {
	if len(t.events) >= t.limit {
		t.dropped++
		return
	}
	t.events = append(t.events, ev)
}

// NextWitnessSeq returns a monotone index for KWitness events, which
// have no scheduler seq of their own. The monitor emits witnesses in
// recording order, so the index is deterministic.
func (t *Tracer) NextWitnessSeq() int64 {
	t.witnessSeq++
	return t.witnessSeq
}

// Events returns the retained events in canonical (VT, Seq, Kind)
// order.
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

package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// epoch anchors every clock reading of the process, so spans of all
// workloads share one timeline in the trace artifact.
var epoch = time.Now()

func now() time.Duration { return time.Since(epoch) }

// calls is the aggregate of the decorated calls (selector, predicate,
// sink, mint) made while one span was the innermost open one. Busy sums
// the call durations over all callers, so where shard workers or node
// loops call at the same time it can exceed the wall time they cover.
type calls struct {
	Name string
	N    int64
	Busy time.Duration
}

// span is one timed call into a layer, taken from the benchmark's side
// of the layer boundary.
type span struct {
	Name     string
	Workload string
	Iter     int
	Parent   int // index into the tracer's spans; -1 at an iteration root
	Start    time.Duration
	End      time.Duration
	Calls    []calls
}

func (s span) duration() time.Duration { return s.End - s.Start }

// tracer keeps the spans of every traced iteration in memory until the
// benchmark ends. Spans are coarse (a handful per iteration) and opened
// from the goroutine that drives the iteration only; the per-call work
// inside them is aggregated by callTimers. A nil tracer records nothing,
// so untraced iterations run the same code.
type tracer struct {
	spans    []span
	open     []int
	workload string
	iter     int
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Iter: t.iter, Parent: parent, Start: now()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id and charges it the decorated calls made since the
// previous end.
func (t *tracer) end(id int, p *probes) {
	if t == nil {
		return
	}
	t.spans[id].End = now()
	t.spans[id].Calls = p.take()
	t.open = t.open[:len(t.open)-1]
}

// selfTime is span i's duration minus the part of it that its child
// spans and decorated calls cover. Child spans may overlap each other;
// the covered part is the union of their intervals, clipped to the
// parent. Decorated calls count with their busy time, which is exact
// where one goroutine makes them and an upper bound on what they cover
// where several do.
func selfTime(spans []span, i int) time.Duration {
	p := spans[i]
	type iv struct{ a, b time.Duration }
	var kids []iv
	for _, s := range spans {
		if s.Parent != i {
			continue
		}
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if b > a {
			kids = append(kids, iv{a, b})
		}
	}
	sort.Slice(kids, func(x, y int) bool { return kids[x].a < kids[y].a })
	var covered time.Duration
	edge := p.Start
	for _, k := range kids {
		if k.b <= edge {
			continue
		}
		covered += k.b - max(k.a, edge)
		edge = k.b
	}
	for _, c := range p.Calls {
		covered += c.Busy
	}
	return max(p.duration()-covered, 0)
}

// layerSeconds folds the spans of one iteration into per-layer metrics:
// "<span>_s" per span name, "<span>_self_s" for its self time, and
// "<calls>_s" / "<calls>_calls" for the decorated calls.
func layerSeconds(spans []span, workload string, iter int) map[string]float64 {
	out := map[string]float64{}
	for i, s := range spans {
		if s.Workload != workload || s.Iter != iter {
			continue
		}
		if s.Parent >= 0 {
			out[s.Name+"_s"] += s.duration().Seconds()
			out[s.Name+"_self_s"] += selfTime(spans, i).Seconds()
		}
		for _, c := range s.Calls {
			out[c.Name+"_s"] += c.Busy.Seconds()
			out[c.Name+"_calls"] += float64(c.N)
		}
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (the
// format internal/trace exports for scheduler events), one thread lane
// per workload, so the file opens in Perfetto or chrome://tracing.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	lanes := map[string]int{}
	events := []event{}
	for i, s := range spans {
		if _, ok := lanes[s.Workload]; !ok {
			lanes[s.Workload] = len(lanes) + 1
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: lanes[s.Workload], Args: map[string]any{"name": s.Workload}})
		}
		args := map[string]any{"workload": s.Workload, "iteration": s.Iter, "self_us": micros(selfTime(spans, i))}
		if s.Parent >= 0 {
			args["parent"] = spans[s.Parent].Name
		}
		for _, c := range s.Calls {
			args[c.Name+".calls"] = c.N
			args[c.Name+".busy_us"] = micros(c.Busy)
		}
		events = append(events, event{Name: s.Name, Ph: "X", Ts: micros(s.Start), Dur: micros(s.duration()), Pid: 1, Tid: lanes[s.Workload], Args: args})
	}
	return json.NewEncoder(w).Encode(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/metrics"
)

// jsonlEvent is the JSON-lines wire form of an Event (Kind as string).
type jsonlEvent struct {
	VT     int64  `json:"vt"`
	Seq    int64  `json:"seq"`
	Kind   string `json:"kind"`
	P      int    `json:"p"`
	Detail string `json:"detail,omitempty"`
}

// WriteJSONL writes one JSON object per event, in canonical order.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := enc.Encode(jsonlEvent{ev.VT, ev.Seq, ev.Kind.String(), ev.P, ev.Detail}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseJSONL reads a JSON-lines stream back into events (inverse of
// WriteJSONL; used by cmd/trace -lanes and the validator).
func ParseJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var je jsonlEvent
		if err := dec.Decode(&je); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		k, ok := KindFromString(je.Kind)
		if !ok {
			return nil, fmt.Errorf("trace: unknown kind %q", je.Kind)
		}
		out = append(out, Event{je.VT, je.Seq, k, je.P, je.Detail})
	}
}

// chromeEvent is one entry in the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Timestamps are microseconds; we map one virtual-time unit to one µs.
type chromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome writes the events (plus, if snap is non-nil, its sampled
// metric series as counter tracks) as a Chrome trace-event JSON file
// loadable in Perfetto or chrome://tracing. Everything is in one
// process, the scheduler; tid is the replica ID.
func WriteChrome(w io.Writer, events []Event, snap *metrics.Snapshot) error {
	f := chromeFile{DisplayTimeUnit: "ms"}
	for _, ev := range events {
		ce := chromeEvent{Name: ev.Kind.String(), Ts: ev.VT, Tid: ev.P}
		if ev.Detail != "" {
			ce.Name += " " + ev.Detail
		}
		switch ev.Kind {
		case KSend, KDeliver, KTimer:
			ce.Ph = "X"
			ce.Dur = 1
		default:
			ce.Ph = "i"
			ce.Scope = "g"
		}
		f.TraceEvents = append(f.TraceEvents, ce)
	}
	f.TraceEvents = append(f.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M",
		Args: map[string]any{"name": "scheduler"},
	})
	if snap != nil {
		for _, row := range snap.Series.Rows {
			for i, col := range snap.Series.Cols {
				f.TraceEvents = append(f.TraceEvents, chromeEvent{
					Name: col, Ph: "C", Ts: row.VT,
					Args: map[string]any{col: row.Vals[i]},
				})
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

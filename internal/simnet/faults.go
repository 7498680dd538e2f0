package simnet

import (
	"fmt"
	"sort"
	"strings"
)

// NoHeal marks a partition window that never heals: messages across the
// cut are lost, not deferred. As a crash window's End it is a crash that
// never restarts.
const NoHeal int64 = -1

// Window is one partition interval [Start, End): from virtual time Start
// up to (excluding) End, processes assigned to different sides cannot
// exchange messages. End == NoHeal means the cut is permanent.
//
// Side[p] is the side index of process p; processes with equal side
// values communicate normally. A process outside the slice is on side 0.
type Window struct {
	Start, End int64
	Side       []int
}

// active reports whether the window is in force at time t.
func (w *Window) active(t int64) bool {
	return t >= w.Start && (w.End == NoHeal || t < w.End)
}

// cuts reports whether the window separates processes a and b at time t.
func (w *Window) cuts(t int64, a, b int) bool {
	return w.active(t) && w.sideOf(a) != w.sideOf(b)
}

func (w *Window) sideOf(p int) int {
	if p < 0 || p >= len(w.Side) {
		return 0
	}
	return w.Side[p]
}

// sides renders the side assignment compactly, e.g. "{0 1}|{2 3}".
func (w *Window) sides() string {
	groups := map[int][]int{}
	max := 0
	for p, s := range w.Side {
		groups[s] = append(groups[s], p)
		if s > max {
			max = s
		}
	}
	var parts []string
	for s := 0; s <= max; s++ {
		if len(groups[s]) == 0 {
			continue
		}
		elems := make([]string, len(groups[s]))
		for i, p := range groups[s] {
			elems[i] = fmt.Sprint(p)
		}
		parts = append(parts, "{"+strings.Join(elems, " ")+"}")
	}
	return strings.Join(parts, "|")
}

// SplitWindow builds a window cutting the processes in left away from the
// remaining n-left processes during [start, end).
func SplitWindow(start, end int64, n int, left []int) Window {
	side := make([]int, n)
	for i := range side {
		side[i] = 1
	}
	for _, p := range left {
		if p >= 0 && p < n {
			side[p] = 0
		}
	}
	return Window{Start: start, End: end, Side: side}
}

// EclipseWindow isolates process victim from everyone else during
// [start, end) — the eclipse-attack cut (both directions).
func EclipseWindow(start, end int64, n, victim int) Window {
	return SplitWindow(start, end, n, []int{victim})
}

// Schedule is a deterministic fault schedule: a set of partition windows
// applied to a network. Message semantics follow real partitions rather
// than silent loss: a message crossing an active cut is *deferred* to the
// earliest time at which no window separates its endpoints (the heal
// flush), and dropped only when no such time exists (a NoHeal window).
// A crashed process (Port.SetDown) loses messages instead: deliveries to
// it are dropped, and it recovers by resynchronizing, not by a queue
// flush.
type Schedule struct {
	Windows []Window
}

// NewSchedule builds a schedule from windows.
func NewSchedule(windows ...Window) *Schedule {
	return &Schedule{Windows: windows}
}

// DeliveryTime resolves the earliest delivery time ≥ want at which the
// link from→to is uncut. ok=false means the message can never be
// delivered (an active NoHeal window separates the endpoints).
//
// The loop terminates: each deferral moves want to a window's End, and
// with finitely many windows the running maximum End is reached after at
// most len(Windows) deferrals.
func (s *Schedule) DeliveryTime(want int64, from, to int) (at int64, ok bool) {
	if s == nil {
		return want, true
	}
	for iter := 0; iter <= len(s.Windows); iter++ {
		deferred := false
		for i := range s.Windows {
			w := &s.Windows[i]
			if !w.cuts(want, from, to) {
				continue
			}
			if w.End == NoHeal {
				return 0, false
			}
			want = w.End
			deferred = true
		}
		if !deferred {
			return want, true
		}
	}
	return want, true
}

// Cut reports whether any window separates from and to at time t.
func (s *Schedule) Cut(t int64, from, to int) bool {
	if s == nil {
		return false
	}
	for i := range s.Windows {
		if s.Windows[i].cuts(t, from, to) {
			return true
		}
	}
	return false
}

// FaultEvent is one fault-injection occurrence, recorded for timeline
// rendering (cmd/historyviz) and scenario reports. Kinds:
//
//	"cut"      — a partition window opens (From/To are -1)
//	"heal"     — a partition window closes (From/To are -1)
//	"defer"    — a message was held back by an active cut until Detail
//	"partloss" — a message was lost to a permanent cut
//	"drop"     — a message was lost to the drop rule
//	"withhold" — an adversary withheld a block (recorded via NoteFault)
//	"release"  — an adversary released withheld blocks (NoteFault)
//	"crash"    — a process went down (From/To are -1, Detail "pN")
//	"restart"  — a crashed process recovered (From/To are -1)
//	"crashloss"— a message was lost because its endpoint was down
type FaultEvent struct {
	Time     int64
	Kind     string
	From, To int
	Detail   string
}

// String renders e.g. "@12 defer 0→3 until 40" or "@5 cut {0 1}|{2 3}".
func (e FaultEvent) String() string {
	if e.From < 0 && e.To < 0 {
		return fmt.Sprintf("@%d %s %s", e.Time, e.Kind, e.Detail)
	}
	if e.Detail == "" {
		return fmt.Sprintf("@%d %s %d→%d", e.Time, e.Kind, e.From, e.To)
	}
	return fmt.Sprintf("@%d %s %d→%d %s", e.Time, e.Kind, e.From, e.To, e.Detail)
}

// SetSchedule installs a fault schedule on the network (nil removes it).
// When fault recording is on, the schedule's cut/heal boundaries are
// logged immediately so renderers can draw the spans. The event queue is
// left untouched.
func (nw *Network) SetSchedule(s *Schedule) {
	nw.sched = s
	if s == nil {
		return
	}
	if nw.logFaults {
		for i := range s.Windows {
			w := &s.Windows[i]
			nw.faultLog = append(nw.faultLog, FaultEvent{Time: w.Start, Kind: "cut", From: -1, To: -1, Detail: w.sides()})
			if w.End != NoHeal {
				nw.faultLog = append(nw.faultLog, FaultEvent{Time: w.End, Kind: "heal", From: -1, To: -1, Detail: w.sides()})
			}
		}
	}
}

// Schedule returns the installed fault schedule (nil when none).
func (nw *Network) Schedule() *Schedule { return nw.sched }

// RecordFaults enables (or disables) the fault-event log. Enable before
// SetSchedule so the cut/heal boundary events are captured.
func (nw *Network) RecordFaults(on bool) { nw.logFaults = on }

// NoteFault appends an externally observed fault event at the current
// time (adversarial strategies record their withhold/release decisions).
func (nw *Network) NoteFault(e FaultEvent) {
	if nw.logFaults {
		e.Time = nw.sim.Now()
		nw.faultLog = append(nw.faultLog, e)
	}
}

// FaultEvents returns the recorded fault events sorted by time (stable:
// recording order breaks ties).
func (nw *Network) FaultEvents() []FaultEvent {
	out := make([]FaultEvent, len(nw.faultLog))
	copy(out, nw.faultLog)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

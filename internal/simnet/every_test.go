package simnet

import (
	"fmt"
	"slices"
	"testing"
)

// TestEveryIsOneRecord: a series of 1<<20 occurrences costs what a series
// of one does — no queue page, a constant number of allocations — while
// Pending and Run count every occurrence.
func TestEveryIsOneRecord(t *testing.T) {
	fn := func(int) {}
	allocs := func(count int) float64 {
		return testing.AllocsPerRun(20, func() {
			s := NewSim(1)
			s.Every(1, 1, count, fn)
			if len(s.pq.pages) != 0 {
				t.Fatalf("Every(1, 1, %d) added %d queue pages", count, len(s.pq.pages))
			}
		})
	}
	if one, many := allocs(1), allocs(1<<20); many != one || many > 4 {
		t.Fatalf("Every allocates %.0f times for 1<<20 occurrences, %.0f for one", many, one)
	}

	s := NewSim(1)
	fired := 0
	s.Every(1, 1, 1<<20, func(k int) {
		if k != fired || s.Now() != int64(k+1) {
			t.Fatalf("occurrence %d ran at t=%d as the %d-th", k, s.Now(), fired)
		}
		fired++
	})
	if s.Pending() != 1<<20 {
		t.Fatalf("Pending() = %d, want %d", s.Pending(), 1<<20)
	}
	if n := s.Run(1000); n != 1000 || fired != 1000 || s.Pending() != 1<<20-1000 {
		t.Fatalf("Run(1000) ran %d (fired %d), %d pending", n, fired, s.Pending())
	}
	if n := s.RunUntilIdle(); n != 1<<20-1000 || s.Pending() != 0 || len(s.series) != 0 {
		t.Fatalf("RunUntilIdle ran %d, %d pending, %d series left", n, s.Pending(), len(s.series))
	}
	if s.stepped != 1<<20 {
		t.Fatalf("%d steps for 1<<20 occurrences", s.stepped)
	}
}

// TestEveryRejectsBadShapes: a series that cannot be a loop of Schedule
// calls with growing delays panics; a single occurrence needs no step,
// and no occurrence schedules nothing.
func TestEveryRejectsBadShapes(t *testing.T) {
	for _, c := range []struct {
		first, step int64
		count       int
	}{{1, 0, 2}, {1, -3, 5}, {-1, 1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Every(%d, %d, %d) did not panic", c.first, c.step, c.count)
				}
			}()
			NewSim(1).Every(c.first, c.step, c.count, func(int) {})
		}()
	}
	s := NewSim(1)
	ran := 0
	s.Every(2, 0, 1, func(int) { ran++ })
	s.Every(2, -1, 0, func(int) { ran += 10 })
	s.Every(-1, 0, -5, func(int) { ran += 100 })
	if s.Pending() != 1 || s.RunUntilIdle() != 1 || ran != 1 || s.Now() != 2 {
		t.Fatalf("ran %d to t=%d", ran, s.Now())
	}
}

// timerSim is what an Every script drives: the production scheduler, or
// the same scheduler with each Every expanded into its Schedule loop.
type timerSim interface {
	Schedule(delay int64, fn func())
	Every(first, step int64, count int, fn func(k int))
	Run(until int64) int
	Now() int64
	Pending() int
}

type expandedEvery struct{ *Sim }

func (s expandedEvery) Every(first, step int64, count int, fn func(k int)) {
	for k := 0; k < count; k++ {
		s.Schedule(first+int64(k)*step, func() { fn(k) })
	}
}

// runEveryScript plays a fuzz script of byte triples (op, a, b) on s and
// returns its log: every timer and occurrence as it runs, and every
// Run's count and Pending after it.
//
//	op%4 == 0: Run(now + a%32)
//	op%4 == 1: Schedule(a%16, …)
//	op%4 == 2: Every(a%8, b%5, 1+b/5%24, …), a step of 0 made 1 unless
//	           the count is 1
//	op%4 == 3: Schedule(a%16, …) of a timer that, when it runs, calls
//	           Every(0, 1+b%3, 1+b/3%6, …) when op/4 is odd and
//	           Schedule(0, …) otherwise
//
// An occurrence whose index and b are both even also calls Schedule(0, …)
// from inside. The script is then run to idle.
func runEveryScript(s timerSim, script []byte) []string {
	var log []string
	note := func(what string, id int) func() {
		return func() { log = append(log, fmt.Sprintf("t=%d %s%d", s.Now(), what, id)) }
	}
	every := func(first, step int64, count, id int, nest bool) {
		s.Every(first, step, count, func(k int) {
			note(fmt.Sprintf("every%d.", id), k)()
			if nest && k%2 == 0 {
				s.Schedule(0, note(fmt.Sprintf("nested%d.", id), k))
			}
		})
	}
	for i := 0; i+2 < min(len(script), 3*128); i += 3 {
		op, a, b := script[i], script[i+1], script[i+2]
		switch op % 4 {
		case 0:
			n := s.Run(s.Now() + int64(a%32))
			log = append(log, fmt.Sprintf("run %d to t=%d, %d pending", n, s.Now(), s.Pending()))
		case 1:
			s.Schedule(int64(a%16), note("timer", i))
		case 2:
			count, step := 1+int(b/5%24), int64(b%5)
			if step == 0 && count > 1 {
				step = 1
			}
			every(int64(a%8), step, count, i, b%2 == 0)
		case 3:
			id, inner := i, op/4%2 == 1
			s.Schedule(int64(a%16), func() {
				note("outer", id)()
				if inner {
					every(0, int64(1+b%3), 1+int(b/3%6), id, b%2 == 0)
				} else {
					s.Schedule(0, note("inner", id))
				}
			})
		}
	}
	n := s.Run(1 << 40)
	return append(log, fmt.Sprintf("run %d to idle, %d pending", n, s.Pending()))
}

// FuzzEveryOrder holds Every to its definition: a fuzz-chosen script of
// Schedule, Every and Run(until) calls logs exactly what the same script
// logs with each Every expanded into its loop of Schedule calls — every
// timer and occurrence at the same time and in the same order, and the
// same counts from Run and Pending. Scripts are cut at 128 calls.
func FuzzEveryOrder(f *testing.F) {
	f.Add([]byte{2, 1, 10, 2, 1, 10, 0, 5, 0, 1, 3, 0, 0, 31, 0}) // two series at equal times, a stop mid-series
	f.Add([]byte{2, 0, 26, 1, 0, 0, 7, 2, 4, 0, 9, 0, 3, 1, 1})   // nested Schedule(0) and Every from inside timers
	f.Add([]byte{0, 3, 0, 2, 7, 119, 0, 6, 0, 1, 6, 0, 0, 4, 0})  // a series set up after a stop
	f.Add([]byte{1, 5, 0, 2, 5, 0, 1, 5, 0})                      // an occurrence between two timers of one run
	f.Fuzz(func(t *testing.T, script []byte) {
		got := runEveryScript(NewSim(1), script)
		want := runEveryScript(expandedEvery{NewSim(1)}, script)
		if !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("entry %d: Every logs %q, the loop %q", i, got[i], want[i])
				}
			}
			t.Fatalf("Every logs %d entries, the loop %d", len(got), len(want))
		}
	})
}

package simnet

import "math"

// Every holds a periodic timer as one series record, not one queued
// event per firing, so a protocol that reads or mines at every tick of a
// long run no longer queues the whole run's timers at time 0: a timing
// wheel (Varghese & Lauck, SOSP 1987) in its smallest form. It reserves
// the seqs its count Schedule calls would take, and step merges the
// earliest pending occurrence with the queue's head event by (time, seq),
// so execution order, and all that seq stamps (traces, digests), is the
// loop's.

// series is the state of one Every call: its next occurrence's stamp and
// index, and the occurrences left after it.
type series struct {
	time, seq int64
	step      int64
	k, count  int
	fn        func(k int)
}

// Every runs fn(k) for k = 0 … count−1 at first + k·step virtual time
// units from now, in exactly the order count calls of
// Schedule(first+k·step, …) made here would run them: same-time events
// queued before this call run first, those queued after it run later.
// Pending counts every occurrence still to fire, yet the whole series
// takes one small record, not count queue slots. A count ≤ 0 schedules
// nothing. Every panics on a negative first, and on step ≤ 0 when count
// > 1.
func (s *Sim) Every(first, step int64, count int, fn func(k int)) {
	if count <= 0 {
		return
	}
	if first < 0 {
		panic("simnet: Every with a negative first delay")
	}
	if step <= 0 && count > 1 {
		panic("simnet: Every with a non-positive step")
	}
	s.series = append(s.series, series{time: s.now + first, seq: s.seq + 1, step: step, count: count, fn: fn})
	s.seq += int64(count)
	s.occurrences += count
	s.findDue()
}

// findDue caches the earliest pending occurrence. It scans the pending
// series, which are few (one per periodic protocol loop), and runs only
// when a series is added or fires, never on a step that pops an event.
func (s *Sim) findDue() {
	s.dueTime = math.MaxInt64
	for i := range s.series {
		r := &s.series[i]
		if r.time < s.dueTime || r.time == s.dueTime && r.seq < s.dueSeq {
			s.due, s.dueTime, s.dueSeq = i, r.time, r.seq
		}
	}
}

// occurrenceFirst reports whether the earliest pending occurrence runs
// before the queue's head event. The head's own seq is read from its
// slot: a part-drained run's key still carries its first event's seq.
func (s *Sim) occurrenceFirst() bool {
	if s.pq.len() == 0 {
		return true
	}
	head := s.pq.peek()
	return s.dueTime < head || s.dueTime == head && s.dueSeq < s.pq.peekSeq()
}

// fire runs the earliest pending occurrence. The series advances, or is
// dropped once spent, before fn runs, so fn sees Pending without it and
// may call Schedule or Every itself.
func (s *Sim) fire() {
	r := &s.series[s.due]
	fn, k := r.fn, r.k
	s.now, s.curSeq = r.time, r.seq
	if r.k++; r.k == r.count {
		last := len(s.series) - 1
		*r = s.series[last]
		s.series[last] = series{} // release fn
		s.series = s.series[:last]
	} else {
		r.time += r.step
		r.seq++
	}
	s.occurrences--
	s.findDue()
	if s.tracer != nil {
		s.traceExec(s.curSeq, -1)
	}
	fn(k)
}

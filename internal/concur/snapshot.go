package concur

import "sync/atomic"

// Snapshot is a wait-free single-writer atomic snapshot object in the
// style of Afek, Attiya, Dolev, Gafni, Merritt and Shavit (the object
// the paper cites as [7], Aspnes & Herlihy's wait-free PRAM work uses
// the same construction): n single-writer registers supporting
//
//	Update(i, v): process i writes v to its register;
//	Scan():       returns an atomic view of all n registers.
//
// Wait-freedom is achieved by embedding a full view in every write: a
// scanner that observes some writer move twice can borrow that writer's
// embedded view, which is guaranteed to be a valid snapshot taken within
// the scanner's interval. The object has consensus number 1, which is
// the substance of Theorem 4.3.
type Snapshot[T any] struct {
	regs []atomic.Pointer[snapCell[T]]
}

type snapCell[T any] struct {
	val  T
	seq  uint64
	view []T // embedded snapshot taken by the writer
}

// NewSnapshot creates a snapshot object over n single-writer registers,
// all initially holding the zero value of T.
func NewSnapshot[T any](n int) *Snapshot[T] {
	return &Snapshot[T]{regs: make([]atomic.Pointer[snapCell[T]], n)}
}

func (s *Snapshot[T]) collect() []*snapCell[T] {
	out := make([]*snapCell[T], len(s.regs))
	for i := range s.regs {
		out[i] = s.regs[i].Load()
	}
	return out
}

func seqOf[T any](c *snapCell[T]) uint64 {
	if c == nil {
		return 0
	}
	return c.seq
}

func valOf[T any](c *snapCell[T]) T {
	if c == nil {
		var zero T
		return zero
	}
	return c.val
}

// Scan returns an atomic view of the n registers.
func (s *Snapshot[T]) Scan() []T {
	moved := make([]int, len(s.regs))
	first := s.collect()
	for {
		second := s.collect()
		clean := true
		for i := range s.regs {
			if seqOf(first[i]) != seqOf(second[i]) {
				clean = false
				moved[i]++
				if moved[i] >= 2 && second[i] != nil && second[i].view != nil {
					// Writer i completed two updates within
					// our scan; its second embedded view was
					// taken entirely inside our interval.
					view := make([]T, len(second[i].view))
					copy(view, second[i].view)
					return view
				}
			}
		}
		if clean {
			out := make([]T, len(s.regs))
			for i, c := range second {
				out[i] = valOf(c)
			}
			return out
		}
		first = second
	}
}

// Update writes v into register i (single writer per index). The write
// embeds a fresh scan, which is what makes concurrent Scans wait-free.
func (s *Snapshot[T]) Update(i int, v T) {
	view := s.Scan()
	prev := s.regs[i].Load()
	s.regs[i].Store(&snapCell[T]{val: v, seq: seqOf(prev) + 1, view: view})
}

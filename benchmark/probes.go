package main

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/history"
)

// sampleEvery is the stride of timed calls: every call is counted, one
// in sampleEvery is timed. The predicate is called once per block per
// replica and the live monitor calls it millions of times per run, so
// timing every call (two clock readings, ~75 ns) costs 7-22 % of an
// iteration, more than the 5 % a traced pass may add. The stride is a
// prime so that it does not lock onto round-robin patterns over the
// replicas.
const sampleEvery = 31

// callTimer counts and times the calls through one decorated interface.
// Calls may come from several goroutines at once (shard workers, live
// node loops), so the fields are atomic and the hot path takes no lock.
type callTimer struct {
	n, timed, busy atomic.Int64
}

// enter counts a call and returns its start time, or -1 when the call is
// not one of the timed ones.
func (c *callTimer) enter() time.Duration {
	if c.n.Add(1)%sampleEvery != 0 {
		return -1
	}
	return now()
}

func (c *callTimer) exit(t0 time.Duration) {
	if t0 < 0 {
		return
	}
	c.busy.Add(int64(now() - t0))
	c.timed.Add(1)
}

// take returns the calls made since the previous take and resets the
// timer. It is called between phases, when no call is in flight. Busy
// is the timed calls' total scaled up to all calls.
func (c *callTimer) take(name string) calls {
	n, timed, busy := c.n.Swap(0), c.timed.Swap(0), c.busy.Swap(0)
	if timed > 0 {
		busy = int64(float64(busy) * float64(n) / float64(timed))
	}
	return calls{Name: name, N: n, Busy: time.Duration(busy)}
}

// probes is the set of decorators a traced iteration installs on the
// interfaces the layers already accept. A nil *probes installs nothing:
// every wrap method returns its argument.
type probes struct {
	sel, pred, sink, mint callTimer
}

func (p *probes) take() []calls {
	if p == nil {
		return nil
	}
	var out []calls
	for _, c := range []calls{
		p.sel.take("core.select"),
		p.pred.take("core.predicate"),
		p.sink.take("history.sink"),
		p.mint.take("oracle.mint"),
	} {
		if c.N > 0 {
			out = append(out, c)
		}
	}
	return out
}

func (p *probes) selector(f core.Selector) core.Selector {
	if p == nil {
		return f
	}
	return timedSelector{f, &p.sel}
}

func (p *probes) predicate(f core.Predicate) core.Predicate {
	if p == nil {
		return f
	}
	return timedPredicate{f, &p.pred}
}

func (p *probes) sinkOf(s history.Sink) history.Sink {
	if p == nil {
		return s
	}
	return timedSink{s, &p.sink}
}

type mintFunc = func(proc int, parent *core.Block, seq int) *core.Block

func (p *probes) mintOf(f mintFunc) mintFunc {
	if p == nil {
		return f
	}
	return func(proc int, parent *core.Block, seq int) *core.Block {
		t0 := p.mint.enter()
		b := f(proc, parent, seq)
		p.mint.exit(t0)
		return b
	}
}

// timedSelector forwards both selection paths, so a head-only caller
// (core.HeadOf) still reaches the inner selector's fast path.
type timedSelector struct {
	inner core.Selector
	t     *callTimer
}

func (s timedSelector) Name() string { return s.inner.Name() }

func (s timedSelector) Select(t *core.Tree) core.Chain {
	t0 := s.t.enter()
	c := s.inner.Select(t)
	s.t.exit(t0)
	return c
}

func (s timedSelector) SelectHead(t *core.Tree) *core.Block {
	t0 := s.t.enter()
	b := core.HeadOf(s.inner, t)
	s.t.exit(t0)
	return b
}

type timedPredicate struct {
	inner core.Predicate
	t     *callTimer
}

func (p timedPredicate) Name() string { return p.inner.Name() }

func (p timedPredicate) Valid(b *core.Block) bool {
	t0 := p.t.enter()
	ok := p.inner.Valid(b)
	p.t.exit(t0)
	return ok
}

type timedSink struct {
	inner history.Sink
	t     *callTimer
}

func (s timedSink) OpDone(op *history.Op) {
	t0 := s.t.enter()
	s.inner.OpDone(op)
	s.t.exit(t0)
}

func (s timedSink) CommDone(e history.CommEvent) {
	t0 := s.t.enter()
	s.inner.CommDone(e)
	s.t.exit(t0)
}

func (s timedSink) Faulty(p int) { s.inner.Faulty(p) }

package main

import (
	"container/heap"
	"runtime"
	"time"
)

// The reference box is a shared host whose neighbours slow every process
// by 20-70 % for seconds to minutes at a time (README.md, "Noise"): the
// same iteration of flood_n64 reads 1.1 s in a quiet minute and 2.0 s in
// a busy one, and no statistic over a run of the length the benchmark
// contract allows sees past that. So every timed region is bracketed by
// readings of a reference kernel, fixed work that belongs to the
// benchmark and calls nothing of the repository, and its time is divided
// by the slowdown the two readings show. The end-to-end times are thus
// reference seconds: seconds on a box on which the kernel takes its
// nominal time, which is what the reference box does when it is quiet.

// refEvent is a scheduled delivery of the reference kernel, or a mining
// turn when blk is nil.
type refEvent struct {
	at  int64
	seq uint64
	to  int
	blk *refBlock
}

type refBlock struct {
	id, parent uint64
	height     int
}

type refQueue []refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

type refNode struct {
	tree     map[uint64]*refBlock
	children map[uint64][]uint64
	head     *refBlock
}

func (nd *refNode) attach(b *refBlock) {
	if _, ok := nd.tree[b.id]; ok {
		return
	}
	nd.tree[b.id] = b
	nd.children[b.parent] = append(nd.children[b.parent], b.id)
	if b.height > nd.head.height {
		nd.head = b
	}
}

// refRecord is one line of the kernel's message log.
type refRecord struct {
	at       int64
	from, to int
	id       uint64
}

// refKernel floods blocks toy blocks over nodes toy replicas through an
// event heap, map-backed trees and an append-only log: the same kind of
// work as the workloads (pointer-chasing, hashing, allocation, a
// collector running beside it), so that a busy host slows both alike. It
// returns the sum of the head heights plus the log length.
func refKernel(nodes, blocks int) int {
	genesis := &refBlock{}
	nds := make([]refNode, nodes)
	for i := range nds {
		nds[i] = refNode{tree: map[uint64]*refBlock{0: genesis}, children: map[uint64][]uint64{}, head: genesis}
	}
	var (
		q   refQueue
		log []refRecord
		seq uint64
		rng = uint64(88172645463325252)
	)
	for r := 0; r < blocks; r++ {
		heap.Push(&q, refEvent{at: int64(r + 1), seq: seq, to: r % nodes})
		seq++
	}
	for q.Len() > 0 {
		e := heap.Pop(&q).(refEvent)
		nd := &nds[e.to]
		if e.blk != nil {
			nd.attach(e.blk)
			log = append(log, refRecord{at: e.at, from: -1, to: e.to, id: e.blk.id})
			continue
		}
		b := &refBlock{id: seq + 1, parent: nd.head.id, height: nd.head.height + 1}
		nd.attach(b)
		for to := range nds {
			if to == e.to {
				continue
			}
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			heap.Push(&q, refEvent{at: e.at + 1 + int64(rng%3), seq: seq, to: to, blk: b})
			seq++
			log = append(log, refRecord{at: e.at, from: e.to, to: to, id: b.id})
		}
	}
	sum := len(log)
	for i := range nds {
		sum += nds[i].head.height
	}
	return sum
}

// reference reads the host's speed off the kernel.
type reference struct {
	nodes, blocks int           // size of one kernel run
	runs          int           // kernel runs per reading; a reading is their mean
	nominal       time.Duration // one kernel run on the quiet reference box
	last          float64       // the latest reading, in seconds per kernel run
}

// fullReference takes about 0.3 s per reading on the reference box. The
// nominal time is the tenth percentile of 6 000 kernel runs taken there
// over an hour; changing it rescales every end-to-end time.
var fullReference = reference{nodes: 64, blocks: 1000, runs: 5, nominal: 44 * time.Millisecond}

// refSink keeps the kernel's result alive.
var refSink int

func (r *reference) read() {
	runtime.GC() // every reading starts from the same small heap
	t0 := now()
	for i := 0; i < r.runs; i++ {
		refSink += refKernel(r.nodes, r.blocks)
	}
	r.last = (now() - t0).Seconds() / float64(r.runs)
}

// around runs f between two readings and returns the host's slowdown
// over it: the mean of the two over the nominal reading. The reading
// that follows one call is the one that precedes the next, so back-to-
// back calls pay for one reading each.
func (r *reference) around(f func()) float64 {
	if r.last == 0 {
		r.read()
	}
	before := r.last
	f()
	r.read()
	return (before + r.last) / 2 / r.nominal.Seconds()
}

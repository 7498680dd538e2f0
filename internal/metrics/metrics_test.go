package metrics

import "testing"

func TestCounterAndVec(t *testing.T) {
	r := New(10)
	c := r.Counter("sends")
	cv := r.CounterVec("orphans", 4)
	c.Inc()
	c.Add(4)
	cv.Inc(0)
	for range 7 {
		cv.Inc(2)
	}
	cv.Inc(2)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if cv.Total() != 9 || cv.Max() != 8 || cv.Value(2) != 8 {
		t.Fatalf("vec total=%d max=%d v2=%d", cv.Total(), cv.Max(), cv.Value(2))
	}
}

func TestHotPathZeroAlloc(t *testing.T) {
	r := New(10)
	c := r.Counter("c")
	cv := r.CounterVec("v", 8)
	if n := testing.AllocsPerRun(1000, func() { c.Inc(); c.Add(3) }); n != 0 {
		t.Fatalf("Counter.Inc/Add allocates: %v allocs/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { cv.Inc(3) }); n != 0 {
		t.Fatalf("CounterVec.Inc allocates: %v allocs/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { r.Tick(5) }); n != 0 {
		t.Fatalf("Tick with no boundary crossed allocates: %v allocs/op", n)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New(10)
	h := r.Histogram("lat", 1, 4, 16)
	for _, v := range []int64{0, 1, 2, 4, 5, 16, 17, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	hs := snap.Hists[0]
	want := []int64{2, 2, 2, 2} // ≤1, ≤4, ≤16, +Inf
	for i, w := range want {
		if hs.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, hs.Counts[i], w, hs.Counts)
		}
	}
	if hs.N != 8 || hs.Sum != 145 {
		t.Fatalf("n=%d sum=%d", hs.N, hs.Sum)
	}
}

func TestTickSamplesBoundaries(t *testing.T) {
	r := New(10)
	depth := int64(0)
	r.Probe("depth", func() int64 { return depth })
	r.Tick(3) // no boundary
	depth = 5
	r.Tick(10) // boundary 10: sampled before the t=10 event runs, sees depth=5
	depth = 9
	r.Tick(35) // boundaries 20 and 30
	rows := r.rows
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[0].VT != 10 || rows[0].Vals[0] != 5 {
		t.Fatalf("row0 = %+v", rows[0])
	}
	if rows[1].VT != 20 || rows[2].VT != 30 || rows[2].Vals[0] != 9 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestSnapshotDigestDeterministicAndSectioned(t *testing.T) {
	build := func(timing int64) *Snapshot {
		r := New(5)
		c := r.Counter("a")
		c.Add(3)
		r.CounterVec("b", 2).Inc(1)
		g := int64(7)
		r.Probe("g", func() int64 { return g })
		r.Tick(12)
		r.AddTiming("wallns", timing)
		return r.Snapshot()
	}
	s1, s2 := build(111), build(99999)
	if s1.Digest() != s2.Digest() {
		t.Fatalf("digest covers Timing: %s vs %s", s1.Digest(), s2.Digest())
	}
	// A change in a core counter must change the digest.
	r := New(5)
	r.Counter("a").Add(4)
	if r.Snapshot().Digest() == s1.Digest() {
		t.Fatal("digest insensitive to counter values")
	}
}

func TestSnapshotFinalSampleAndValues(t *testing.T) {
	r := New(10)
	d := int64(2)
	r.Probe("d", func() int64 { return d })
	r.Tick(10)
	d = 6
	now := int64(14)
	r.SetClock(func() int64 { return now })
	s := r.Snapshot()
	if len(s.Series.Rows) != 2 || s.Series.Rows[1].VT != 14 || s.Series.Rows[1].Vals[0] != 6 {
		t.Fatalf("rows = %+v", s.Series.Rows)
	}
	if v, ok := s.Value("d.peak"); !ok || v != 6 {
		t.Fatalf("d.peak = %d ok=%v", v, ok)
	}
	if v, ok := s.Value("d.last"); !ok || v != 6 {
		t.Fatalf("d.last = %d ok=%v", v, ok)
	}
	// No duplicate final row when the clock equals the last boundary.
	s2func := func() *Snapshot {
		r := New(10)
		r.Probe("x", func() int64 { return 1 })
		r.Tick(10)
		r.SetClock(func() int64 { return 10 })
		return r.Snapshot()
	}
	if got := len(s2func().Series.Rows); got != 1 {
		t.Fatalf("duplicate final row: %d", got)
	}
}

func TestFoldStatsAndSummary(t *testing.T) {
	r := New(10)
	r.Counter("x").Add(2)
	s := r.Snapshot()
	s.FoldStats(map[string]int{"zz": 1, "aa": 9})
	if s.Stats[0].Name != "aa" || s.Stats[1].Name != "zz" {
		t.Fatalf("stats not sorted: %+v", s.Stats)
	}
	sum := s.Summary()
	if sum["x"] != 2 || sum["stat:aa"] != 9 {
		t.Fatalf("summary = %+v", sum)
	}
	if v, ok := s.Value("zz"); !ok || v != 1 {
		t.Fatalf("Value(zz) = %d ok=%v", v, ok)
	}
}

package tape

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at step %d", i)
		}
	}
}

func TestRNGSeedSensitivity(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 equal outputs", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) hit only %d distinct values in 1000 draws", len(seen))
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestBernoulliFrequency(t *testing.T) {
	for _, p := range []float64{0.1, 0.5, 0.9} {
		r := NewRNG(uint64(p * 1000))
		hits := 0
		const n = 20000
		for i := 0; i < n; i++ {
			if r.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.02 {
			t.Errorf("Bernoulli(%v) frequency %v, want within 0.02", p, got)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := NewRNG(3)
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	if r.Bernoulli(-0.5) {
		t.Error("Bernoulli(-0.5) returned true")
	}
	if !r.Bernoulli(1.5) {
		t.Error("Bernoulli(1.5) returned false")
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(13)
	const p = 0.25
	total := 0
	const n = 20000
	for i := 0; i < n; i++ {
		total += r.Geometric(p)
	}
	mean := float64(total) / n
	want := (1 - p) / p // mean of failures-before-success geometric
	if math.Abs(mean-want) > 0.15 {
		t.Errorf("Geometric(%v) mean %v, want ≈ %v", p, mean, want)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(17)
	s1 := r.Split()
	s2 := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if s1.Uint64() == s2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams coincide in %d/100 draws", same)
	}
}

func TestTapeHeadThenPopAgree(t *testing.T) {
	tp := NewTape(0.5, nil, 99)
	for i := 0; i < 200; i++ {
		h := tp.Head()
		p := tp.Pop()
		if h != p {
			t.Fatalf("cell %d: Head()=%v but Pop()=%v", i, h, p)
		}
	}
	if tp.cursor != 200 {
		t.Fatalf("position %d after 200 pops", tp.cursor)
	}
}

func TestTapePeekStable(t *testing.T) {
	tp := NewTape(0.5, nil, 123)
	want := make([]Cell, 50)
	for i := range want {
		want[i] = tp.Peek(i)
	}
	// Peeking again (and out of order) must return identical cells.
	for i := len(want) - 1; i >= 0; i-- {
		if tp.Peek(i) != want[i] {
			t.Fatalf("Peek(%d) changed between calls", i)
		}
	}
	// Popping must consume exactly the peeked prefix.
	for i := range want {
		if got := tp.Pop(); got != want[i] {
			t.Fatalf("Pop %d = %v, want peeked %v", i, got, want[i])
		}
	}
}

func TestTapeDeterministicPerSeed(t *testing.T) {
	a := NewTape(0.3, nil, 5)
	b := NewTape(0.3, nil, 5)
	for i := 0; i < 500; i++ {
		if a.Pop() != b.Pop() {
			t.Fatalf("same-seed tapes diverged at %d", i)
		}
	}
}

func TestTapeProbabilityZeroAndOne(t *testing.T) {
	zero := NewTape(0, nil, 1)
	one := NewTape(1, nil, 1)
	for i := 0; i < 100; i++ {
		if zero.Pop() != Bottom {
			t.Fatal("p=0 tape produced a token")
		}
		if one.Pop() != Token {
			t.Fatal("p=1 tape produced ⊥")
		}
	}
}

func TestTapeTokenFrequencyMatchesMerit(t *testing.T) {
	tp := NewTape(0.2, nil, 77)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if tp.Pop() == Token {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.2) > 0.02 {
		t.Errorf("token frequency %v, want ≈ 0.2", got)
	}
}

func TestDifficultyMapping(t *testing.T) {
	m := DifficultyMapping(4)
	if got := m(0.8); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("DifficultyMapping(4)(0.8) = %v, want 0.2", got)
	}
	if got := m(2.0); got != 0.25 {
		t.Errorf("merit clamped to 1 then divided: got %v, want 0.25", got)
	}
}

func TestDifficultyMappingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DifficultyMapping(0) did not panic")
		}
	}()
	DifficultyMapping(0)
}

func TestIdentityMappingClamps(t *testing.T) {
	if IdentityMapping(-1) != 0 {
		t.Error("negative merit not clamped to 0")
	}
	if IdentityMapping(2) != 1 {
		t.Error("merit > 1 not clamped to 1")
	}
	if IdentityMapping(0.4) != 0.4 {
		t.Error("identity not preserved in range")
	}
}

func TestSetReturnsSameTape(t *testing.T) {
	s := NewSet(nil, 42)
	t1 := s.Tape(0.5)
	t1.Pop()
	t2 := s.Tape(0.5)
	if t1 != t2 {
		t.Fatal("Set returned a different tape for the same merit")
	}
	if t2.cursor != 1 {
		t.Fatal("tape state not shared through the set")
	}
}

func TestSetMeritsOrder(t *testing.T) {
	s := NewSet(nil, 42)
	s.Tape(0.3)
	s.Tape(0.1)
	s.Tape(0.3) // no duplicate registration
	if len(s.tapes) != 2 || s.tapes[0.3] == nil || s.tapes[0.1] == nil {
		t.Fatalf("tapes = %v, want one for 0.3 and one for 0.1", s.tapes)
	}
	// A tape's seed is drawn at first use, so the order of first uses —
	// not of later ones — decides what each tape holds.
	r := NewSet(nil, 42)
	r.Tape(0.3)
	r.Tape(0.1)
	for i := 0; i < 64; i++ {
		if s.Tape(0.1).Pop() != r.Tape(0.1).Pop() {
			t.Fatal("a repeated Tape(0.3) re-registered the merit and moved 0.1's seed")
		}
	}
}

func TestSetReproducibleAccessPattern(t *testing.T) {
	build := func() []Cell {
		s := NewSet(nil, 7)
		var out []Cell
		for i := 0; i < 50; i++ {
			out = append(out, s.Tape(0.4).Pop())
			out = append(out, s.Tape(0.6).Pop())
		}
		return out
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("set sequences diverged at %d", i)
		}
	}
}

// Property: for any seed, the first n cells seen via Peek equal the first
// n cells seen via Pop on an identically constructed tape.
func TestQuickPeekPopEquivalence(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		peeker := NewTape(0.5, nil, seed)
		popper := NewTape(0.5, nil, seed)
		for i := 0; i < n; i++ {
			if peeker.Peek(i) != popper.Pop() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Geometric(p) for p=1 is always 0.
func TestQuickGeometricCertainty(t *testing.T) {
	f := func(seed uint64) bool {
		return NewRNG(seed).Geometric(1) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

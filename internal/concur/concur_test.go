package concur

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/oracle"
)

func TestRegisterZeroValue(t *testing.T) {
	var r Register[int]
	if r.Read() != 0 {
		t.Fatal("zero register not zero")
	}
	r.Write(7)
	if r.Read() != 7 {
		t.Fatal("write lost")
	}
}

func TestRegisterConcurrent(t *testing.T) {
	var r Register[int]
	var wg sync.WaitGroup
	for i := 1; i <= 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.Write(i)
			_ = r.Read()
		}(i)
	}
	wg.Wait()
	if v := r.Read(); v < 1 || v > 16 {
		t.Fatalf("final value %d not among writes", v)
	}
}

func TestCASSemantics(t *testing.T) {
	var c CAS[string]
	if prev := c.CompareAndSwap("", "a"); prev != "" {
		t.Fatalf("first CAS returned %q", prev)
	}
	if prev := c.CompareAndSwap("", "b"); prev != "a" {
		t.Fatalf("losing CAS returned %q, want a", prev)
	}
	if prev := c.CompareAndSwap("a", "c"); prev != "a" {
		t.Fatalf("matching CAS returned %q", prev)
	}
	if got := c.Read(); got != "c" {
		t.Fatalf("final %q", got)
	}
}

func TestCASSingleWinner(t *testing.T) {
	var c CAS[int]
	var wg sync.WaitGroup
	wins := make([]bool, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wins[i] = c.CompareAndSwap(0, i+1) == 0
		}(i)
	}
	wg.Wait()
	n := 0
	for _, w := range wins {
		if w {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d winners", n)
	}
}

func TestSnapshotSequential(t *testing.T) {
	s := NewSnapshot[int](3)
	if got := s.Scan(); len(got) != 3 || got[0] != 0 {
		t.Fatalf("initial scan %v", got)
	}
	s.Update(0, 10)
	s.Update(2, 30)
	got := s.Scan()
	if len(got) != 3 || got[0] != 10 || got[1] != 0 || got[2] != 30 {
		t.Fatalf("scan %v", got)
	}
}

// TestSnapshotMonotoneViews: with writers writing strictly increasing
// values, every scanned view must be componentwise monotone over time at
// each scanner (a consequence of linearizability of scans).
func TestSnapshotMonotoneViews(t *testing.T) {
	const writers = 4
	const perWriter = 200
	s := NewSnapshot[int](writers)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := 1; v <= perWriter; v++ {
				s.Update(w, v)
			}
		}(w)
	}

	scanErr := make(chan string, 4)
	var swg sync.WaitGroup
	for r := 0; r < 4; r++ {
		swg.Add(1)
		go func() {
			defer swg.Done()
			prev := make([]int, writers)
			for {
				select {
				case <-stop:
					return
				default:
				}
				view := s.Scan()
				for i := range view {
					if view[i] < prev[i] {
						scanErr <- "view regressed"
						return
					}
					prev[i] = view[i]
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	swg.Wait()
	select {
	case msg := <-scanErr:
		t.Fatal(msg)
	default:
	}
	final := s.Scan()
	for i, v := range final {
		if v != perWriter {
			t.Fatalf("writer %d final %d", i, v)
		}
	}
}

func genesisBlock(i int) *core.Block {
	b := core.NewBlock(core.GenesisID, 1, i, i, []byte{byte(i)})
	return b.WithToken(oracle.TokenName(core.GenesisID))
}

func TestCTk1SingleConsume(t *testing.T) {
	ct := &CTk1{}
	b0, b1 := genesisBlock(0), genesisBlock(1)
	ret := ct.ConsumeToken(b0)
	if len(ret) != 1 || ret[0].ID != b0.ID {
		t.Fatalf("first consume returned %v", ret)
	}
	ret = ct.ConsumeToken(b1)
	if len(ret) != 1 || ret[0].ID != b0.ID {
		t.Fatalf("second consume returned %v, want first winner", ret)
	}
}

func TestCTk1RejectsBadToken(t *testing.T) {
	ct := &CTk1{}
	plain := core.NewBlock(core.GenesisID, 1, 0, 0, nil) // no token
	if got := ct.ConsumeToken(plain); got != nil {
		t.Fatalf("tokenless consume returned %v", got)
	}
	if got := ct.ConsumeToken(nil); got != nil {
		t.Fatalf("nil consume returned %v", got)
	}
	if got := ct.K(core.GenesisID); got != nil {
		t.Fatalf("K nonempty: %v", got)
	}
}

func TestCTk1PerObjectIndependence(t *testing.T) {
	ct := &CTk1{}
	b := genesisBlock(0)
	ct.ConsumeToken(b)
	// A different object (parent b) has its own empty K.
	child := core.NewBlock(b.ID, 2, 1, 1, nil).WithToken(oracle.TokenName(b.ID))
	ret := ct.ConsumeToken(child)
	if len(ret) != 1 || ret[0].ID != child.ID {
		t.Fatalf("independent object affected: %v", ret)
	}
}

func TestCASFromCTSemantics(t *testing.T) {
	ct := &CTk1{}
	b0, b1 := genesisBlock(0), genesisBlock(1)
	if old := CASFromCT(ct, b0); old != nil {
		t.Fatalf("first CAS returned %v, want nil (empty)", old)
	}
	old := CASFromCT(ct, b1)
	if len(old) != 1 || old[0].ID != b0.ID {
		t.Fatalf("second CAS returned %v, want the winner", old)
	}
}

func TestSnapshotCTUnbounded(t *testing.T) {
	s := NewSnapshotCT(8)
	for i := 0; i < 8; i++ {
		view := s.ConsumeToken(i, genesisBlock(i))
		if len(view) != i+1 {
			t.Fatalf("after %d consumes view has %d tokens", i+1, len(view))
		}
	}
	if got := len(s.K(core.GenesisID)); got != 8 {
		t.Fatalf("|K| = %d", got)
	}
}

func TestSnapshotCTBounds(t *testing.T) {
	s := NewSnapshotCT(2)
	if got := s.ConsumeToken(5, genesisBlock(0)); got != nil {
		t.Fatalf("out-of-range writer accepted: %v", got)
	}
	if got := s.ConsumeToken(0, nil); got != nil {
		t.Fatalf("nil block accepted: %v", got)
	}
}

func runConsensus(t *testing.T, c Consensus, n int) []*core.Block {
	t.Helper()
	decided := make([]*core.Block, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := c.Propose(i, []byte{byte(i)})
			if err != nil {
				t.Errorf("process %d: %v", i, err)
				return
			}
			decided[i] = b
		}(i)
	}
	wg.Wait()
	return decided
}

func assertAgreement(t *testing.T, decided []*core.Block, n int) {
	t.Helper()
	if decided[0] == nil {
		t.Fatal("no decision")
	}
	for i := 1; i < len(decided); i++ {
		if decided[i] == nil || decided[i].ID != decided[0].ID {
			t.Fatalf("disagreement: %v vs %v", decided[i], decided[0])
		}
	}
	if decided[0].Creator < 0 || decided[0].Creator >= n {
		t.Fatalf("decided value from nobody: creator %d", decided[0].Creator)
	}
}

func TestOracleConsensus(t *testing.T) {
	orc := oracle.NewFrugal(1, nil, core.WellFormed{}, 99)
	c, err := NewOracleConsensus(orc, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	decided := runConsensus(t, c, 8)
	assertAgreement(t, decided, 8)
}

func TestOracleConsensusRequiresK1(t *testing.T) {
	orc := oracle.NewFrugal(2, nil, nil, 1)
	if _, err := NewOracleConsensus(orc, 0.5); err == nil {
		t.Fatal("k=2 oracle accepted for protocol A")
	}
}

func TestCASConsensus(t *testing.T) {
	decided := runConsensus(t, NewCASConsensus(), 8)
	assertAgreement(t, decided, 8)
}

func TestCTConsensus(t *testing.T) {
	decided := runConsensus(t, NewCTConsensus(), 8)
	assertAgreement(t, decided, 8)
}

func TestConsensusSingleProposer(t *testing.T) {
	// Degenerate case: one proposer decides its own value (Validity).
	for _, c := range []Consensus{NewCASConsensus(), NewCTConsensus()} {
		b, err := c.Propose(0, []byte("solo"))
		if err != nil {
			t.Fatal(err)
		}
		if b.Creator != 0 {
			t.Fatalf("solo proposer decided foreign value from %d", b.Creator)
		}
	}
}

// Property: repeated CAS-consensus rounds always decide exactly one of
// the proposed values (validity), for any proposer count.
func TestQuickConsensusValidity(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%6) + 1
		c := NewCTConsensus()
		decided := make([]*core.Block, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				decided[i], _ = c.Propose(i, []byte{byte(i)})
			}(i)
		}
		wg.Wait()
		for i := 1; i < n; i++ {
			if decided[i] == nil || decided[i].ID != decided[0].ID {
				return false
			}
		}
		return decided[0] != nil && decided[0].Creator >= 0 && decided[0].Creator < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

package scenario

import (
	"hash/fnv"
	"strings"
	"testing"

	"repro/btsim"
	"repro/internal/consistency"
)

// TestCatalogueMeasuresPredictedViolations is the acceptance criterion
// of the adversary subsystem as a test: every scenario measures each
// violation the paper predicts for it (with a structured witness), the
// benign baselines violate nothing beyond the inherent PoW fork window,
// and at least three distinct properties are broken across the
// catalogue.
func TestCatalogueMeasuresPredictedViolations(t *testing.T) {
	distinct := map[string]bool{}
	for _, spec := range Catalogue() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			o := mustRun(t, spec, 0)
			if missing := o.MissingExpected(); len(missing) > 0 {
				t.Fatalf("predicted violations unmeasured: %v (got %v)", missing, o.Violated)
			}
			for _, name := range o.Violated {
				distinct[name] = true
				w, ok := o.Witnesses[name]
				if !ok {
					t.Fatalf("violated %s without a structured witness", name)
				}
				if w.Detail == "" || (len(w.Ops) == 0 && len(w.Blocks) == 0) {
					t.Fatalf("witness for %s carries no counterexample: %+v", name, w)
				}
			}
			// Every benign non-PoW baseline must hold outright (the
			// bitcoin baseline keeps its inherent transient-fork SC
			// violation, which is the paper's point).
			switch spec.Name {
			case "fabric/benign", "byzcoin/benign", "algorand/benign",
				"peercensus/benign", "redbelly/benign":
				if len(o.Violated) > 0 {
					t.Fatalf("benign %s run violated %v", spec.System, o.Violated)
				}
			}
			// EC must survive every healed scenario and fall in the
			// permanent-cut ones.
			switch spec.Name {
			case "bitcoin/partition-noheal", "bitcoin/eclipse":
				if o.EC.OK {
					t.Fatal("EC should be violated under a permanent cut")
				}
			case "bitcoin/partition-heal", "bitcoin/churn", "bitcoin/selfish":
				if !o.EC.OK {
					t.Fatalf("EC should survive %s, violated %v", spec.Name, o.Violated)
				}
			}
		})
	}
	if len(distinct) < 3 {
		t.Fatalf("catalogue breaks only %d distinct properties %v, want ≥ 3", len(distinct), distinct)
	}
}

// TestUnknownSystemErrorListsOptions pins the registry-dispatch error
// path: an unregistered system name must produce an error naming the
// registered options, never a silent zero outcome — from Run and from
// Sweep alike.
func TestUnknownSystemErrorListsOptions(t *testing.T) {
	spec := Spec{Name: "typo", System: "dogecoin", Config: btsim.Config{N: 4, Rounds: 10, Seed: 1}}
	o, err := spec.Run(0)
	if err == nil {
		t.Fatalf("Run of unknown system returned outcome %+v", o)
	}
	for _, want := range []string{"dogecoin", "bitcoin", "fabric", "redbelly"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if _, err := Sweep(spec, []uint64{1, 2}, 2); err == nil {
		t.Fatal("Sweep accepted an unknown system")
	}
}

// TestCatalogueCoversAllRegisteredSystems pins the api_redesign
// acceptance criterion: every one of the seven registered systems is
// reachable from the curated catalogue.
func TestCatalogueCoversAllRegisteredSystems(t *testing.T) {
	covered := map[string]bool{}
	for _, s := range Catalogue() {
		covered[s.System] = true
	}
	for _, want := range []string{
		"bitcoin", "ethereum", "byzcoin", "algorand", "peercensus", "redbelly", "fabric",
	} {
		if !covered[want] {
			t.Errorf("registered system %q has no catalogue entry", want)
		}
	}
}

// TestRunIsDeterministic replays one adversarial scenario twice and a
// third time at another seed: identical (spec, seed) must produce the
// identical digest, and the digest must depend on the seed.
func TestRunIsDeterministic(t *testing.T) {
	spec := *ByName("bitcoin/selfish")
	a, b := mustRun(t, spec, 0), mustRun(t, spec, 0)
	if a.Digest != b.Digest {
		t.Fatalf("same spec+seed diverged: %s vs %s", a.Digest, b.Digest)
	}
	c := mustRun(t, spec, 7)
	if c.Digest == a.Digest {
		t.Fatalf("different seeds collided on digest %s", a.Digest)
	}
}

// TestDigestIntoAllocatesOnlyRenderings bounds the replay fold's
// allocations on one catalogue run: hashing the run allocates at most 8
// times more than rendering the strings it hashes (the hash, the string
// adapter and its buffer's growth), not once more per string, as
// io.WriteString into an fnv hash did (1 158 more on this run).
func TestDigestIntoAllocatesOnlyRenderings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates beyond the render+8 bound; the count holds in a plain build")
	}
	r := mustRun(t, *ByName("bitcoin/partition-heal"), 0).Res
	render := testing.AllocsPerRun(3, func() {
		_ = r.History.String()
		for _, op := range r.History.Ops {
			_ = op.String()
		}
		for e := range r.History.Events() {
			_ = e.String()
		}
		for _, tr := range r.Trees {
			_ = tr.Blocks()
		}
		for _, e := range r.FaultEvents {
			_ = e.String()
		}
	})
	digest := testing.AllocsPerRun(3, func() { r.DigestInto(fnv.New64a()) })
	if digest > render+8 {
		t.Fatalf("DigestInto allocates %.0f times, rendering its strings %.0f", digest, render)
	}
}

// TestSweepMatchesSerialRuns checks the parallel sweep runner against
// serial execution: same outcomes, same order, regardless of workers.
func TestSweepMatchesSerialRuns(t *testing.T) {
	spec := *ByName("bitcoin/partition-heal")
	spec.Rounds = 120 // keep the sweep cheap
	seeds := []uint64{3, 5, 8, 13, 21}

	var serial []string
	for _, s := range seeds {
		serial = append(serial, mustRun(t, spec, s).Digest)
	}
	par, err := Sweep(spec, seeds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(seeds) {
		t.Fatalf("sweep returned %d outcomes, want %d", len(par), len(seeds))
	}
	for i, o := range par {
		if o.Seed != seeds[i] {
			t.Fatalf("outcome %d has seed %d, want %d (order must be seed order)", i, o.Seed, seeds[i])
		}
		if o.Digest != serial[i] {
			t.Fatalf("parallel digest %s != serial %s at seed %d", o.Digest, serial[i], seeds[i])
		}
	}
	if got := SweepSummary(par); !strings.Contains(got, "/5") {
		t.Fatalf("summary should aggregate over 5 seeds: %q", got)
	}
}

// TestSweepRecordsStreamedHandlerPanic: a streamed run checks its
// sealed segments off the recording goroutine, and a panic there — here
// a witness callback's — is the run's error: Run returns it rather than
// panicking, and it reaches the sweep as that seed's error, not as a
// crash of the process from a goroutine nobody recovers.
func TestSweepRecordsStreamedHandlerPanic(t *testing.T) {
	spec := *ByName("bitcoin/selfish")
	spec.Streaming, spec.StreamSegment = true, 16
	spec.OnWitness = func(consistency.Witness) { panic("witness callback") }
	if o, err := spec.Run(3); err == nil || !strings.Contains(err.Error(), "witness callback") {
		t.Fatalf("Run returned %v, %v; want the handler's panic as its error", o, err)
	}
	if _, err := Sweep(spec, []uint64{3, 5}, 2); err == nil ||
		!strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "witness callback") {
		t.Fatalf("sweep error %v, want the handler's panic", err)
	}
}

// TestMatrixRendersWitness smoke-checks the violation matrix rendering.
func TestMatrixRendersWitness(t *testing.T) {
	o := mustRun(t, *ByName("fabric/equivocate"), 0)
	m := Matrix([]*Outcome{o})
	for _, want := range []string{"fabric/equivocate", "1-ForkCoherence", "✗", "└"} {
		if !strings.Contains(m, want) {
			t.Fatalf("matrix missing %q:\n%s", want, m)
		}
	}
}

// mustRun runs a spec known to be valid — a catalogue entry — and fails
// the test on an error.
func mustRun(t testing.TB, s Spec, seed uint64) *Outcome {
	t.Helper()
	o, err := s.Run(seed)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

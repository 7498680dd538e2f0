// Package scenario is the declarative layer over the adversary and
// fault-injection subsystem: a Spec names one execution — registered
// system × synchrony knob × adversary strategy × fault schedule × churn
// windows × seed — and Run turns it into a fully checked Outcome (both
// criterion verdicts, optional k-Fork Coherence, the distinct violated
// properties with their structured witnesses, and a replay digest).
//
// Dispatch goes through the public btsim registry, so every registered
// system — all seven of the paper's Section 5, plus anything a future
// package registers — is scenario-able; nothing in this package names a
// protocol package. The curated Catalogue pairs benign baselines with
// the attacks the paper's hierarchy predicts must break each criterion;
// Matrix renders the resulting violation matrix (cmd/scenarios), and
// Sweep runs one spec across many seeds in parallel — the first
// concurrent code in the repository, which is why CI runs this package
// under -race.
package scenario

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"repro/btsim"
	_ "repro/btsim/systems" // register the built-in seven systems
	"repro/internal/consistency"
)

// Spec is one declarative scenario.
type Spec struct {
	// Name identifies the scenario in the catalogue and the matrix.
	Name string
	// System picks the protocol simulator by its registered btsim name
	// — any entry of btsim.Names() works ("bitcoin", "ethereum",
	// "byzcoin", "algorand", "peercensus", "redbelly", "fabric", plus
	// whatever else has been registered). Unknown names make Run
	// return an error listing the registered options.
	System string
	// Config is the run itself, in the public knob set and nowhere
	// else: N, Rounds, Seed, Merits, Faults, Crashes, Adversary and, for
	// a deployed entry, Live and Load. Its fields are promoted, so
	// spec.N and spec.Seed = 7 read and write them. Run sets MonitorK
	// to CheckK and overrides Seed when asked to.
	btsim.Config
	// CheckK, when > 0, additionally checks k-Fork Coherence with this
	// bound (set it to the frugal oracle's k).
	CheckK int
	// ExpectBroken names the properties the paper predicts this
	// scenario must break (empty for benign baselines). cmd/scenarios
	// -check and the tests fail when a predicted break goes unmeasured.
	ExpectBroken []string
	// Note is the one-line rationale shown with the catalogue.
	Note string
}

// Outcome is one fully checked scenario run.
type Outcome struct {
	Spec Spec
	// Seed is the seed actually used (sweeps override Spec.Seed).
	Seed uint64
	Res  *btsim.Result
	// Verdicts are the two criterion verdicts SC and EC, and KFork, the
	// optional k-Fork Coherence report (nil when Spec.CheckK == 0).
	consistency.Verdicts
	// Violated is Verdicts.Violated(): the distinct violated property
	// names, in checking order; Witnesses maps each to its first
	// structured counterexample.
	Violated  []string
	Witnesses map[string]consistency.Witness
	// Digest is the replay digest: identical for identical (spec, seed).
	Digest string
}

// MissingExpected returns the predicted-broken properties this run did
// not measure as broken.
func (o *Outcome) MissingExpected() []string {
	var out []string
	for _, want := range o.Spec.ExpectBroken {
		if !slices.Contains(o.Violated, want) {
			out = append(out, want)
		}
	}
	return out
}

// Run executes the scenario with the given seed (0 means Spec.Seed) and
// builds the Outcome from the verdicts of the online monitor that
// watched the run (Result.Stream, under either driver). An unregistered
// System (or any other invalid knob) returns an error naming the
// registered options — never a silent zero outcome.
func (s Spec) Run(seed uint64) (*Outcome, error) {
	if seed == 0 {
		seed = s.Seed
	}
	sys, err := btsim.Get(s.System)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	res, err := sys.Run(s.config(seed))
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	o := &Outcome{Spec: s, Seed: seed, Res: res}
	o.judge(res.Stream.Verdicts)
	return o, nil
}

// config is the spec's Config as one run takes it.
func (s Spec) config(seed uint64) btsim.Config {
	cfg := s.Config
	cfg.Seed = seed
	cfg.MonitorK = s.CheckK
	return cfg
}

// judge derives everything an Outcome states from the verdicts: the
// violated set, the first witness per property and the digest.
func (o *Outcome) judge(v consistency.Verdicts) {
	o.Verdicts = v
	o.Violated = v.Violated()
	witnesses := append(v.SC.Witnesses(), v.EC.Witnesses()...)
	if v.KFork != nil {
		witnesses = append(witnesses, v.KFork.Witnesses...)
	}
	o.Witnesses = map[string]consistency.Witness{}
	for _, w := range witnesses {
		if _, ok := o.Witnesses[w.Property]; !ok {
			o.Witnesses[w.Property] = w
		}
	}
	o.Digest = Digest(o)
}

// Digest folds the run — every recorded operation and communication
// event, every replica tree, the fault log, and all verdicts — into one
// hash: the byte-identical-replay check of the acceptance criteria. The
// run content comes from btsim's shared replay fold (Result.DigestInto,
// which also mirrors the root determinism test's pipelineDigest); the
// scenario digest extends it with the criterion verdicts.
func Digest(o *Outcome) string {
	h := fnv.New64a()
	o.Res.DigestInto(h)
	fmt.Fprintf(h, "SC=%v%v EC=%v%v", o.SC.OK, o.SC.Failing(), o.EC.OK, o.EC.Failing())
	if o.KFork != nil {
		fmt.Fprintf(h, " kFC=%v", o.KFork.OK)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Sweep runs the spec across the given seeds with at most workers
// concurrent runs (workers <= 0 means 4). Outcomes are returned in seed
// order regardless of completion order, so a sweep is as deterministic
// as a single run. A run that fails — an unregistered system, an
// invalid knob — fails the sweep with its error.
func Sweep(spec Spec, seeds []uint64, workers int) ([]*Outcome, error) {
	if workers <= 0 {
		workers = 4
	}
	if workers > len(seeds) {
		workers = len(seeds)
	}
	out := make([]*Outcome, len(seeds))
	errs := make([]error, len(seeds))
	type job struct {
		i    int
		seed uint64
	}
	jobs := make(chan job)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			for j := range jobs {
				func() {
					// One panicking seed (a diverging run, a checker
					// bug) must not take down the whole grid: recover
					// it into that seed's error slot.
					defer func() {
						if r := recover(); r != nil {
							out[j.i], errs[j.i] = nil, fmt.Errorf("scenario %q seed %d: panic: %v", spec.Name, j.seed, r)
						}
					}()
					out[j.i], errs[j.i] = spec.Run(j.seed)
				}()
			}
			done <- struct{}{}
		}()
	}
	for i, seed := range seeds {
		jobs <- job{i, seed}
	}
	close(jobs)
	for w := 0; w < workers; w++ {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SweepSummary aggregates a sweep: how often each property broke.
func SweepSummary(outs []*Outcome) string {
	counts := map[string]int{}
	for _, o := range outs {
		for _, v := range o.Violated {
			counts[v]++
		}
	}
	if len(counts) == 0 {
		return fmt.Sprintf("%d/%d seeds: no property violated", len(outs), len(outs))
	}
	props := make([]string, 0, len(counts))
	for p := range counts {
		props = append(props, p)
	}
	sort.Strings(props)
	s := ""
	for i, p := range props {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s %d/%d", p, counts[p], len(outs))
	}
	return s
}

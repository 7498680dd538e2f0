package scenario

import (
	"strings"

	"repro/btsim"
)

// Catalogue is the curated scenario set behind cmd/scenarios: benign
// baselines first (the checkers' "holds" side — one per registered
// system family, so every one of the paper's seven systems is
// scenario-able and measured), then one attack per criterion the
// paper's hierarchy predicts breakable, each with a pinned seed at
// which the violation is actually measured. The pinned digests in the
// root determinism test replay every entry byte-identically.
func Catalogue() []Spec {
	// Adversarial PoW runs give the attacker ~1/3 hashing power — below
	// one half (no trivial majority takeover) and above the share where
	// withholding is hopeless.
	advMerits := []float64{1, 1, 1, 1.5}
	// The three crash-churn windows of crash-durable and crash-amnesia.
	churn := []btsim.Crash{
		{Proc: 1, Start: 40, End: 90},
		{Proc: 3, Start: 120, End: 170},
		{Proc: 0, Start: 200, End: 250},
	}
	return []Spec{
		{
			Name: "bitcoin/benign", System: "bitcoin",
			Config: btsim.Config{N: 4, Rounds: 300, Seed: 42, ReadEvery: 6, Difficulty: 10},
			Note:   "baseline: lossless synchronous PoW — EC holds, transient forks only",
		},
		{
			Name: "fabric/benign", System: "fabric",
			Config: btsim.Config{N: 4, Rounds: 60, Seed: 42, ReadEvery: 12}, CheckK: 1,
			Note: "baseline: frugal k=1 ordering service — SC and 1-fork coherence hold",
		},
		{
			Name: "byzcoin/benign", System: "byzcoin",
			Config: btsim.Config{N: 4, Rounds: 30, Seed: 42, ReadEvery: 12}, CheckK: 1,
			Note: "baseline: PoW-elected leader + PBFT key blocks — SC holds, no forks",
		},
		{
			Name: "algorand/benign", System: "algorand",
			Config: btsim.Config{N: 4, Rounds: 30, Seed: 42, ReadEvery: 12}, CheckK: 1,
			Note: "baseline: sortition + BA* committee — SC w.h.p., fork-free at default",
		},
		{
			Name: "peercensus/benign", System: "peercensus",
			Config: btsim.Config{N: 4, Rounds: 30, Seed: 42, ReadEvery: 12}, CheckK: 1,
			Note: "baseline: PoW identities + committee consensus — SC holds",
		},
		{
			Name: "redbelly/benign", System: "redbelly",
			Config: btsim.Config{N: 6, Rounds: 15, Seed: 42, ReadEvery: 10}, CheckK: 1,
			Note: "baseline: consortium proposers, one decided block per height — SC holds",
		},
		{
			Name: "bitcoin/selfish", System: "bitcoin",
			Config: btsim.Config{
				N: 4, Rounds: 300, Seed: 42, ReadEvery: 6, Difficulty: 8,
				Merits:    advMerits,
				Adversary: btsim.Adversary{Strategy: btsim.Selfish, Lead: 1},
			},
			ExpectBroken: []string{"StrongPrefix"},
			Note:         "withhold-and-release mining forces reorgs: incomparable honest reads",
		},
		{
			Name: "bitcoin/withhold-release", System: "bitcoin",
			Config: btsim.Config{
				N: 4, Rounds: 300, Seed: 42, ReadEvery: 6, Difficulty: 8,
				// A pure withholder needs majority hashing power to keep its
				// private branch ahead until the end-of-run release.
				Merits:    []float64{1, 1, 1, 4},
				Adversary: btsim.Adversary{Strategy: btsim.Withhold, ReleaseAtEnd: true},
			},
			ExpectBroken: []string{"StrongPrefix"},
			Note:         "private chain released only at the end: one maximal late reorg",
		},
		{
			Name: "bitcoin/partition-heal", System: "bitcoin",
			Config: btsim.Config{
				N: 4, Rounds: 300, Seed: 42, ReadEvery: 6, Difficulty: 6,
				Faults: []btsim.Fault{{Kind: "split", Start: 50, End: 220, Left: []int{0, 1}}},
			},
			ExpectBroken: []string{"StrongPrefix"},
			Note:         "split brain mines two chains; Strong Prefix dies, EC survives the heal",
		},
		{
			Name: "bitcoin/partition-noheal", System: "bitcoin",
			Config: btsim.Config{
				N: 4, Rounds: 300, Seed: 42, ReadEvery: 6, Difficulty: 6,
				Faults: []btsim.Fault{{Kind: "split", Start: 50, End: btsim.NoHeal, Left: []int{0, 1}}},
			},
			ExpectBroken: []string{"StrongPrefix", "EventualPrefix"},
			Note:         "permanent cut: divergence persists into the final window — even EC dies",
		},
		{
			Name: "bitcoin/eclipse", System: "bitcoin",
			Config: btsim.Config{
				N: 4, Rounds: 300, Seed: 42, ReadEvery: 6, Difficulty: 6,
				Faults: []btsim.Fault{{Kind: "eclipse", Start: 100, End: btsim.NoHeal, Left: []int{2}}},
			},
			ExpectBroken: []string{"EverGrowingTree"},
			Note:         "eclipsed correct process stagnates while the tree demonstrably grows",
		},
		{
			Name: "bitcoin/churn", System: "bitcoin",
			Config: btsim.Config{
				N: 4, Rounds: 300, Seed: 42, ReadEvery: 6, Difficulty: 6,
				Faults: []btsim.Fault{
					{Kind: "eclipse", Start: 40, End: 90, Left: []int{1}},
					{Kind: "eclipse", Start: 120, End: 170, Left: []int{3}},
					{Kind: "eclipse", Start: 200, End: 250, Left: []int{0}},
				},
			},
			Note: "churn as heal-flushed eclipses: processes drop out and rejoin — EC must survive",
		},
		{
			Name: "bitcoin/crashstop", System: "bitcoin",
			Config: btsim.Config{
				N: 4, Rounds: 300, Seed: 42, ReadEvery: 6, Difficulty: 6,
				Crashes: []btsim.Crash{{Proc: 2, Start: 150, End: btsim.NoHeal}},
				Durable: true,
			},
			ExpectBroken: []string{"StrongPrefix"},
			Note:         "one replica crash-stops mid-run: survivors keep EC, the dead tree just freezes",
		},
		{
			Name: "bitcoin/crash-durable", System: "bitcoin",
			Config: btsim.Config{
				N: 4, Rounds: 300, Seed: 42, ReadEvery: 6, Difficulty: 6,
				Crashes: churn, Durable: true,
			},
			ExpectBroken: []string{"StrongPrefix"},
			Note:         "crash churn with snapshot/restore: restarts resume from the saved tree — EC holds",
		},
		{
			Name: "bitcoin/crash-amnesia", System: "bitcoin",
			Config: btsim.Config{
				N: 4, Rounds: 300, Seed: 42, ReadEvery: 6, Difficulty: 6,
				// The exact crash windows of crash-durable — only Durable
				// differs, so the pair isolates what durability buys.
				Crashes: churn, Durable: false,
			},
			ExpectBroken: []string{"StrongPrefix", "LocalMonotonicRead"},
			Note:         "same churn, rejoin from genesis: post-restart reads jump backwards — LMR dies",
		},
		{
			Name: "ethereum/forkflood", System: "ethereum",
			Config: btsim.Config{
				N: 4, Rounds: 120, Seed: 42, ReadEvery: 4, Difficulty: 4,
				Merits:    advMerits,
				Adversary: btsim.Adversary{Strategy: btsim.Equivocate, Forks: 3},
			},
			ExpectBroken: []string{"StrongPrefix"},
			Note:         "fork flooding under ΘP: forged siblings shake GHOST between subtrees",
		},
		{
			Name: "fabric/equivocate", System: "fabric",
			Config: btsim.Config{
				N: 4, Rounds: 60, Seed: 42, ReadEvery: 12,
				// Strong Prefix survives this attack (the selector is a
				// deterministic function, so replicas sharing the forked
				// tree still read the same chain) — exactly why k-Fork
				// Coherence is a separate criterion in the hierarchy.
				Adversary: btsim.Adversary{Strategy: btsim.Equivocate, Proc: 0, Forks: 2},
			},
			CheckK:       1,
			ExpectBroken: []string{"1-ForkCoherence"},
			Note:         "Byzantine orderer signs two blocks per height token: measured k-fork violation",
		},
	}
}

// ByName returns the catalogue entry with the given name (nil if none).
func ByName(name string) *Spec {
	for _, s := range Catalogue() {
		if s.Name == name {
			s := s
			return &s
		}
	}
	return nil
}

// Matrix renders the violation matrix: one row per outcome with the
// criterion verdicts and the first counterexample witness.
func Matrix(outs []*Outcome) string {
	var sb strings.Builder
	row := func(name, system, adv, sc, ec, kfc, viol string) {
		// Pad by rune count, not bytes: the ✓/✗/— marks are multi-byte.
		sb.WriteString(pad(name, 26) + " " + pad(system, 10) + " " + pad(adv, 24) + " " +
			pad(sc, 4) + " " + pad(ec, 4) + " " + pad(kfc, 4) + " " + viol + "\n")
	}
	row("scenario", "system", "adversary", "SC", "EC", "kFC", "violated (first witness)")
	sb.WriteString(strings.Repeat("─", 118) + "\n")
	for _, o := range outs {
		kfc := "—"
		if o.KFork != nil {
			kfc = mark(o.KFork.OK)
		}
		viol := "none"
		if len(o.Violated) > 0 {
			viol = strings.Join(o.Violated, ",")
			if w, ok := o.Witnesses[o.Violated[0]]; ok {
				viol += "\n" + strings.Repeat(" ", 28) + "└ " + truncate(w.Detail, 100)
			}
		}
		row(o.Spec.Name, o.Spec.System, o.Res.AdversaryName, mark(o.SC.OK), mark(o.EC.OK), kfc, viol)
	}
	return sb.String()
}

func mark(ok bool) string {
	if ok {
		return "✓"
	}
	return "✗"
}

// pad right-pads s with spaces to n visible runes.
func pad(s string, n int) string {
	if k := len([]rune(s)); k < n {
		return s + strings.Repeat(" ", n-k)
	}
	return s
}

func truncate(s string, n int) string {
	r := []rune(s)
	if len(r) <= n {
		return s
	}
	return string(r[:n-1]) + "…"
}

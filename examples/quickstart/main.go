// Quickstart: the public btsim API in five minutes.
//
// The paper's seven blockchain systems are instances of one abstraction
// — a BlockTree ADT refined by a token oracle — and btsim exposes them
// behind one interface:
//
//  1. import repro/btsim/systems for side effects and every system of
//     Section 5 is registered; btsim.Systems() lists them with the
//     oracle family and consistency criterion the paper claims;
//  2. run any of them by name with functional options (btsim.Run);
//  3. watch progress with an observer, then check the recorded history
//     against the BT Strong/Eventual Consistency criteria and replay
//     the run byte-identically from its digest.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/btsim"
	_ "repro/btsim/systems" // registers the Section 5 seven
)

func main() {
	fmt.Println("--- the registry: every system of Section 5, one interface ---")
	for _, sys := range btsim.Systems() {
		info := sys.Info()
		fmt.Printf("  §%-4s %-11s %-16s %-10s %s\n",
			info.Section, info.Name, info.Oracle, info.Criterion, info.Synopsis)
	}

	fmt.Println("\n--- one run: Bitcoin, 300 PoW rounds, an observer watching ---")
	progress := 0
	res, err := btsim.Run("bitcoin",
		btsim.WithN(4),
		btsim.WithRounds(300),
		btsim.WithSeed(42),
		btsim.WithReadEvery(6),
		btsim.WithDifficulty(10),
		btsim.WithObserver(func(p btsim.Progress) bool {
			if p.Round%100 == 0 {
				fmt.Printf("  t=%-4d round %d/%d\n", p.VirtualTime, p.Round, p.Rounds)
			}
			progress++
			return true // false would stop block production early
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  observer saw %d rounds\n", progress)
	fmt.Println(" ", res)
	fmt.Println("  blocks mined:", res.Stats["mined"], "— getToken calls:", res.Stats["getToken"])

	fmt.Println("\n--- the measured verdicts (the registry's claims are checked, not trusted) ---")
	sc, ec := res.Check()
	fmt.Println(" ", sc, " ←  transient forks make reads incomparable")
	fmt.Println(" ", ec, " ←  but every divergence resolves (the paper's Bitcoin row)")
	fmt.Printf("  claimed: oracle %s, criterion %s; measured fork degree %d\n",
		res.Info.Oracle, res.Info.Criterion, res.MeasuredForkMax)

	fmt.Println("\n--- determinism: the same (system, options, seed) replays byte-identically ---")
	again, err := btsim.Run("bitcoin",
		btsim.WithN(4), btsim.WithRounds(300), btsim.WithSeed(42),
		btsim.WithReadEvery(6), btsim.WithDifficulty(10))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  digest %s replayed as %s — identical: %v\n",
		res.Digest(), again.Digest(), res.Digest() == again.Digest())

	fmt.Println("\n--- errors name their options: btsim.Run(\"dogecoin\") ---")
	if _, err := btsim.Run("dogecoin"); err != nil {
		fmt.Println(" ", err)
	}
}

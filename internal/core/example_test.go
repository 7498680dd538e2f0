package core_test

import (
	"fmt"

	"repro/internal/core"
)

// ExampleChain_Prefix shows the prefix relation ⊑ that the Strong Prefix
// property quantifies over.
func ExampleChain_Prefix() {
	g := core.Genesis()
	b1 := core.NewBlock(g.ID, 1, 0, 1, []byte("b1"))
	b2 := core.NewBlock(b1.ID, 2, 0, 2, []byte("b2"))
	short := core.GenesisChain().Append(b1)
	long := short.Append(b2)

	fmt.Println(short.Prefix(long))
	fmt.Println(long.Prefix(short))
	fmt.Println(short.Comparable(long))
	// Output:
	// true
	// false
	// true
}

// ExampleMCPS shows the maximal-common-prefix score used by the Eventual
// Prefix property (Definition 3.3).
func ExampleMCPS() {
	g := core.Genesis()
	shared := core.NewBlock(g.ID, 1, 0, 1, []byte("shared"))
	left := core.NewBlock(shared.ID, 2, 1, 2, []byte("left"))
	right := core.NewBlock(shared.ID, 2, 2, 3, []byte("right"))

	a := core.GenesisChain().Append(shared).Append(left)
	b := core.GenesisChain().Append(shared).Append(right)

	fmt.Println(core.MCPS(core.LengthScore{}, a, b))
	fmt.Println(core.MCPS(core.LengthScore{}, a, a))
	// Output:
	// 1
	// 2
}

// ExampleGHOST shows the heaviest-observed-subtree selector diverging
// from the longest chain: three sibling blocks outweigh a longer path.
func ExampleGHOST() {
	tr := core.NewTree()
	g := core.Genesis()
	heavy := core.NewBlock(g.ID, 1, 0, 1, []byte("hub"))
	tr.Attach(heavy) //nolint:errcheck
	for i := 0; i < 3; i++ {
		tr.Attach(core.NewBlock(heavy.ID, 2, i, 10+i, []byte{byte(i)})) //nolint:errcheck
	}
	lone := core.NewBlock(g.ID, 1, 4, 20, []byte("lone"))
	tr.Attach(lone) //nolint:errcheck
	l2 := core.NewBlock(lone.ID, 2, 4, 21, []byte("l2"))
	tr.Attach(l2) //nolint:errcheck
	l3 := core.NewBlock(l2.ID, 3, 4, 22, []byte("l3"))
	tr.Attach(l3) //nolint:errcheck

	fmt.Println("longest goes through hub:", core.LongestChain{}.Select(tr).Block(1).ID == heavy.ID)
	fmt.Println("ghost goes through hub:", core.GHOST{}.Select(tr).Block(1).ID == heavy.ID)
	// Output:
	// longest goes through hub: false
	// ghost goes through hub: true
}

package chase_test

import (
	"fmt"

	"templatedep/internal/chase"
	"templatedep/internal/relation"
	"templatedep/internal/td"
)

func ExampleImplies() {
	s := relation.MustSchema("A", "B", "C")
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	goal := td.MustParse(s, "R(a, b, c) & R(a, b', c') & R(a, b'', c'') -> R(a, b, c'')", "goal")
	res, err := chase.Implies([]*td.TD{join}, goal, chase.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Verdict)
	// Output: implied
}

func ExampleImplies_counterexample() {
	s := relation.MustSchema("A", "B", "C")
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	goal := td.MustParse(s, "R(a, b, c) & R(a', b', c') -> R(a, b, c')", "goal")
	res, err := chase.Implies([]*td.TD{join}, goal, chase.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Verdict, "fixpoint:", res.FixpointReached)
	// The fixpoint instance is a finite database satisfying join and
	// violating the goal.
	// Output: not-implied fixpoint: true
}

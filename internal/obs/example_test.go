package obs_test

import (
	"fmt"

	"templatedep/internal/chase"
	"templatedep/internal/obs"
	"templatedep/internal/relation"
	"templatedep/internal/td"
)

// firedCount is a minimal custom Sink: it counts how often each dependency
// fires, ignoring every other event.
type firedCount map[int]int

func (c firedCount) Event(e obs.Event) {
	if e.Type == obs.EvDepFired {
		c[e.Dep] += e.N
	}
}

// A custom Sink attached to chase.Options observes the run without touching
// its results: here it tallies trigger firings per dependency while the
// chase decides a full-TD implication.
func ExampleSink() {
	s := relation.MustSchema("A", "B", "C")
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	goal := td.MustParse(s, "R(a, b0, c0) & R(a, b1, c1) -> R(a, b0, c1)", "goal")

	fired := firedCount{}
	opt := chase.Options{}
	opt.Sink = fired

	res, err := chase.Implies([]*td.TD{join}, goal, opt)
	if err != nil {
		panic(err)
	}
	fmt.Printf("verdict: %s\n", res.Verdict)
	fmt.Printf("join fired %d triggers\n", fired[0])
	// Output:
	// verdict: implied
	// join fired 2 triggers
}

// A CounterSink folds the event stream into named monotonic counters; the
// snapshot is plain data, ready for a JSON report or a metrics push.
func ExampleCounters() {
	s := relation.MustSchema("A", "B", "C")
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	goal := td.MustParse(s, "R(a, b0, c0) & R(a, b1, c1) -> R(a, b0, c1)", "goal")

	ctrs := obs.NewCounters()
	opt := chase.Options{}
	opt.Sink = obs.NewCounterSink(ctrs)
	if _, err := chase.Implies([]*td.TD{join}, goal, opt); err != nil {
		panic(err)
	}
	for _, name := range ctrs.Names() {
		fmt.Printf("%s = %d\n", name, ctrs.Get(name))
	}
	// Output:
	// chase.dep.0.added = 2
	// chase.dep.0.fired = 2
	// chase.homomorphisms = 4
	// chase.rounds = 1
	// chase.triggers_fired = 2
	// chase.tuples_added = 2
	// chase.verdicts = 1
}

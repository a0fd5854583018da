package templatedep_test

import (
	"bytes"
	"templatedep/internal/budget"
	"testing"

	"templatedep/internal/chase"
	"templatedep/internal/obs"
	"templatedep/internal/reduction"
	"templatedep/internal/relation"
	"templatedep/internal/td"
	"templatedep/internal/words"
)

// A trace file is only trustworthy if it replays to the run it describes:
// folding the JSONL stream back together must reproduce the Stats the
// chase itself reported, on the paper's own implication workloads.
func TestTraceReplayMatchesStats(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *words.Presentation
	}{
		{"chain1", words.ChainPresentation(1)},
		{"chain2", words.ChainPresentation(2)},
		{"chain3", words.ChainPresentation(3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := reduction.MustBuild(tc.p)
			var buf bytes.Buffer
			opt := chase.Options{Governor: budget.New(nil, budget.Limits{Rounds: 32, Tuples: 200000}),
				Sink: obs.NewJSONLSink(&buf)}
			res, err := chase.Implies(in.D, in.D0, opt)
			if err != nil {
				t.Fatal(err)
			}
			tot, err := obs.Replay(&buf)
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if tot.Rounds != st.Rounds {
				t.Errorf("rounds: replay %d, stats %d", tot.Rounds, st.Rounds)
			}
			if tot.TriggersFired != st.TriggersFired {
				t.Errorf("fired: replay %d, stats %d", tot.TriggersFired, st.TriggersFired)
			}
			if tot.TuplesAdded != st.TuplesAdded {
				t.Errorf("added: replay %d, stats %d", tot.TuplesAdded, st.TuplesAdded)
			}
			if tot.NullsCreated != st.NullsCreated {
				t.Errorf("nulls: replay %d, stats %d", tot.NullsCreated, st.NullsCreated)
			}
			if tot.Homomorphisms != st.HomomorphismsSeen {
				t.Errorf("homs: replay %d, stats %d", tot.Homomorphisms, st.HomomorphismsSeen)
			}
			if got := tot.Verdicts["chase"]; got != res.Verdict.String() {
				t.Errorf("verdict: replay %q, run %q", got, res.Verdict)
			}
		})
	}
}

// The chase emits events only from its sequential merge phase, so the trace
// must be byte-identical no matter how many workers enumerate triggers —
// the same guarantee the engine gives for its results, extended to its
// observability. The oracle cases are independence atoms from the oracle
// corpus family (seed 1's oracle/017 and oracle/069) at the serving class.
// The tuple cap stops their last round. There the collect tasks' trigger
// cap binds under some worker counts, and the tasks themselves differ with
// the worker count, so the round's consumed prefix must be counted the
// same way across task boundaries.
func TestEventStreamWorkerIndependent(t *testing.T) {
	s3 := relation.MustSchema("A", "B", "C")
	closure, err := td.ParseSet(s3, `
join:   R(a, b, c) & R(a, b', c') -> R(a, b, c')
mirror: R(a, b, c) & R(a', b, c') -> R(a, b, c')
tail:   R(a, b, c) & R(a', b', c) -> R(a, b', c)
`)
	if err != nil {
		t.Fatal(err)
	}
	start := relation.NewInstance(s3)
	for i := 0; i < 8; i++ {
		start.MustAdd(relation.Tuple{relation.Value(i % 2), relation.Value(i % 3), relation.Value(i)})
	}
	s4 := relation.MustSchema("A", "B", "C", "D")
	atom := func(deps, goal string) ([]*td.TD, *relation.Instance) {
		set, err := td.ParseSet(s4, deps)
		if err != nil {
			t.Fatal(err)
		}
		frozen, _ := td.MustParse(s4, goal, "goal").FrozenAntecedents()
		return set, frozen
	}
	deps017, start017 := atom(`
d0: R(a0, b0, c0, d0) & R(a1, b1, c1, d1) -> R(a2, b1, c0, d1)
d1: R(a0, b0, c0, d0) & R(a1, b1, c1, d1) -> R(a1, b0, c0, d2)
`, "R(a0, b0, c0, d0) & R(a1, b1, c1, d1) -> R(a0, b1, c0, d0)")
	deps069, start069 := atom(`
d0: R(a0, b0, c0, d0) & R(a1, b1, c1, d1) -> R(a2, b2, c1, d0)
d1: R(a0, b0, c0, d0) & R(a1, b1, c1, d1) -> R(a1, b0, c2, d2)
`, "R(a0, b0, c0, d0) & R(a1, b1, c1, d1) -> R(a1, b0, c0, d0)")
	serving := budget.Limits{Rounds: 24, Tuples: 500}
	for _, tc := range []struct {
		name   string
		deps   []*td.TD
		start  *relation.Instance
		limits budget.Limits
		want   budget.Outcome
	}{
		{"closure", closure, start, budget.Limits{Rounds: 50, Tuples: 20000}, budget.Outcome{}},
		{"oracle-017", deps017, start017, serving, budget.Exhausted(budget.Tuples)},
		{"oracle-069", deps069, start069, serving, budget.Exhausted(budget.Tuples)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trace := func(workers int) []byte {
				var buf bytes.Buffer
				e, err := chase.NewEngine(tc.start.Schema(), tc.deps, chase.Options{Governor: budget.New(nil, tc.limits),
					Workers: workers, Sink: obs.NewJSONLSink(&buf)})
				if err != nil {
					t.Fatal(err)
				}
				if res := e.Chase(tc.start, nil); res.Budget != tc.want || !res.Budget.Stopped() && !res.FixpointReached {
					t.Fatalf("workers %d: budget %v, fixpoint %v; want budget %v", workers, res.Budget, res.FixpointReached, tc.want)
				}
				return buf.Bytes()
			}
			seq := trace(1)
			for _, workers := range []int{2, 4} {
				if par := trace(workers); !bytes.Equal(seq, par) {
					t.Errorf("event streams differ between Workers=1 (%d bytes) and Workers=%d (%d bytes):\n--- 1:\n%s--- %d:\n%s",
						len(seq), workers, len(par), seq, workers, par)
				}
			}
		})
	}
}

// Attaching the no-op sink must not change the engine's allocation profile:
// events are stack values and every aggregation is scalar. Measured on the
// BenchmarkChaseSchedulers workload.
func TestNopSinkAllocParity(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	s := relation.MustSchema("A", "B", "C")
	join := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	start := relation.NewInstance(s)
	for i := 0; i < 6; i++ {
		start.MustAdd(relation.Tuple{0, relation.Value(i), relation.Value(i)})
	}
	run := func(sink obs.Sink) float64 {
		return testing.AllocsPerRun(10, func() {
			e, err := chase.NewEngine(s, []*td.TD{join}, chase.Options{
				Governor: budget.New(nil, budget.Limits{Rounds: 50, Tuples: 10000}),
				Sink:     sink})
			if err != nil {
				t.Fatal(err)
			}
			if res := e.Chase(start, nil); !res.FixpointReached {
				t.Fatal("no fixpoint")
			}
		})
	}
	bare, nop := run(nil), run(obs.Nop{})
	if diff := nop - bare; diff > 0.5 || diff < -0.5 {
		t.Errorf("no-op sink changes allocations: nil sink %.1f allocs, Nop %.1f allocs", bare, nop)
	}
}

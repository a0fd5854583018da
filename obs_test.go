package templatedep_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"templatedep/internal/budget"

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

// The chase's event stream is a pure function of the problem and the
// limits. Each case's golden trace in testdata/chase was recorded when the
// engine still enumerated a round's triggers on a worker pool and merged
// them afterwards; Workers 1, 2 and 4 gave those same bytes, and the
// one-pass round must give them too. The oracle cases are independence
// atoms from the oracle corpus family (seed 1's oracle/017 and oracle/069)
// at the serving class: the tuple cap stops their last round, which pins
// the round's consumed prefix, and they invent nulls. The invent case adds
// an embedded dependency to a full one and pins the run's Stats and proof
// as well; its embedded dependency never fires, because each of its
// conclusions is witnessed by its own second antecedent.
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
	invent, err := td.ParseSet(s3, `
join:   R(a, b, c) & R(a, b', c') -> R(a, b, c')
invent: R(a, b, c) & R(a', b, c') -> R(a*, b, c')
`)
	if err != nil {
		t.Fatal(err)
	}
	startInvent := relation.NewInstance(s3)
	for i := 0; i < 12; i++ {
		startInvent.MustAdd(relation.Tuple{relation.Value(i % 3), relation.Value(i % 4), relation.Value(i)})
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
		{"invent", invent, startInvent, budget.Limits{Rounds: 4, Tuples: 4000}, budget.Outcome{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			e, err := chase.NewEngine(tc.start.Schema(), tc.deps, chase.Options{Governor: budget.New(nil, tc.limits),
				Sink: obs.NewJSONLSink(&buf)})
			if err != nil {
				t.Fatal(err)
			}
			res := e.Chase(tc.start, nil)
			if res.Budget != tc.want || !res.Budget.Stopped() && !res.FixpointReached {
				t.Fatalf("budget %v, fixpoint %v; want budget %v", res.Budget, res.FixpointReached, tc.want)
			}
			golden := readGolden(t, tc.name+".jsonl")
			if !bytes.Equal(buf.Bytes(), golden) {
				t.Errorf("event stream differs from testdata/chase/%s.jsonl:\n--- got:\n%s--- want:\n%s", tc.name, buf.Bytes(), golden)
			}
			if tc.name != "invent" {
				return
			}
			if want := (chase.Stats{Rounds: 2, TriggersFired: 36, TuplesAdded: 36, HomomorphismsSeen: 1344}); !reflect.DeepEqual(res.Stats, want) {
				t.Errorf("stats %+v, want %+v", res.Stats, want)
			}
			var proof bytes.Buffer
			for _, f := range res.Proof() {
				fmt.Fprintf(&proof, "%d %d %v\n", f.Round, f.Dep, f.Tuple)
			}
			if golden := readGolden(t, "invent.proof"); !bytes.Equal(proof.Bytes(), golden) {
				t.Errorf("proof differs from testdata/chase/invent.proof:\n--- got:\n%s--- want:\n%s", proof.Bytes(), golden)
			}
		})
	}
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "chase", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
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

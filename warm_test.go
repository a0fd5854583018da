package templatedep_test

import (
	"bytes"
	"reflect"
	"testing"

	"templatedep/internal/budget"
	"templatedep/internal/chase"
	"templatedep/internal/obs"
	"templatedep/internal/reduction"
	"templatedep/internal/words"
)

// A warm start must be invisible in everything but wall clock: the chase of
// a fixed (D, start) pair is one deterministic computation, and a snapshot
// only changes where a run begins observing it. These tests pin that down
// on the paper's own workloads: warm and cold runs must agree on the
// verdict, every Stats field, the tuple-for-tuple identity of the final
// instance, and the chase proof.

func warmCase(t *testing.T, in *reduction.Instance, producer, consumer budget.Limits) {
	t.Helper()
	prod, err := chase.Implies(in.D, in.D0, chase.Options{
		CaptureState: true, Governor: budget.New(nil, producer)})
	if err != nil {
		t.Fatal(err)
	}
	if prod.State == nil {
		t.Fatal("producer run captured no state")
	}
	warm, err := chase.Implies(in.D, in.D0, chase.Options{
		WarmState: prod.State, Governor: budget.New(nil, consumer)})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := chase.Implies(in.D, in.D0, chase.Options{
		Governor: budget.New(nil, consumer)})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted {
		t.Error("consumer run did not warm-start")
	}
	if warm.Verdict != cold.Verdict {
		t.Errorf("verdict: warm %v, cold %v", warm.Verdict, cold.Verdict)
	}
	if warm.FixpointReached != cold.FixpointReached {
		t.Errorf("fixpoint: warm %v, cold %v", warm.FixpointReached, cold.FixpointReached)
	}
	if warm.Budget != cold.Budget {
		t.Errorf("budget outcome: warm %v, cold %v", warm.Budget, cold.Budget)
	}
	if !reflect.DeepEqual(warm.Stats, cold.Stats) {
		t.Errorf("stats: warm %+v, cold %+v", warm.Stats, cold.Stats)
	}
	if warm.Instance.Len() != cold.Instance.Len() ||
		!warm.Instance.EqualPrefix(cold.Instance, cold.Instance.Len()) {
		t.Errorf("instances differ: warm %d tuples, cold %d tuples",
			warm.Instance.Len(), cold.Instance.Len())
	}
	if !reflect.DeepEqual(warm.Proof(), cold.Proof()) || !reflect.DeepEqual(warm.Bounds(), cold.Bounds()) {
		t.Errorf("proofs differ: warm %d steps over rounds %v, cold %d steps over rounds %v",
			len(warm.Proof()), warm.Bounds(), len(cold.Proof()), cold.Bounds())
	}
}

func TestWarmVsColdIdentical(t *testing.T) {
	wide := budget.Limits{Rounds: 64, Tuples: 200000}
	for _, tc := range []struct {
		name               string
		p                  *words.Presentation
		producer, consumer budget.Limits
	}{
		// Chain runs complete (implied); the snapshot replays to the goal.
		{"chain1", words.ChainPresentation(1), wide, budget.Limits{Rounds: 128, Tuples: 400000}},
		{"chain2", words.ChainPresentation(2), wide, budget.Limits{Rounds: 128, Tuples: 400000}},
		// A producer stopped before the goal: the consumer resumes it
		// and its proof spans both runs.
		{"chain2-resume", words.ChainPresentation(2), budget.Limits{Rounds: 3, Tuples: 100000},
			budget.Limits{Rounds: 128, Tuples: 400000}},
		// The gap instance diverges (round 5 is intractable — see
		// budget_integration_test.go): the producer is stopped by its rounds
		// meter at 3 and the consumer's strictly larger budget class resumes
		// the stopped snapshot into round 4.
		{"gap", words.IdempotentGapPresentation(), budget.Limits{Rounds: 3, Tuples: 100000},
			budget.Limits{Rounds: 4, Tuples: 200000}},
	} {
		in := reduction.MustBuild(tc.p)
		t.Run(tc.name, func(t *testing.T) {
			warmCase(t, in, tc.producer, tc.consumer)
		})
	}
}

// A budget-stopped snapshot may only seed runs of a STRICTLY larger budget
// class; smaller-or-equal classes must chase cold (and still get the right
// answer).
func TestStoppedStateBudgetClassRule(t *testing.T) {
	in := reduction.MustBuild(words.IdempotentGapPresentation())
	producer := budget.Limits{Rounds: 3, Tuples: 100000}
	prod, err := chase.Implies(in.D, in.D0, chase.Options{
		CaptureState: true, Governor: budget.New(nil, producer)})
	if err != nil {
		t.Fatal(err)
	}
	if prod.State == nil || !prod.State.Stopped() {
		t.Fatalf("expected a budget-stopped state, got %+v", prod.State)
	}
	for _, tc := range []struct {
		name     string
		limits   budget.Limits
		reusable bool
	}{
		{"equal", budget.Limits{Rounds: 3, Tuples: 100000}, false},
		{"smaller", budget.Limits{Rounds: 2, Tuples: 50000}, false},
		// One strictly larger meter suffices; the replay re-enforces the
		// other meter exactly as a cold run would.
		{"tuples-larger", budget.Limits{Rounds: 3, Tuples: 200000}, true},
		{"larger", budget.Limits{Rounds: 4, Tuples: 200000}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			warm, err := chase.Implies(in.D, in.D0, chase.Options{
				WarmState: prod.State,
				Governor:  budget.New(nil, tc.limits)})
			if err != nil {
				t.Fatal(err)
			}
			if warm.WarmStarted != tc.reusable {
				t.Errorf("WarmStarted = %v, want %v", warm.WarmStarted, tc.reusable)
			}
			cold, err := chase.Implies(in.D, in.D0, chase.Options{
				Governor: budget.New(nil, tc.limits)})
			if err != nil {
				t.Fatal(err)
			}
			if warm.Verdict != cold.Verdict || !reflect.DeepEqual(warm.Stats, cold.Stats) {
				t.Errorf("warm fallback diverged from cold: %v/%+v vs %v/%+v",
					warm.Verdict, warm.Stats, cold.Verdict, cold.Stats)
			}
		})
	}
}

// The replay invariant extends to the incremental path: a warm trace folds
// its skipped prefix into one chase_warmstart event, and replaying the
// stream must still reproduce the run's Stats exactly.
func TestWarmTraceReplayMatchesStats(t *testing.T) {
	for _, tc := range []struct {
		name               string
		p                  *words.Presentation
		producer, consumer budget.Limits
	}{
		{"chain1", words.ChainPresentation(1),
			budget.Limits{Rounds: 32, Tuples: 200000}, budget.Limits{Rounds: 32, Tuples: 200000}},
		{"chain2", words.ChainPresentation(2),
			budget.Limits{Rounds: 32, Tuples: 200000}, budget.Limits{Rounds: 32, Tuples: 200000}},
		// Resume path: stopped producer, larger consumer class.
		{"gap-resume", words.IdempotentGapPresentation(),
			budget.Limits{Rounds: 3, Tuples: 100000}, budget.Limits{Rounds: 4, Tuples: 200000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := reduction.MustBuild(tc.p)
			prod, err := chase.Implies(in.D, in.D0, chase.Options{
				CaptureState: true, Governor: budget.New(nil, tc.producer)})
			if err != nil {
				t.Fatal(err)
			}
			if prod.State == nil {
				t.Fatal("no state captured")
			}
			var buf bytes.Buffer
			res, err := chase.Implies(in.D, in.D0, chase.Options{
				WarmState: prod.State,
				Governor:  budget.New(nil, tc.consumer),
				Sink:      obs.NewJSONLSink(&buf)})
			if err != nil {
				t.Fatal(err)
			}
			if !res.WarmStarted {
				t.Fatal("run did not warm-start")
			}
			tot, err := obs.Replay(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if tot.WarmStarts != 1 {
				t.Errorf("warm starts: replay %d, want 1", tot.WarmStarts)
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

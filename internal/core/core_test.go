package core

import (
	"testing"

	"templatedep/internal/budget"
	"templatedep/internal/chase"
	"templatedep/internal/search"
	"templatedep/internal/tm"
	"templatedep/internal/words"
)

func TestAnalyzePresentationImplied(t *testing.T) {
	b := Budget{}
	b.Chase = chase.Options{Governor: budget.New(nil, budget.Limits{Rounds: 12, Tuples: 60000})}
	res, err := AnalyzePresentation(words.TwoStepPresentation(), b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Implied {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.Derivation == nil {
		t.Error("missing derivation certificate")
	}
	if res.ChaseProof == nil {
		t.Error("chase should confirm within budget")
	}
}

func TestAnalyzePresentationCounterexample(t *testing.T) {
	res, err := AnalyzePresentation(words.PowerPresentation(), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != FiniteCounterexample {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.CounterModel == nil || res.Witness == nil {
		t.Fatal("missing counterexample artifacts")
	}
	// The database-level counterexample is verified inside; spot-check D0.
	if ok, _ := res.Instance.D0.Satisfies(res.CounterModel.Instance); ok {
		t.Error("counter-model satisfies D0")
	}
}

func TestGoalRefutedFlag(t *testing.T) {
	// power: the closure exhausts A0's singleton class — refuted directly.
	res, err := AnalyzePresentation(words.PowerPresentation(), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.GoalRefuted {
		t.Error("power: goal refutation not reported")
	}
	// gap: the class is infinite, but Knuth–Bendix completion succeeds and
	// decides the word problem negatively.
	b := Budget{}
	b.Closure = words.ClosureOptions{Governor: budget.New(nil, budget.Limits{Words: 200}), LengthCap: 8}
	b.ModelSearch = search.Options{Orders: budget.Range{Lo: 2, Hi: 3}, Governor: budget.New(nil, budget.Limits{Nodes: 100000})}
	res2, err := AnalyzePresentation(words.IdempotentGapPresentation(), b)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Verdict != Unknown {
		t.Fatalf("verdict %v", res2.Verdict)
	}
	if !res2.GoalRefuted {
		t.Error("gap: completion should refute derivability")
	}
	// twostep: derivable — no refutation.
	res3, err := AnalyzePresentation(words.TwoStepPresentation(), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res3.GoalRefuted {
		t.Error("twostep: spurious refutation")
	}
}

func TestAnalyzePresentationUnknownGap(t *testing.T) {
	// The idempotent-gap instance lies in NEITHER set; with finite budgets
	// the result must be Unknown.
	b := Budget{}
	b.Closure = words.ClosureOptions{Governor: budget.New(nil, budget.Limits{Words: 300}), LengthCap: 8}
	b.ModelSearch = search.Options{Orders: budget.Range{Lo: 2, Hi: 4}, Governor: budget.New(nil, budget.Limits{Nodes: 200000})}
	res, err := AnalyzePresentation(words.IdempotentGapPresentation(), b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unknown {
		t.Fatalf("verdict %v — the gap instance must stay undecided", res.Verdict)
	}
}

func TestAnalyzeTMHalting(t *testing.T) {
	b := Budget{}
	b.Closure = words.ClosureOptions{Governor: budget.New(nil, budget.Limits{Words: 200000})}
	// Skip the chase confirmation for the TM instance (its schema is wide);
	// the derivation alone certifies direction (A).
	b.Chase = chase.Options{Governor: budget.New(nil, budget.Limits{Rounds: 1, Tuples: 50})}
	res, err := AnalyzeTM(tm.WriteOneAndHalt(), nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Implied {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.Derivation == nil {
		t.Fatal("missing derivation")
	}
}

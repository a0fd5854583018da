package core

import (
	"testing"
	"time"

	"templatedep/internal/budget"
	"templatedep/internal/words"
)

func TestDeepeningFindsAnswersFromTinyBudgets(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *words.Presentation
		want Verdict
	}{
		{"twostep", words.TwoStepPresentation(), Implied},
		{"power", words.PowerPresentation(), FiniteCounterexample},
		{"chain2", words.ChainPresentation(2), Implied},
	} {
		g, cancel := budget.ForDuration(10*time.Second, budget.Limits{Rounds: 16})
		res, rounds, err := AnalyzePresentationDeepening(tc.p, DeepeningOptions{Governor: g})
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Verdict != tc.want {
			t.Errorf("%s: verdict %v after %d rounds, want %v", tc.name, res.Verdict, rounds, tc.want)
		}
	}
}

func TestDeepeningGapStaysUnknown(t *testing.T) {
	g, cancel := budget.ForDuration(300*time.Millisecond, budget.Limits{Rounds: 6})
	defer cancel()
	res, rounds, err := AnalyzePresentationDeepening(words.IdempotentGapPresentation(),
		DeepeningOptions{Governor: g})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unknown {
		t.Errorf("verdict %v after %d rounds — the gap instance must stay undecided", res.Verdict, rounds)
	}
}

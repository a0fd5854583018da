package search

import (
	"templatedep/internal/budget"
	"testing"

	"templatedep/internal/semigroup"
	"templatedep/internal/words"
)

func TestFindCounterModelPower(t *testing.T) {
	// {A0·A0 = B}: the null semigroup of order 2 (A0 -> x, B -> 0, x² = 0)
	// is already a counterexample; the search must find order 2.
	res, err := FindCounterModel(words.PowerPresentation(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interpretation == nil {
		t.Fatalf("outcome %v after %d nodes", res.Status(), res.NodesVisited)
	}
	if got := res.Interpretation.Table.Size(); got != 2 {
		t.Errorf("model order %d, want minimal 2", got)
	}
	if err := res.Interpretation.IsModelOfMainLemmaFailure(res.Presentation); err != nil {
		t.Error(err)
	}
}

func TestFindCounterModelNilpotentSafe(t *testing.T) {
	// B1 denotes A0², B2 denotes A0³; models where everything beyond A0
	// collapses to zero exist at order 2 (A0 -> x, B1, B2 -> 0).
	res, err := FindCounterModel(words.NilpotentSafePresentation(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interpretation == nil {
		t.Fatalf("outcome %v", res.Status())
	}
	if err := res.Interpretation.IsModelOfMainLemmaFailure(res.Presentation); err != nil {
		t.Error(err)
	}
}

func TestFindCounterModelDerivableHasNone(t *testing.T) {
	// TwoStep: A0 = 0 is derivable, so NO model of any size can falsify it.
	res, err := FindCounterModel(words.TwoStepPresentation(), Options{Orders: budget.Range{Lo: 2, Hi: 3}, Governor: budget.New(nil, budget.Limits{Nodes: 2_000_000})})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interpretation != nil {
		t.Fatalf("found impossible counterexample:\n%s", res.Interpretation.Table.String())
	}
}

func TestFindCounterModelIdempotentGap(t *testing.T) {
	// {A0·A0 = A0}: not derivable, but condition (ii) excludes every finite
	// cancellation counterexample without identity. The search must exhaust
	// its bounds without a model.
	res, err := FindCounterModel(words.IdempotentGapPresentation(), Options{Orders: budget.Range{Lo: 2, Hi: 4}, Governor: budget.New(nil, budget.Limits{Nodes: 4_000_000})})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Status(); got != "no-model-within-bounds" {
		t.Fatalf("outcome %v, want no-model-within-bounds", got)
	}
}

func TestFindCounterModelChain(t *testing.T) {
	// Chain presentations are derivable; no counterexample may be found.
	res, err := FindCounterModel(words.ChainPresentation(2), Options{Orders: budget.Range{Lo: 2, Hi: 3}, Governor: budget.New(nil, budget.Limits{Nodes: 3_000_000})})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interpretation != nil {
		t.Fatal("found impossible counterexample for a derivable instance")
	}
}

func TestFindCounterModelBudget(t *testing.T) {
	// An equation-free alphabet at order 3 leaves four free cells; a budget
	// of 3 nodes cannot reach a leaf, so the search must report exhaustion.
	a := words.MustAlphabet([]string{"A0", "X", "0"}, "A0", "0")
	p, err := words.NewPresentation(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FindCounterModel(p, Options{Orders: budget.Range{Lo: 3, Hi: 3}, Governor: budget.New(nil, budget.Limits{Nodes: 3})})
	if err != nil {
		t.Fatal(err)
	}
	if res.Budget != budget.Exhausted(budget.Nodes) {
		t.Fatalf("outcome %v (nodes %d), want exhausted:nodes", res.Status(), res.NodesVisited)
	}
}

func TestFindCounterModelNormalizesLongEquations(t *testing.T) {
	// A presentation with a length-3 equation must be normalized internally
	// and the witness mapped back to the original alphabet.
	a := words.MustAlphabet([]string{"A0", "C", "0"}, "A0", "0")
	p, err := words.NewPresentation(a, []words.Equation{
		words.Eq(words.MustParseWord(a, "A0 A0 A0"), words.MustParseWord(a, "C")),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := FindCounterModel(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interpretation == nil {
		t.Fatalf("outcome %v", res.Status())
	}
	// The verified witness must be over the ORIGINAL alphabet.
	for _, s := range a.Symbols() {
		if _, ok := res.Interpretation.Assign[s]; !ok {
			t.Errorf("symbol %s unassigned in mapped-back witness", a.Name(s))
		}
	}
	if err := res.Interpretation.IsModelOfMainLemmaFailure(p.WithZeroEquations()); err != nil {
		t.Error(err)
	}
}

func TestQuotientFastPath(t *testing.T) {
	opt := Options{}
	opt.QuotientClasses = 3
	res, err := FindCounterModel(words.PowerPresentation(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interpretation == nil {
		t.Fatalf("outcome %v", res.Status())
	}
	if res.NodesVisited != 0 {
		t.Errorf("quotient path should cost no search nodes, used %d", res.NodesVisited)
	}
	if err := res.Interpretation.IsModelOfMainLemmaFailure(res.Presentation); err != nil {
		t.Error(err)
	}
	// The fast path must not produce false positives on derivable input:
	// the table search still runs (and finds nothing).
	opt2 := Options{Orders: budget.Range{Lo: 2, Hi: 3}, Governor: budget.New(nil, budget.Limits{Nodes: 2_000_000}), QuotientClasses: 3}
	res2, err := FindCounterModel(words.TwoStepPresentation(), opt2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Interpretation != nil {
		t.Fatal("impossible witness for a derivable presentation")
	}
}

func TestFoundModelsHaveCancellation(t *testing.T) {
	for _, p := range []*words.Presentation{
		words.PowerPresentation(),
		words.NilpotentSafePresentation(1),
	} {
		res, err := FindCounterModel(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Interpretation == nil {
			t.Fatalf("outcome %v", res.Status())
		}
		if err := semigroup.CheckCancellation(res.Interpretation.Table); err != nil {
			t.Error(err)
		}
		if _, hasID := res.Interpretation.Table.Identity(); hasID {
			t.Error("model has an identity")
		}
	}
}

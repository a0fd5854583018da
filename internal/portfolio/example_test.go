package portfolio_test

import (
	"fmt"

	"templatedep/internal/core"
	"templatedep/internal/portfolio"
	"templatedep/internal/reduction"
	"templatedep/internal/words"
)

func ExampleAnalyzePresentation() {
	// The two-step instance: A0 = b·c = 0 is derivable, so by Reduction
	// Theorem (A) the generated dependency set implies D0.
	res, err := portfolio.AnalyzePresentation(words.TwoStepPresentation(), core.Budget{})
	if err != nil {
		panic(err)
	}
	fmt.Println("verdict:", res.Verdict, "won by", res.Winner)
	fmt.Println("derivation steps:", len(res.Cert().Derivation.Steps))
	// The derivation settles the run alone, so (D, D0) was never built;
	// build it to count the dependencies.
	in, err := reduction.Build(words.TwoStepPresentation())
	if err != nil {
		panic(err)
	}
	fmt.Println("dependencies:", len(in.D))
	// Output:
	// verdict: implied won by derivation
	// derivation steps: 2
	// dependencies: 36
}

func ExampleAnalyzePresentation_counterexample() {
	// {A0·A0 = B}: falsified by a finite cancellation semigroup, so by
	// part (B) a finite database separates D from D0.
	res, err := portfolio.AnalyzePresentation(words.PowerPresentation(), core.Budget{})
	if err != nil {
		panic(err)
	}
	fmt.Println("verdict:", res.Verdict, "won by", res.Winner)
	fmt.Println("witness order:", res.Witness.Table.Size())
	fmt.Println("database tuples:", res.CounterModel.Instance.Len())
	// Output:
	// verdict: finite-counterexample won by model-search
	// witness order: 2
	// database tuples: 3
}

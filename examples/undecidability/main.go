// Undecidability: the paper's Main Theorem made executable. Three word
// problem instances are pushed through the Gurevich–Lewis reduction; the
// adaptive portfolio certifies one as IMPLIED (with an explicit
// derivation of A0 = 0), one as having a FINITE COUNTEREXAMPLE (with an
// explicit finite semigroup and database), and leaves the third — an
// instance in neither of the effectively inseparable sets — UNKNOWN.
package main

import (
	"fmt"
	"log"

	"templatedep/internal/budget"
	"templatedep/internal/cert"
	"templatedep/internal/chase"
	"templatedep/internal/core"
	"templatedep/internal/portfolio"
	"templatedep/internal/reduction"
	"templatedep/internal/words"
)

func main() {
	b := core.Budget{}
	// The gap instance's chase roughly squares its instance every round;
	// a tuple ceiling under its round-five blow-up keeps that arm's leases
	// short.
	b.Chase = chase.Options{Governor: budget.New(nil, budget.Limits{Rounds: 16, Tuples: 1500})}
	b.Closure = words.ClosureOptions{Governor: budget.New(nil, budget.Limits{Words: 5000}), LengthCap: 10}

	cases := []struct {
		name string
		p    *words.Presentation
		why  string
	}{
		{"two-step", words.TwoStepPresentation(),
			"A0 = bc = 0 is derivable, so by Reduction Theorem (A) the dependencies D imply D0"},
		{"power", words.PowerPresentation(),
			"the nilpotent semigroup N3 falsifies A0 = 0, so by (B) a finite database violates D0"},
		{"idempotent-gap", words.IdempotentGapPresentation(),
			"A0·A0 = A0 is in NEITHER set: not derivable, and condition (ii) bars every finite cancellation model"},
	}

	for _, c := range cases {
		fmt.Printf("=== %s ===\n", c.name)
		fmt.Printf("presentation:\n%s", words.FormatSpec(c.p, true))
		fmt.Printf("why: %s\n", c.why)

		res, err := portfolio.AnalyzePresentation(c.p, b)
		if err != nil {
			log.Fatal(err)
		}
		in := res.Instance
		if in == nil {
			// A derivation or kb win never needed (D, D0): build it to print.
			if in, err = reduction.Build(c.p); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("reduction: %d attributes, |D| = %d, max antecedents %d\n",
			in.Schema.Width(), len(in.D), in.MaxAntecedents())
		fmt.Printf("verdict: %s\n", res.Verdict)

		switch res.Verdict {
		case core.Implied:
			fmt.Printf("won by the %s arm; its certificate:\n%s", res.Winner, cert.Describe(res.Cert()))
		case core.FiniteCounterexample:
			fmt.Printf("finite semigroup witness (order %d):\n%s",
				res.Witness.Table.Size(), res.Witness.Table.String())
			fmt.Printf("counterexample database: %d tuples (|P| = %d, |Q| = %d), satisfies all %d members of D, violates D0\n",
				res.CounterModel.Instance.Len(), len(res.CounterModel.PElems),
				len(res.CounterModel.QTriples), len(in.D))
		default:
			if res.GoalRefuted {
				fmt.Println("the word problem is REFUTED (Knuth–Bendix completion decides A0 ≠ 0")
				fmt.Println("in the free model), so Reduction Theorem (A) cannot apply; yet no")
				fmt.Println("finite cancellation witness exists either (condition (ii) forbids")
				fmt.Println("nonzero idempotents) — the instance sits in NEITHER set.")
			} else {
				fmt.Println("both semi-procedures exhausted their budgets — the gap the")
				fmt.Println("undecidability proof lives in; no budget can close it in general.")
			}
		}
		fmt.Println()
	}
}

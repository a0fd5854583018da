package reduction

import (
	"math/rand"
	"templatedep/internal/budget"
	"testing"

	"templatedep/internal/chase"
	"templatedep/internal/words"
)

// TestDirectionARandomizedDerivable exercises part (A) on randomized
// derivable presentations: chain instances with random extra equations.
// Adding equations can only ADD derivations, so the goal stays derivable
// and the chase must keep proving D |= D0 — with a different, larger
// dependency set each time.
func TestDirectionARandomizedDerivable(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized direction-A sweep skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 6; trial++ {
		base := words.ChainPresentation(1)
		a := base.Alphabet
		syms := a.Symbols()
		eqs := append([]words.Equation(nil), base.Equations...)
		extra := 1 + rng.Intn(2)
		for i := 0; i < extra; i++ {
			x := syms[rng.Intn(len(syms))]
			y := syms[rng.Intn(len(syms))]
			z := syms[rng.Intn(len(syms))]
			e := words.Eq(words.W(x, y), words.W(z))
			if e.IsTrivial() {
				continue
			}
			eqs = append(eqs, e)
		}
		p, err := words.NewPresentation(a, eqs)
		if err != nil {
			t.Fatal(err)
		}
		p = p.WithZeroEquations()

		// Sanity: the goal must still be derivable.
		dres := words.DeriveGoal(p, words.ClosureOptions{Governor: budget.New(nil, budget.Limits{Words: 5000}), LengthCap: 8})
		if dres.Verdict != words.Derivable {
			t.Fatalf("trial %d: goal lost derivability (%v)?", trial, dres.Verdict)
		}

		in, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := chase.Implies(in.D, in.D0, chase.Options{Governor: budget.New(nil, budget.Limits{Rounds: 16, Tuples: 150000})})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != chase.Implied {
			t.Errorf("trial %d: chase verdict %v on a derivable instance (%d rounds, %d tuples)\npresentation:\n%s",
				trial, res.Verdict, res.Stats.Rounds, res.Instance.Len(), words.FormatSpec(p, true))
		}
	}
}
